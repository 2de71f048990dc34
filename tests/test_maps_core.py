"""The cylinder retraction and the greedy Gromov-Hausdorff matching against
the oracles in ``oracles.py``: traces, single retraction steps, greedy
images and GH brackets must be equal float for float.  The greedy cases
include those where its pruning could go wrong: many tied costs (grids,
lines, a discrete metric, repeated points) and spaces of up to 256 points."""
import functools
import itertools
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import octahedral_cover, three_arc_cover
from nervekit.complex import WEIGHT_DROP, BarycentricPoint
from nervekit.cone import ConePoint, CylinderPoint, CylinderSpace
from nervekit import metric
from nervekit.metric import (METRIC_TOL, FiniteMetricSpace, _anchors, _greedy_maps,
                             gh_distance_bound)
from nervekit.retraction import (build_contractions, full_cylinder_retraction,
                                 simplexwise_retraction)
from nervekit.samples import circle_space, line_space

L = 7.0
CYLINDER_COVERS = {"octahedral": octahedral_cover, "three_arc": three_arc_cover}


@functools.lru_cache(maxsize=None)
def _cylinder(name):
    cover = CYLINDER_COVERS[name]()
    cyl = CylinderSpace(cover, L=L)
    simplices = sorted(tuple(sorted(s)) for s in cyl.nerve.simplices)
    return cover, cyl, build_contractions(cover, L), simplices


@st.composite
def cylinder_points(draw, min_vertices=1):
    """A cover name and a point over its cylinder: a nerve simplex, Dirichlet
    weights on it, a base in its intersection and a uniform height in
    [0, L), or a height on the base slice, half way or at the apex.  Some
    heights lie within ``METRIC_TOL`` of 0 or of L, on either side, and some
    weights sit one ulp below, at or one ulp above ``WEIGHT_DROP``."""
    name = draw(st.sampled_from(sorted(CYLINDER_COVERS)))
    cover, _cyl, _cons, simplices = _cylinder(name)
    sigma = draw(st.sampled_from([s for s in simplices if len(s) >= min_vertices]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = sorted(frozenset.intersection(*(cover.sets[j] for j in sigma)))
    base = int(members[rng.integers(len(members))])
    t = draw(st.sampled_from([None, None, None, 0.0, L / 2.0, L, "near 0", "near L"]))
    if t is None:
        t = float(rng.uniform(0.0, L))
    elif t == "near 0":
        t = draw(st.sampled_from([math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0),
                                  float(rng.uniform(-METRIC_TOL, METRIC_TOL))]))
    elif t == "near L":
        t = draw(st.sampled_from([math.nextafter(L, 0.0), math.nextafter(L, 2 * L),
                                  L + float(rng.uniform(-METRIC_TOL, METRIC_TOL))]))
    weights = rng.dirichlet(np.ones(len(sigma)))
    for v in draw(st.sets(st.integers(0, len(sigma) - 1), max_size=len(sigma) - 1)):
        weights[v] = draw(st.sampled_from([math.nextafter(WEIGHT_DROP, 0.0), WEIGHT_DROP,
                                           math.nextafter(WEIGHT_DROP, 1.0)]))
    return name, CylinderPoint(BarycentricPoint(dict(zip(sigma, weights))),
                               ConePoint(base, t))


def _dump(obj) -> str:
    """JSON text, so that floats are compared by their exact repr."""
    return json.dumps(obj, sort_keys=True)


def _outcome(retract, *args, **kwargs):
    """The JSON text of a trace, or the type and message of what it raised."""
    try:
        return _dump(retract(*args, **kwargs).to_json())
    except Exception as exc:  # compared with the oracle's, type and message
        return type(exc), str(exc)


@given(cylinder_points(), st.sampled_from([1, 2, 3, 7, 16]))
@settings(max_examples=150, deadline=None)
def test_trace_matches_per_step_replay(case, n_steps):
    name, p = case
    _cover, cyl, cons, _simplices = _cylinder(name)
    assert (_outcome(full_cylinder_retraction, cyl, cons, p, n_steps=n_steps)
            == _outcome(oracles.full_cylinder_retraction, cyl, cons, p, n_steps=n_steps))


@given(cylinder_points(), st.sampled_from([1, 2, 16]))
@settings(max_examples=60, deadline=None)
def test_lazy_stages_equal_the_eager_replay(case, n_steps):
    # a trace keeps each stage's points as arrays until they are read
    name, p = case
    _cover, cyl, cons, _simplices = _cylinder(name)
    assume(cyl.check_membership(p))
    got = full_cylinder_retraction(cyl, cons, p, n_steps=n_steps)
    copy = pickle.loads(pickle.dumps(got))
    want = oracles.full_cylinder_retraction(cyl, cons, p, n_steps=n_steps)
    assert got.stages == want.stages
    assert got == want and got.end == want.end
    assert [stage.end for stage in got.stages] == [stage.points[-1] for stage in want.stages]
    assert copy.to_json() == got.to_json()


@given(cylinder_points(), st.sampled_from([1, 2, 16]))
@settings(max_examples=60, deadline=None)
def test_a_trace_builds_no_weight_matrix_until_its_points_are_read(case, n_steps):
    # a stage builds its points only when they are read
    name, p = case
    _cover, cyl, cons, _simplices = _cylinder(name)
    assume(cyl.check_membership(p))
    got = full_cylinder_retraction(cyl, cons, p, n_steps=n_steps)
    assert not [stage for stage in got.stages if "points" in vars(stage)]
    want = oracles.full_cylinder_retraction(cyl, cons, p, n_steps=n_steps)
    assert _dump(got.to_json()) == _dump(want.to_json())


@given(cylinder_points(min_vertices=2),
       st.lists(st.one_of(st.sampled_from([i / 16 for i in range(17)]),
                          st.floats(0.0, 1.0)), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_simplexwise_step_matches_oracle(case, s_values):
    name, p = case
    _cover, _cyl, cons, _simplices = _cylinder(name)
    sigma = tuple(sorted(p.theta.support))
    con = cons[frozenset(sigma)]
    for s in s_values:
        got = _outcome(lambda: CylinderPoint(*simplexwise_retraction(
            sigma, con, p.theta, p.cone, s, L)))
        want = _outcome(lambda: CylinderPoint(*oracles.simplexwise_retraction(
            sigma, con, p.theta, p.cone, s, L)))
        assert got == want


@st.composite
def spaces(draw):
    """Up to 14 points: a random cloud, a small integer grid or an evenly
    spaced line, the last two with many tied distances."""
    n = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["cloud", "grid", "line"]))
    if kind == "line":
        return line_space(n, spacing=draw(st.sampled_from([0.5, 1.0, 3.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        cells = rng.choice(25, size=n, replace=False)
        coords = np.stack([cells // 5, cells % 5], axis=1).astype(float)
    else:
        coords = rng.uniform(0.0, 3.0, size=(n, draw(st.integers(1, 3))))
    return FiniteMetricSpace.from_coords(coords)


@given(spaces(), spaces(), st.data())
@settings(max_examples=150, deadline=None)
def test_greedy_images_match_gathering_oracle(X, Y, data):
    anchors = list(itertools.product(range(X.n), range(Y.n)))
    for ax, ay in data.draw(st.lists(st.sampled_from(anchors), min_size=1,
                                     max_size=8)):
        got = _greedy_maps(X, Y, [ax], [ay])[0]
        assert got.tolist() == oracles.greedy_map(X, Y, ax, ay).tolist()
        assert got[ax] == ay


@given(spaces(), spaces(), st.integers(1, 20), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_gh_bracket_matches_gathering_oracle(X, Y, trials, seed):
    assert (gh_distance_bound(X, Y, trials=trials, seed=seed)
            == oracles.gh_distance_bound(X, Y, trials=trials, seed=seed))


def test_gh_bracket_matches_on_circles_of_unequal_size():
    X, Y = circle_space(40), circle_space(33, radius=1.1, phase=0.2)
    for seed in range(3):
        assert (gh_distance_bound(X, Y, trials=6, seed=seed)
                == oracles.gh_distance_bound(X, Y, trials=6, seed=seed))
        assert (gh_distance_bound(Y, X, trials=6, seed=seed)
                == oracles.gh_distance_bound(Y, X, trials=6, seed=seed))


class _Detour:
    """Stands in for a contraction to ``center``: fixes every base at time 0,
    sends it to ``outside`` at times strictly between 0 and L/2 and to the
    center from L/2 on, so a stage can leave the cylinder and come back."""

    def __init__(self, center, outside):
        self.center, self.outside = center, outside

    def __call__(self, x, time):
        if time <= 0.0:
            return x
        return self.center if time >= L / 2.0 else self.outside


def test_membership_flags_match_when_a_stage_leaves_the_cylinder():
    cover, cyl, cons, simplices = _cylinder("octahedral")
    far = {key: _Detour(con.center, int(np.argmax(cover.space.dist[con.center])))
           for key, con in cons.items()}
    rng = np.random.default_rng(11)
    flags = set()
    for _ in range(60):
        sigma = simplices[rng.integers(len(simplices))]
        members = sorted(frozenset.intersection(*(cover.sets[j] for j in sigma)))
        p = CylinderPoint(BarycentricPoint(dict(zip(sigma, rng.dirichlet(np.ones(len(sigma)))))),
                          ConePoint(int(members[rng.integers(len(members))]),
                                    float(rng.uniform(0.0, L))))
        got = full_cylinder_retraction(cyl, far, p, n_steps=8)
        want = oracles.full_cylinder_retraction(cyl, far, p, n_steps=8)
        assert _dump(got.to_json()) == _dump(want.to_json())
        flags.add(got.membership_ok)
    assert flags == {True, False}


def _assert_greedy_matches(X, Y, anchors):
    for ax, ay in anchors:
        assert _greedy_maps(X, Y, [ax], [ay])[0].tolist() == \
            oracles.greedy_map(X, Y, ax, ay).tolist()
        assert _greedy_maps(Y, X, [ay], [ax])[0].tolist() == \
            oracles.greedy_map(Y, X, ay, ax).tolist()


@st.composite
def larger_spaces(draw):
    """30 to 120 points: a random cloud, a subset of a 12 x 12 integer grid
    or an evenly spaced line."""
    n = draw(st.integers(30, 120))
    kind = draw(st.sampled_from(["cloud", "grid", "line"]))
    if kind == "line":
        return line_space(n, spacing=draw(st.sampled_from([0.5, 1.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        cells = rng.choice(144, size=n, replace=False)
        return FiniteMetricSpace.from_coords(
            np.stack([cells // 12, cells % 12], axis=1).astype(float))
    return FiniteMetricSpace.from_coords(rng.uniform(0.0, 3.0, size=(n, draw(st.integers(1, 3)))))


@given(larger_spaces(), larger_spaces(), st.data())
@settings(max_examples=25, deadline=None)
def test_greedy_images_match_on_larger_spaces(X, Y, data):
    anchors = data.draw(st.lists(st.tuples(st.integers(0, X.n - 1), st.integers(0, Y.n - 1)),
                                 min_size=1, max_size=3))
    _assert_greedy_matches(X, Y, anchors)


@given(larger_spaces(), larger_spaces(), st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_gh_bracket_matches_on_larger_spaces(X, Y, seed):
    assert (gh_distance_bound(X, Y, trials=2, seed=seed)
            == oracles.gh_distance_bound(X, Y, trials=2, seed=seed))


def _discrete(n):
    return FiniteMetricSpace(1.0 - np.eye(n))


@pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (5, 1), (6, 6), (7, 12), (12, 7), (40, 33)])
def test_greedy_matches_on_a_discrete_metric(n, m):
    # every off-diagonal distance is 1.0, so every candidate ties
    X, Y = _discrete(n), _discrete(m)
    _assert_greedy_matches(X, Y, itertools.product(range(min(n, 3)), range(min(m, 3))))
    for seed in range(3):
        assert (gh_distance_bound(X, Y, trials=4, seed=seed)
                == oracles.gh_distance_bound(X, Y, trials=4, seed=seed))


@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_greedy_matches_with_repeated_points(k, dim, seed, data):
    # k distinct points, each repeated up to five times, in shuffled order
    rng = np.random.default_rng(seed)
    distinct = rng.integers(0, 3, size=(k, dim)).astype(float)
    c = rng.permutation(np.repeat(distinct, rng.integers(1, 6, size=k), axis=0))
    X = FiniteMetricSpace.from_coords(c)
    Y = FiniteMetricSpace.from_coords(distinct)
    anchors = data.draw(st.lists(st.tuples(st.integers(0, X.n - 1), st.integers(0, Y.n - 1)),
                                 min_size=1, max_size=4))
    _assert_greedy_matches(X, Y, anchors)
    _assert_greedy_matches(X, X, [(ax, ax) for ax, _ay in anchors])
    assert (gh_distance_bound(X, Y, trials=3, seed=seed)
            == oracles.gh_distance_bound(X, Y, trials=3, seed=seed))


def _jittered_circle(n, seed, jitter=0.02):
    rng = np.random.default_rng(seed)
    ang = 2.0 * np.pi * np.arange(n) / n + rng.uniform(-jitter, jitter, size=n)
    return FiniteMetricSpace.from_coords(np.stack([np.cos(ang), np.sin(ang)], axis=1))


@pytest.mark.parametrize("n, m", [(30, 47), (64, 120), (120, 37)])
def test_greedy_matches_on_jittered_circles_of_unequal_size(n, m):
    X, Y = _jittered_circle(n, seed=n), _jittered_circle(m, seed=m)
    _assert_greedy_matches(X, Y, [(0, 0), (n // 2, m // 3), (n - 1, m - 1)])
    assert (gh_distance_bound(X, Y, trials=3, seed=n)
            == oracles.gh_distance_bound(X, Y, trials=3, seed=n))


def test_greedy_matches_on_the_benchmark_circle_pair():
    # 256 circle points and a jittered, relabelled copy, built as the
    # benchmark's maps workload builds its stability inputs
    n = 256
    ang = 2.0 * np.pi * np.arange(n) / n
    src = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    X = FiniteMetricSpace.from_coords(src)
    r = 2.0 * math.sin(math.radians(35.0))
    mesh = max(X.dist[np.ix_(arc, arc)].max()
               for arc in (np.flatnonzero(X.dist[c] < r) for c in (0, n // 3, 2 * n // 3)))
    rng = np.random.default_rng(1)
    tgt = (src + rng.uniform(-1.0, 1.0, size=src.shape) * mesh / 25.0)[rng.permutation(n)]
    Y = FiniteMetricSpace.from_coords(tgt)
    _assert_greedy_matches(X, Y, [(0, 17), (200, 3)])


@given(spaces(), spaces(), st.data())
@settings(max_examples=100, deadline=None)
def test_lockstep_images_match_gathering_oracle(X, Y, data):
    # one block of trials, some of its anchor pairs repeated
    pairs = data.draw(st.lists(st.tuples(st.integers(0, X.n - 1), st.integers(0, Y.n - 1)),
                               min_size=1, max_size=6))
    pairs = data.draw(st.permutations(pairs + data.draw(st.lists(st.sampled_from(pairs),
                                                                 max_size=4))))
    ax, ay = zip(*pairs)
    assert (_greedy_maps(X, Y, ax, ay).tolist()
            == [oracles.greedy_map(X, Y, x, y).tolist() for x, y in pairs])


@pytest.mark.parametrize("n, m", [(1, 1), (1, 6), (6, 1)])
def test_lockstep_on_one_point_spaces(n, m):
    X, Y = line_space(n), circle_space(m)
    pairs = list(itertools.product(range(n), range(m))) * 2
    ax, ay = zip(*pairs)
    assert (_greedy_maps(X, Y, ax, ay).tolist()
            == [oracles.greedy_map(X, Y, x, y).tolist() for x, y in pairs])
    assert (_greedy_maps(Y, X, ay, ax).tolist()
            == [oracles.greedy_map(Y, X, y, x).tolist() for x, y in pairs])
    for seed in range(3):
        assert (gh_distance_bound(X, Y, trials=5, seed=seed)
                == oracles.gh_distance_bound(X, Y, trials=5, seed=seed))


@pytest.mark.parametrize("trials", [13, 40])
def test_gh_bracket_when_trials_exceed_the_anchor_pairs(trials):
    X, Y = line_space(3), circle_space(4)  # 12 anchor pairs
    for seed in range(3):
        assert (gh_distance_bound(X, Y, trials=trials, seed=seed)
                == oracles.gh_distance_bound(X, Y, trials=trials, seed=seed))
        assert (gh_distance_bound(Y, X, trials=trials, seed=seed)
                == oracles.gh_distance_bound(Y, X, trials=trials, seed=seed))


@pytest.mark.parametrize("nx, ny", [(1, 1), (3, 7), (40, 13), (256, 256)])
def test_anchor_draw_equals_the_pair_list_shuffle(nx, ny):
    for seed in (0, 1, 2**32 - 1):
        pairs = list(itertools.product(range(nx), range(ny)))
        np.random.default_rng(seed).shuffle(pairs)
        ax, ay = _anchors(nx, ny, nx * ny + 1, seed)
        assert list(zip(ax.tolist(), ay.tolist())) == pairs


def test_gh_bracket_across_trial_blocks_on_200_point_circles(monkeypatch):
    # 4 MiB / (8 * 200 * 200 bytes) = 13 trials per block, so 16 trials
    # take a block of 13 and one of 3 in each direction
    X, Y = circle_space(200), _jittered_circle(200, seed=5)
    greedy_maps, calls = metric._greedy_maps, []

    def recording(A, B, ax, ay):
        calls.append((A is X, list(ax), list(ay)))
        return greedy_maps(A, B, ax, ay)

    monkeypatch.setattr(metric, "_greedy_maps", recording)
    pairs = list(itertools.product(range(X.n), range(Y.n)))
    np.random.default_rng(7).shuffle(pairs)
    assert gh_distance_bound(X, Y, trials=16, seed=7) == oracles.gh_distance_bound(
        X, Y, trials=16, seed=7)
    assert [(forward, len(ax)) for forward, ax, _ay in calls] == [
        (True, 13), (False, 13), (True, 3), (False, 3)]
    assert [pair for forward, ax, ay in calls if forward
            for pair in zip(ax, ay)] == pairs[:16]
    assert [pair for forward, ax, ay in calls if not forward
            for pair in zip(ay, ax)] == pairs[:16]
    assert gh_distance_bound(Y, X, trials=16, seed=7) == oracles.gh_distance_bound(
        Y, X, trials=16, seed=7)


def test_gh_bracket_memory_stays_within_the_row_blocks():
    # with the list of all n * m anchor pairs the peak was about 108 MB
    X, Y = circle_space(1000), circle_space(1000, radius=1.1, phase=0.2)
    tracemalloc.start()
    try:
        gh_distance_bound(X, Y, trials=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
