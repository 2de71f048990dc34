"""The cylinder retraction and the greedy Gromov-Hausdorff matching against
the oracles in ``oracles.py``: traces, single retraction steps, greedy
images and GH brackets must be equal float for float."""
import functools
import itertools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import octahedral_cover, three_arc_cover
from nervekit.complex import BarycentricPoint
from nervekit.cone import ConePoint, CylinderPoint, CylinderSpace
from nervekit.metric import FiniteMetricSpace, _greedy_map, gh_distance_bound
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
    """A cover name and a point of its cylinder: a nerve simplex, Dirichlet
    weights on it, a base in its intersection and a uniform height in
    [0, L), or a height on the base slice, half way or at the apex."""
    name = draw(st.sampled_from(sorted(CYLINDER_COVERS)))
    cover, _cyl, _cons, simplices = _cylinder(name)
    sigma = draw(st.sampled_from([s for s in simplices if len(s) >= min_vertices]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = sorted(frozenset.intersection(*(cover.sets[j] for j in sigma)))
    base = int(members[rng.integers(len(members))])
    t = draw(st.sampled_from([None, None, None, 0.0, L / 2.0, L]))
    if t is None:
        t = float(rng.uniform(0.0, L))
    weights = rng.dirichlet(np.ones(len(sigma)))
    return name, CylinderPoint(BarycentricPoint(dict(zip(sigma, weights))),
                               ConePoint(base, t))


def _dump(obj) -> str:
    """JSON text, so that floats are compared by their exact repr."""
    return json.dumps(obj, sort_keys=True)


@given(cylinder_points(), st.sampled_from([1, 2, 3, 7, 16]))
@settings(max_examples=150, deadline=None)
def test_trace_matches_per_step_replay(case, n_steps):
    name, p = case
    _cover, cyl, cons, _simplices = _cylinder(name)
    got = full_cylinder_retraction(cyl, cons, p, n_steps=n_steps)
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
        got = CylinderPoint(*simplexwise_retraction(sigma, con, p.theta, p.cone, s, L))
        want = CylinderPoint(*oracles.simplexwise_retraction(sigma, con, p.theta,
                                                             p.cone, s, L))
        assert _dump(got.to_json()) == _dump(want.to_json())


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
        got = _greedy_map(X, Y, ax, ay)
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
