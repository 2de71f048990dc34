"""The array kernels of the maps layers against the per-point loops in
``oracles.py``: the contraction paths derived from one parent tree, the
landing heights of the radial projection on rows of coordinates and the
height-blend grid built from them, the radial projection itself, a trace
stage's kept keys (numpy flags) against the supports of its points
(``combine``), and the gluings' chart fold over one in-ball mask and
cutoff matrix, and the two gluings against their separate per-point loops.  Floats must match bit for
bit.  The cases include members at distance 0 (or just below) from their
center, ties in distance, coordinates that reach the wall together, heights
0 and L, points on a proper face and points in no chart ball."""
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import octahedral_cover, spaces, three_arc_cover
from nervekit.complex import WEIGHT_DROP, BarycentricPoint
from nervekit.cone import ConePoint
from nervekit.cover import Cover
from nervekit.metric import FiniteMetricSpace, MetricError, PointMap
from nervekit.retraction import (Contraction, _BlendGrid, _cone_stage, _landing_heights,
                                 _s_grid, _simplexwise_stage, build_contractions,
                                 cone_retraction_phi, radial_projection)
from nervekit.samples import grid_with_strainers, line_space
from nervekit.stability import (Chart, ChartAtlas, GluingChart, GluingConfig,
                                _fold_charts, build_gluing_atlas, default_rho,
                                glue_homotopies, glue_maps)

L = 7.0


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@given(spaces(max_n=30), st.data())
@settings(max_examples=200, deadline=None)
def test_contraction_paths_match_the_walk_oracle(space, data):
    members = data.draw(st.sets(st.integers(0, space.n - 1), min_size=1))
    center = data.draw(st.sampled_from(sorted(members)))
    con = Contraction(space, frozenset(members), center, L)
    assert con.paths == oracles.contraction_paths(space, members, center)


def _whole_space_cover():
    """Four whole-space sets: the singletons (0,) and (2,) and the eleven
    larger index sets all contract the same members to point 0."""
    space = FiniteMetricSpace.from_coords([[0.0], [1.0], [3.0], [4.5], [5.0]])
    return Cover(space, (frozenset(range(5)),) * 4, (0, 1, 0, 2))


@pytest.mark.parametrize("make", [three_arc_cover, octahedral_cover, _whole_space_cover])
def test_cover_contractions_match_the_walk_oracle(make):
    cover = make()
    shared = {}
    for con in build_contractions(cover, L).values():
        assert con.paths == oracles.contraction_paths(cover.space, con.members, con.center)
        assert shared.setdefault((con.members, con.center), con) is con


def test_contraction_breaks_distance_ties_by_the_lowest_index():
    # 1 and 2 are both 1 from 0 and 2 from the center 3, so 0 steps to 1;
    # 4 sits on the center and steps straight to it
    d = np.array([[0, 1, 1, 2, 2],
                  [1, 0, 2, 1, 1],
                  [1, 2, 0, 1, 1],
                  [2, 1, 1, 0, 0],
                  [2, 1, 1, 0, 0]], dtype=float)
    space = FiniteMetricSpace(d)
    con = Contraction(space, frozenset(range(5)), 3, L)
    assert con.paths == {0: [0, 1, 3], 1: [1, 3], 2: [2, 3], 3: [3], 4: [4, 3]}
    assert con.paths == oracles.contraction_paths(space, range(5), 3)


@st.composite
def simplex_points(draw, k=None):
    """Sorted labels of k vertices (1 to 5 when not given) and a point on
    them: Dirichlet weights, or small integer weights (so that coordinates
    tie and reach the wall together), some of them 0 (a proper face); a
    height of 0, L or in between."""
    if k is None:
        k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = tuple(sorted(rng.choice(12, size=k, replace=False).tolist()))
    if draw(st.booleans()):
        weights = rng.dirichlet(np.ones(k))
    else:
        weights = rng.integers(0, 4, size=k).astype(float)
        weights[rng.integers(k)] += 1.0
        weights /= weights.sum()
    x = BarycentricPoint({v: w for v, w in zip(sigma, weights) if w > 0.0})
    t = draw(st.sampled_from([None, None, 0.0, L]))
    if t is None:
        t = float(rng.uniform(0.0, L))
    return sigma, x, t


@given(simplex_points(), st.sampled_from([L, 6.5, 12.0]))
@settings(max_examples=300, deadline=None)
def test_radial_projection_matches_the_coordinate_loop(case, height):
    sigma, x, t = case
    t = min(t, height)
    got, u = radial_projection(sigma, x, t, height)
    want, v = oracles.radial_projection(sigma, x, t, height)
    assert list(got.weights.items()) == list(want.weights.items())
    assert _bits(u) == _bits(v)


@given(st.integers(1, 5), st.sampled_from([L, 6.5, 12.0]), st.data())
@settings(max_examples=200, deadline=None)
def test_projection_kernel_rows_match_the_coordinate_loop(k, height, data):
    # rows of coordinates on one simplex, each with its own height, as the
    # blend grid stacks them
    cases = data.draw(st.lists(simplex_points(k), min_size=1, max_size=8))
    rows = np.array([[x[v] for v in sigma] for sigma, x, _t in cases])
    t = np.array([min(c[2], height) for c in cases])
    u = _landing_heights(rows, t, height)
    for i, (row, (sigma, x, _t)) in enumerate(zip(rows, cases)):
        _want_row, want_u = oracles.project_row(row, float(t[i]), height)
        assert _bits(u[i]) == _bits(want_u)
        got, _u = radial_projection(sigma, x, float(t[i]), height)
        want, _v = oracles.radial_projection(sigma, x, float(t[i]), height)
        assert list(got.weights.items()) == list(want.weights.items())


@pytest.mark.parametrize("row", [np.array([1.0, 1.0, 35.0]) / 37.0,
                                 np.array([1.0, 1.0, 8.0, 8.0]) / 18.0])
def test_projection_kernel_zeroes_every_coordinate_that_hits_the_wall(row):
    # the two low coordinates reach the wall at the same lambda, where the
    # arithmetic alone leaves them a few ulps above 0, below WEIGHT_DROP
    sigma = tuple(range(len(row)))
    x = BarycentricPoint(dict(zip(sigma, row.tolist())))
    coords = np.array([x[v] for v in sigma])
    bary = 1.0 / len(row)
    lam = bary / (bary - coords.min())
    assert bary + lam * (coords.min() - bary) > 0.0
    got, u = radial_projection(sigma, x, 5.0, L)
    want, want_u = oracles.radial_projection(sigma, x, 5.0, L)
    assert list(got.weights.items()) == list(want.weights.items())
    assert _bits(u) == _bits(want_u) and u > 0.0
    assert got.support == {v for v in sigma if coords[v] > coords.min()}


@st.composite
def full_rows(draw):
    """Sorted labels of k = 2 to 6 vertices and a point carried by all of
    them: Dirichlet weights, small integer weights (so that coordinates tie),
    the barycenter (every lambda is inf) or one of two rows whose low
    coordinates reach the wall together."""
    kind = draw(st.sampled_from(["dirichlet", "integers", "barycenter", "wall ties"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 6))
    if kind == "dirichlet":
        row = rng.dirichlet(np.ones(k))
    elif kind == "integers":
        row = rng.integers(1, 4, size=k).astype(float)
        row /= row.sum()
    elif kind == "barycenter":
        row = np.full(k, 1.0 / k)
    else:
        row = draw(st.sampled_from([np.array([1.0, 1.0, 35.0]) / 37.0,
                                    np.array([1.0, 1.0, 8.0, 8.0]) / 18.0]))
    sigma = tuple(sorted(rng.choice(12, size=len(row), replace=False).tolist()))
    return sigma, BarycentricPoint(dict(zip(sigma, row.tolist())))


@given(full_rows(), st.sampled_from([L, 6.5, 12.0]), st.data())
@settings(max_examples=300, deadline=None)
def test_radial_projection_is_the_kernel_row_in_floats(case, height, data):
    sigma, x = case
    assume(x.support == frozenset(sigma))
    t = data.draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, math.nextafter(height, 0.0),
                                             height]),
                            st.floats(0.0, height)))
    got, u = radial_projection(sigma, x, t, height)
    (want_u,) = _landing_heights(np.array([[x[v] for v in sigma]]), t, height)
    assert _bits(u) == _bits(want_u)
    if t == 0.0:  # the base slice is fixed without the kernel
        assert got is x
    else:
        want, _v = oracles.radial_projection(sigma, x, t, height)
        assert list(got.weights) == list(want.weights)
        assert _bits(list(got.weights.values())) == _bits(list(want.weights.values()))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("height", [L, 9.5])
def test_blend_grid_matches_one_projection_per_node(k, height):
    grid = _BlendGrid(k, height)
    low, high = oracles.blend_grid(k, height)
    assert grid.low.shape == low.shape and grid.high.shape == high.shape
    assert _bits(grid.low) == _bits(low) and _bits(grid.high) == _bits(high)


@functools.lru_cache(maxsize=None)
def _patch_charts(center, radius):
    """A chart of the 9 x 9 strainer patch and one of its copy scaled by 1.5,
    around the same center, so that the two sides of a gluing chart differ."""
    space, pairs = grid_with_strainers(9)
    scaled = FiniteMetricSpace(1.5 * space.dist)
    return (Chart(space, center, pairs, 2.0 * radius, 0.3),
            Chart(scaled, center, pairs, 2.0 * radius, 0.3))


def _outcome(fold):
    # a point outside a chart or an ambiguous inversion must fail alike
    try:
        return fold()
    except MetricError as exc:
        return str(exc)


@given(st.lists(st.tuples(st.integers(20, 60), st.sampled_from([1.0, 1.5, 2.0, 3.0])),
                min_size=1, max_size=4),
       st.integers(20, 60), st.integers(20, 60),
       st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)))
@settings(max_examples=100, deadline=None)
def test_chart_fold_matches_the_per_chart_scan(charts, a, b, weight_b):
    space, _ = grid_with_strainers(9)
    atlas = ChartAtlas(tuple(GluingChart(c, r, *_patch_charts(c, r)) for c, r in charts),
                       1.0)
    near, phi = atlas._cutoffs(space)
    # the far strainer points 81-84 lie in no chart ball
    assert not near[81:].any()
    for side in ("source_chart", "target_chart"):
        sides = [getattr(ch, side) for ch in atlas.charts]
        for x in range(space.n):
            got = _outcome(lambda: _fold_charts(sides, near[x], phi[x], a, b, weight_b))
            want = _outcome(lambda: oracles.fold_charts(atlas, space, x, side, a, b,
                                                        weight_b))
            assert got == want


@given(spaces(max_n=30), st.data())
@settings(max_examples=100, deadline=None)
def test_cone_retraction_matches_the_one_s_formula(space, data):
    members = data.draw(st.sets(st.integers(0, space.n - 1), min_size=1))
    con = Contraction(space, frozenset(members), data.draw(st.sampled_from(sorted(members))), L)
    p = ConePoint(data.draw(st.sampled_from(sorted(members))),
                  data.draw(st.one_of(st.sampled_from([0.0, L]), st.floats(0.0, L))))
    for s in data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1 / 3, 0.5, 1.0]),
                                          st.floats(0.0, 1.0)), min_size=1, max_size=4)):
        want = oracles.cone_retraction_phi(con, p, s)
        got = cone_retraction_phi(con, p, s)
        assert got.base == want.base and _bits(got.t) == _bits(want.t)


NEAR_DROP = [math.nextafter(WEIGHT_DROP, 0.0), WEIGHT_DROP, math.nextafter(WEIGHT_DROP, 1.0),
             2.0 * WEIGHT_DROP, 1e-14]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_stage_keys_are_the_supports_of_its_points(data):
    # a stage's kept keys come from one numpy pass over all s, its points
    # from combine: weights at and near WEIGHT_DROP cross it along the
    # segment, and a coordinate that hits the wall leaves at s = 1
    k = data.draw(st.integers(1, 5))
    sigma = tuple(sorted(data.draw(st.sets(st.integers(0, 11), min_size=k, max_size=k))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = rng.dirichlet(np.ones(k))
    for v in data.draw(st.sets(st.integers(0, k - 1), max_size=k - 1)):
        weights[v] = data.draw(st.sampled_from(NEAR_DROP))
    x = BarycentricPoint(dict(zip(sigma, weights.tolist())))
    t = data.draw(st.sampled_from([0.0, L / 2.0, L, float(rng.uniform(0.0, L))]))
    p = ConePoint(int(rng.integers(6)), t)
    grid = data.draw(st.one_of(st.sampled_from([1, 2, 3, 16]).map(_s_grid),
                               st.tuples(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))))
    con = Contraction(line_space(6), frozenset(range(6)), 0, L)
    cone = data.draw(st.booleans())
    stage = (_cone_stage(sigma, con, x, p, grid) if cone
             else _simplexwise_stage(sigma, con, x, p, grid, L))
    end = stage.end
    assert len(stage.points) == len(grid)
    assert [frozenset(keys) for keys in stage._kept] == [q.theta.support for q in stage.points]
    assert end == stage.points[-1]
    if cone:
        assert all(q.theta == x for q in stage.points)


ABOVE_3_DROP = math.nextafter(3e-15, 1.0)
ABOVE_DROP = math.nextafter(WEIGHT_DROP, 1.0)


@pytest.mark.parametrize("x, psi0, grid, support", [
    # psi0 drops vertex 0; at s = 2/3, x[0] + s * (0 - x[0]) computes to
    # exactly WEIGHT_DROP, so the point drops it too, where (1 - s) * x[0]
    # computes to 1.0000000000000003e-15
    ({0: ABOVE_3_DROP, 1: 1.0 - ABOVE_3_DROP}, None, _s_grid(3),
     [{0, 1}, {0, 1}, {1}, {1}]),
    # the point at s = 1 is psi0 itself, which keeps vertex 1, where
    # x[1] + (psi0[1] - x[1]) computes to 9.992e-16
    ({0: 0.25, 1: 0.75}, {0: 1.0 - ABOVE_DROP, 1: ABOVE_DROP}, (0.0, 1.0),
     [{0, 1}, {0, 1}]),
], ids=["two-thirds", "psi0-just-above"])
def test_stage_keys_follow_combine_where_it_meets_weight_drop(monkeypatch, x, psi0, grid,
                                                               support):
    # for radial_projection's own psi0, x + (psi0 - x) computes to psi0
    # exactly (psi0's float grid is no finer than that of psi0 - x), so the
    # second case lands the segment on a given psi0
    if psi0 is not None:
        psi0 = BarycentricPoint(psi0)
        monkeypatch.setattr("nervekit.retraction.radial_projection",
                            lambda sigma, x, t, L: (psi0, 0.0))
    con = Contraction(line_space(6), frozenset(range(6)), 0, L)
    stage = _simplexwise_stage((0, 1), con, BarycentricPoint(x), ConePoint(0, L / 2.0), grid, L)
    assert [q.theta.support for q in stage.points] == support
    assert [set(keys) for keys in stage._kept] == support


@functools.lru_cache(maxsize=None)
def _strained(m):
    space, pairs = grid_with_strainers(m)
    return space, pairs, FiniteMetricSpace(1.5 * space.dist)


@st.composite
def gluings(draw):
    """A strained m x m grid glued into its copy scaled by 1.5, so that
    source and target charts differ: D empty, a block or random, mu and
    deltaR among the grid's distances so that points sit exactly on the
    edges of the neighborhoods, inner maps and homotopies that move grid
    points by at most one step, and a t grid of 0 to 5 times."""
    m = draw(st.integers(4, 8))
    space, pairs, target = _strained(m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["empty", "block", "random"]))
    if kind == "block":
        r0, c0 = rng.integers(0, m, size=2).tolist()
        r1, c1 = (min(v + int(rng.integers(1, 4)), m) for v in (r0, c0))
        D = frozenset(r * m + c for r in range(r0, r1) for c in range(c0, c1))
    elif kind == "random":
        D = frozenset(np.flatnonzero(rng.random(m * m) < 0.15).tolist())
    else:
        D = frozenset()
    config = GluingConfig(space, D, draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])))
    steps = np.array([0, 1, -1, m, -m])
    moved = np.arange(space.n)[:, None] + steps[rng.integers(0, 5, size=(space.n, 6))]
    moved = np.where((np.arange(space.n) < m * m)[:, None] & (moved >= 0) & (moved < m * m),
                     moved, np.arange(space.n)[:, None])
    g = {x: int(moved[x, 0]) for x in config.D1}
    f = PointMap(space, target, moved[:, 1] if draw(st.booleans()) else np.arange(space.n))
    try:
        atlas = build_gluing_atlas(space, target, config.blend_zone,
                                   draw(st.sampled_from([1.0, 2.0, 3.0])), pairs, pairs, g,
                                   delta=0.3)
    except MetricError:
        assume(False)
    t_grid = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                     st.floats(0.0, 1.0)), max_size=5))
    return config, atlas, f, g, moved[:, 2:], t_grid


@given(gluings())
@settings(max_examples=60, deadline=None)
def test_gluings_match_the_per_point_loops(case):
    config, atlas, f, g, moves, t_grid = case
    got = _outcome(lambda: glue_maps(f, g, config, atlas)[0].image)
    want = _outcome(lambda: oracles.glue_maps_image(f, g, config, atlas))
    assert type(got) is type(want)
    assert got == want if isinstance(got, str) else np.array_equal(got, want)

    def F(x, k):
        return int(moves[x, k % 2])

    def H(x, k):
        return int(moves[x, 2 + k % 2])

    got = _outcome(lambda: glue_homotopies(F, H, config, atlas, t_grid))
    want = _outcome(lambda: oracles.glue_homotopies(F, H, config, atlas, t_grid))
    assert type(got) is type(want)
    if isinstance(got, str):
        assert got == want
    else:
        assert got.shape == want.shape == (config.space.n, len(t_grid))
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_glue_homotopies_falls_back_outside_every_chart_ball():
    # with only the first chart of the patch's atlas most collar points lie
    # in no chart ball: they take H below the cutoff 1/2 and F from 1/2 on
    space, pairs = grid_with_strainers(9)
    D = frozenset(i * 9 + j for i in range(3, 6) for j in range(3, 6))
    config = GluingConfig(space, D, 2.0)
    g = {x: x for x in config.D1}
    full = build_gluing_atlas(space, space, config.blend_zone, 3.0, pairs, pairs, g, delta=0.3)
    atlas = ChartAtlas(full.charts[:1], full.deltaR)
    near, _phi = atlas._cutoffs(space)
    t_grid = [0.0, 0.3, 0.75]

    def F(x, k):
        return x

    def H(x, k):
        return x + 1 if x < 80 and x % 9 < 8 else x

    G = glue_homotopies(F, H, config, atlas, t_grid)
    assert np.array_equal(G, oracles.glue_homotopies(F, H, config, atlas, t_grid))
    rho = default_rho(config)
    lone = [x for x in sorted(config.collar - config.D) if not near[x].any()]
    taken = {rho(x, t) < 0.5 for x in lone for t in t_grid}
    assert taken == {True, False}
    for x in lone:
        for k, t in enumerate(t_grid):
            assert G[x, k] == (H(x, k) if rho(x, t) < 0.5 else F(x, k))

