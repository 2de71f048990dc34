import math

import numpy as np
import pytest

from conftest import ten_line_sets_cover, three_arc_cover
from nervekit.complex import BarycentricPoint
from nervekit.cone import ConePoint, CylinderPoint, CylinderSpace
from nervekit.cover import build_ball_cover, intersections
from nervekit.metric import FiniteMetricSpace, MetricError
from nervekit.partition import PartitionOfUnity
from nervekit.retraction import (Contraction, build_contractions,
                                 cone_retraction_phi, cutoff_g, cutoff_mu,
                                 cutoff_nu, full_cylinder_retraction,
                                 height_blend, homotopy_F, homotopy_H, lerp,
                                 measure_retraction_lipschitz,
                                 radial_projection, simplexwise_retraction)
from nervekit.samples import circle_space

S_GRID = [i / 16 for i in range(17)]


def test_lerp_exact_endpoints():
    assert lerp(0.1, 0.7, 0.0) == 0.1
    assert lerp(0.1, 0.7, 1.0) == 0.7
    assert lerp(0.3, 0.3, 0.4) == 0.3


def test_cutoff_plateaus():
    for s in S_GRID:
        if s <= 1 / 3:
            assert cutoff_g(s) == 1.0
        if s <= 0.5:
            assert cutoff_mu(s) == 0.0
        if s >= 2 / 3:
            assert cutoff_mu(s) == 1.0
        if s <= 2 / 3:
            assert cutoff_nu(s) == 0.0
        if s >= 0.75:
            assert cutoff_nu(s) == 1.0
    assert cutoff_g(1.0) == 0.0


def _one_contraction(cov, L=7.0):
    rec = next(r for r in intersections(cov, 2) if len(r.indices) == 2)
    return Contraction(cov.space, rec.members, rec.center, L), rec


def test_contraction_paths_decrease_distance():
    cov = three_arc_cover()
    con, rec = _one_contraction(cov)
    d = cov.space.dist
    for x, path in con.paths.items():
        assert path[0] == x and path[-1] == con.center
        for a, b in zip(path, path[1:]):
            assert d[b, con.center] < d[a, con.center]
        assert all(p in rec.members for p in path)


def test_contraction_time_endpoints():
    cov = three_arc_cover()
    con, _ = _one_contraction(cov)
    for x in sorted(con.members):
        assert con(x, 0.0) == x
        assert con(x, con.L / 2.0) == con.center
        assert con(x, con.L) == con.center


def test_contraction_outside_domain():
    cov = three_arc_cover()
    con, rec = _one_contraction(cov)
    outside = next(x for x in range(cov.space.n) if x not in rec.members)
    with pytest.raises(MetricError, match="outside"):
        con(outside, 1.0)


def test_contraction_steps_to_center_from_distance_zero():
    # point 1 coincides with the center 0, so no member is strictly closer
    space = FiniteMetricSpace([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    con = Contraction(space, frozenset({0, 1, 2}), 0, 7.0)
    assert con.paths == {0: [0], 1: [1, 0], 2: [2, 0]}
    assert con(1, 0.0) == 1 and con(1, 3.0) == 0 and con(1, 3.5) == 0


def test_homotopy_H_endpoints_exact():
    cov = three_arc_cover()
    pou = PartitionOfUnity(cov)
    for x in (0, 9, 21, 40):
        target = pou.theta(x)
        start = BarycentricPoint(
            {j: 1.0 for j in list(target.support)[:1]}
        )
        p0 = homotopy_H(pou, start, x, 0.0)
        assert p0.theta == start and p0.cone == ConePoint(x, 0.0)
        p1 = homotopy_H(pou, start, x, 1.0)
        assert p1.theta == target
        # points already on the graph never move
        for s in S_GRID:
            q = homotopy_H(pou, target, x, s)
            assert q.theta == target


def test_homotopy_H_membership_guard():
    cov = three_arc_cover()
    pou = PartitionOfUnity(cov)
    lone = next(x for x in sorted(cov.sets[0]) if x not in cov.sets[1])
    with pytest.raises(MetricError, match="membership"):
        homotopy_H(pou, BarycentricPoint({1: 1.0}), lone, 0.5)


@pytest.mark.parametrize("vertex", [-1, 5])
def test_homotopy_H_names_a_vertex_outside_the_cover(vertex):
    cov = build_ball_cover(circle_space(12), 1.2, seed=0)
    assert cov.n_sets == 5
    pou = PartitionOfUnity(cov)
    with pytest.raises(MetricError) as exc:
        homotopy_H(pou, BarycentricPoint({vertex: 1.0}), 0, 0.5)
    assert str(exc.value) == f"vertex {vertex} is not a set index in [0, 5)"


def test_homotopy_F_endpoints_exact():
    L = 7.0
    p = CylinderPoint(BarycentricPoint({0: 1.0}), ConePoint(3, 2.5))
    assert homotopy_F(p, 0.0, L).cone.t == 2.5
    assert homotopy_F(p, 1.0, L).cone.t == L
    apex = CylinderPoint(BarycentricPoint({0: 1.0}), ConePoint(3, L))
    for s in S_GRID:
        assert homotopy_F(apex, s, L).cone.t == L


def test_cone_retraction_identity_and_base():
    cov = three_arc_cover()
    con, _ = _one_contraction(cov)
    for x in sorted(con.members)[:6]:
        p = ConePoint(x, 3.0)
        q0 = cone_retraction_phi(con, p, 0.0)
        assert q0 == p
        q1 = cone_retraction_phi(con, p, 1.0)
        assert q1.t == 0.0
        # the base slice is fixed throughout
        for s in S_GRID:
            r = cone_retraction_phi(con, ConePoint(x, 0.0), s)
            assert r == ConePoint(x, 0.0)


def test_radial_projection_fixes_base_and_wall():
    sigma = (0, 1, 2)
    L = 7.0
    x = BarycentricPoint({0: 0.5, 1: 0.3, 2: 0.2})
    assert radial_projection(sigma, x, 0.0, L) == (x, 0.0)
    wall = BarycentricPoint({0: 0.6, 1: 0.4})
    out, u = radial_projection(sigma, wall, 3.0, L)
    assert out == wall and u == 3.0


def test_radial_projection_lands_on_boundary_part():
    sigma = (0, 1, 2)
    L = 7.0
    for t in (0.5, 2.0, 5.0, 6.9):
        for w in ({0: 0.5, 1: 0.3, 2: 0.2}, {0: 0.8, 1: 0.1, 2: 0.1}):
            out, u = radial_projection(sigma, BarycentricPoint(dict(w)), t, L)
            assert abs(sum(out[v] for v in sigma) - 1.0) <= 1e-9
            # either the base slice or the wall over the boundary
            assert u == 0.0 or out.support < frozenset(sigma)
            assert 0.0 <= u <= L


def test_radial_projection_barycenter_drops_to_base():
    sigma = (0, 1, 2)
    b = BarycentricPoint({0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
    out, u = radial_projection(sigma, b, 5.0, 7.0)
    assert u == 0.0
    assert out.support == frozenset(sigma)


def test_radial_projection_rejects_foreign_support():
    with pytest.raises(MetricError, match="not carried"):
        radial_projection((0, 1), BarycentricPoint({2: 1.0}), 1.0, 7.0)


@pytest.mark.parametrize("t", [14.0, 20.0, 7.5, -1.0, math.nan])
def test_radial_projection_rejects_a_height_outside_the_cylinder(t):
    # at t = 2L the projection would divide by zero, past it land anywhere
    x = BarycentricPoint({0: 0.5, 1: 0.5})
    with pytest.raises(MetricError, match=rf"^height {t} outside \[0, 7.0\]$"):
        radial_projection((0, 1), x, t, 7.0)
    with pytest.raises(MetricError, match=rf"^height {t} outside \[0, 7.0\]$"):
        height_blend((0, 1), x, t, 7.0)


def test_height_blend_plateaus():
    sigma = (0, 1, 2)
    L = 7.0
    # near the wall the landing height is t itself
    wall = BarycentricPoint({0: 0.6, 1: 0.4})
    assert height_blend(sigma, wall, 4.0, L) == 4.0
    # over the barycenter the projection lands at height zero
    b = BarycentricPoint({0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
    assert height_blend(sigma, b, 4.0, L) == 0.0


def test_simplexwise_identity_at_s0_and_fixed_sets():
    cov = three_arc_cover()
    recs = [r for r in intersections(cov, 2) if len(r.indices) == 2]
    rec = recs[0]
    con = Contraction(cov.space, rec.members, rec.center, 7.0)
    sigma = tuple(sorted(rec.indices))
    x = BarycentricPoint({sigma[0]: 0.7, sigma[1]: 0.3})
    p = ConePoint(rec.center, 2.0)
    nx0, nc0 = simplexwise_retraction(sigma, con, x, p, 0.0, 7.0)
    assert nx0 == x and nc0 == p
    # base slice fixed at every s
    base = ConePoint(rec.center, 0.0)
    for s in S_GRID:
        nx, nc = simplexwise_retraction(sigma, con, x, base, s, 7.0)
        assert nx == x and nc == base


def test_full_retraction_trivial_at_base():
    cov = three_arc_cover()
    cyl = CylinderSpace(cov)
    cons = build_contractions(cov, cyl.L)
    p = cyl.tau_embed(4)
    trace = full_cylinder_retraction(cyl, cons, p)
    assert trace.stages == ()
    assert trace.end == p


def test_full_retraction_vertex_simplex():
    cov = three_arc_cover()
    cyl = CylinderSpace(cov)
    cons = build_contractions(cov, cyl.L)
    lone = next(x for x in sorted(cov.sets[0])
                if cov.membership(x) == frozenset({0}))
    p = CylinderPoint(BarycentricPoint({0: 1.0}), ConePoint(lone, 3.0))
    trace = full_cylinder_retraction(cyl, cons, p)
    assert len(trace.stages) == 1
    assert trace.stages[0].simplex == (0,)
    assert trace.ends_in_base and trace.membership_ok


def test_full_retraction_edge_points():
    cov = three_arc_cover()
    cyl = CylinderSpace(cov)
    cons = build_contractions(cov, cyl.L)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = int(rng.integers(cov.space.n))
        base = cyl.tau_embed(x)
        t = float(rng.uniform(0.0, cyl.L))
        p = CylinderPoint(base.theta, ConePoint(x, t))
        trace = full_cylinder_retraction(cyl, cons, p)
        assert trace.ends_in_base
        assert trace.membership_ok
        assert trace.end.cone.t == 0.0


def test_full_retraction_trace_json():
    cov = three_arc_cover()
    cyl = CylinderSpace(cov)
    cons = build_contractions(cov, cyl.L)
    p = CylinderPoint(cyl.tau_embed(2).theta, ConePoint(2, 1.5))
    obj = full_cylinder_retraction(cyl, cons, p).to_json()
    assert obj["ends_in_base"] is True
    assert obj["membership_ok"] is True
    assert obj["stages"]


def test_contractions_cover_every_intersection_of_ten_sets():
    # ten whole-line sets meet in all 1,023 nonempty index sets, and a point
    # over all ten needs the contraction of the intersection of all ten
    cov = ten_line_sets_cover()
    cyl = CylinderSpace(cov)
    cons = build_contractions(cov, cyl.L)
    assert len(cons) == 2**10 - 1 == len(intersections(cov, 10))
    p = CylinderPoint(cyl.tau_embed(0).theta, ConePoint(0, 1.0))
    trace = full_cylinder_retraction(cyl, cons, p)
    assert trace.stages[0].simplex == tuple(range(10))
    assert trace.ends_in_base and trace.membership_ok


def test_measured_lipschitz_data_finite():
    cov = three_arc_cover()
    con, _ = _one_contraction(cov)
    lip, flow, c = measure_retraction_lipschitz(con, cov.space, 7.0,
                                                samples=100, seed=2)
    assert lip > 0.0 and math.isfinite(lip)
    assert flow >= 1.0
    assert 0.0 < c < 10.0


def _edge_case():
    """The three-arc cover, a contraction of one of its edges, the edge and a
    member of its intersection."""
    cov = three_arc_cover()
    con, rec = _one_contraction(cov)
    return cov, con, tuple(sorted(rec.indices)), min(rec.members)


@pytest.mark.parametrize("n_steps", [0, -1, 2.5])
def test_retraction_grids_need_a_positive_integer_step_count(n_steps):
    # 0, -1 and 2.5 would divide by zero, index an empty grid and fail in range
    cov, con, _sigma, _x = _edge_case()
    cyl = CylinderSpace(cov)
    p = CylinderPoint(cyl.tau_embed(4).theta, ConePoint(4, 1.0))
    message = rf"^n_steps must be a positive integer, got {n_steps}$"
    with pytest.raises(MetricError, match=message):
        full_cylinder_retraction(cyl, build_contractions(cov, cyl.L), p, n_steps=n_steps)
    with pytest.raises(MetricError, match=message):
        measure_retraction_lipschitz(con, cov.space, 7.0, n_steps=n_steps, samples=10)


@pytest.mark.parametrize("s", [1.5, -0.5, math.nan])
def test_homotopies_reject_a_parameter_outside_the_unit_interval(s):
    # homotopy_F at s = 1.5 would lift a point at height 3 to 9, past the apex
    cov, con, sigma, x = _edge_case()
    theta = BarycentricPoint({j: 0.5 for j in sigma})
    p = ConePoint(x, 3.0)
    message = rf"^homotopy parameter {s} outside \[0, 1\]$"
    with pytest.raises(MetricError, match=message):
        homotopy_F(CylinderPoint(theta, p), s, 7.0)
    with pytest.raises(MetricError, match=message):
        homotopy_H(PartitionOfUnity(cov), theta, x, s)
    with pytest.raises(MetricError, match=message):
        cone_retraction_phi(con, p, s)
    with pytest.raises(MetricError, match=message):
        simplexwise_retraction(sigma, con, theta, p, s, 7.0)


@pytest.mark.parametrize("t", [-1.0, 8.0, math.nan])
def test_cone_retraction_rejects_a_height_outside_the_cone(t):
    # at s = 0.5 the heights -1 and 8 would land at -0.75 and 6.0
    _cov, con, _sigma, x = _edge_case()
    with pytest.raises(MetricError, match=rf"^height {t} outside \[0, 7.0\]$"):
        cone_retraction_phi(con, ConePoint(x, t), 0.5)


def test_contraction_rejects_a_time_that_is_not_a_number():
    _cov, con, _sigma, _x = _edge_case()
    for x in sorted(con.members):
        with pytest.raises(MetricError, match=r"^contraction time nan is not a number$"):
            con(x, math.nan)
