import math

import numpy as np
import pytest

from conftest import ten_line_sets_cover, three_arc_cover
from nervekit.cone import (ConePoint, CylinderPoint, CylinderSpace,
                           cone_distance, validate_height_scale, DEFAULT_L)
from nervekit.complex import BarycentricPoint, realization_distance
from nervekit.metric import MetricError
from nervekit.samples import circle_space, line_space, random_point_space


def test_height_scale_guard():
    with pytest.raises(MetricError, match="exceed 6"):
        validate_height_scale(6.0)
    validate_height_scale(6.5)


def test_cone_distance_rejects_out_of_range_height():
    sp = circle_space(8)
    with pytest.raises(MetricError, match="outside"):
        cone_distance(ConePoint(0, -0.1), ConePoint(1, 0.0), sp)


@pytest.mark.parametrize("base", [-1, 4])
def test_cone_distance_names_a_bad_base(base):
    # -1 used to measure from base 3, and 4 to raise a bare IndexError
    sp = line_space(4)
    bad, good = ConePoint(base, 0.0), ConePoint(0, 1.0)
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(MetricError) as exc:
            cone_distance(a, b, sp)
        assert str(exc.value) == f"cone base {base} is not a point index in [0, 4)"


def test_apex_points_identified():
    sp = circle_space(8)
    L = DEFAULT_L
    a = ConePoint(0, L)
    b = ConePoint(5, L)
    assert cone_distance(a, b, sp, L) == 0.0


def test_base_slice_recovers_chord_up_to_angle_cap():
    sp = circle_space(8)
    L = DEFAULT_L
    a, b = ConePoint(0, 0.0), ConePoint(1, 0.0)
    ang = sp.dist[0, 1]
    expected = math.sqrt(2.0 * L * L * (1.0 - math.cos(ang)))
    assert cone_distance(a, b, sp, L) == pytest.approx(expected)


def test_cone_metric_axioms_random_triples():
    sp = random_point_space(12, seed=4)
    L = DEFAULT_L
    rng = np.random.default_rng(11)
    for _ in range(10000):
        pts = [
            ConePoint(int(rng.integers(sp.n)), float(rng.uniform(0.0, L)))
            for _ in range(3)
        ]
        d01 = cone_distance(pts[0], pts[1], sp, L)
        d12 = cone_distance(pts[1], pts[2], sp, L)
        d02 = cone_distance(pts[0], pts[2], sp, L)
        assert d01 >= 0.0
        assert d01 == cone_distance(pts[1], pts[0], sp, L)
        assert d02 <= d01 + d12 + 1e-9


def test_cylinder_membership_enforced():
    cov = three_arc_cover()
    cyl = CylinderSpace(cov)
    # a point of set 0 that is not in set 1
    lone = next(x for x in sorted(cov.sets[0]) if x not in cov.sets[1])
    bad = CylinderPoint(
        BarycentricPoint({0: 0.5, 1: 0.5}), ConePoint(lone, 1.0)
    )
    assert not cyl.check_membership(bad)
    with pytest.raises(MetricError, match="membership violation"):
        cyl.require(bad)


def test_tau_embed_lands_on_base_slice():
    cov = three_arc_cover()
    cyl = CylinderSpace(cov)
    for x in (0, 10, 33, 60):
        p = cyl.tau_embed(x)
        assert p.cone.base == x
        assert p.cone.t == 0.0
        assert p.theta.support == cov.membership(x)


def test_psi_embed_isometric_on_apex_slice():
    cov = three_arc_cover()
    cyl = CylinderSpace(cov)
    thetas = [
        BarycentricPoint({0: 1.0}),
        BarycentricPoint({0: 0.5, 1: 0.5}),
        BarycentricPoint({1: 0.25, 2: 0.75}),
        BarycentricPoint({2: 1.0}),
    ]
    for a in thetas:
        for b in thetas:
            pa, pb = cyl.psi_embed(a), cyl.psi_embed(b)
            assert cyl.distance(pa, pb) == realization_distance(a, b)


def test_psi_embed_rejects_non_simplex_support():
    cov = three_arc_cover()
    cyl = CylinderSpace(cov)
    with pytest.raises(MetricError, match="not a nerve simplex"):
        cyl.psi_embed(BarycentricPoint({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}))


def test_cylinder_distance_metric_axioms_sampled():
    cov = three_arc_cover(n=24)
    cyl = CylinderSpace(cov)
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 20:
        x = int(rng.integers(cov.space.n))
        p = cyl.tau_embed(x)
        t = float(rng.uniform(0.0, cyl.L))
        pts.append(CylinderPoint(p.theta, ConePoint(x, t)))
    for a in pts:
        for b in pts:
            dab = cyl.distance(a, b)
            assert dab == cyl.distance(b, a)
            for c in pts:
                assert dab <= cyl.distance(a, c) + cyl.distance(c, b) + 1e-9


def test_cylinder_point_json_roundtrip():
    p = CylinderPoint(BarycentricPoint({1: 0.5, 2: 0.5}), ConePoint(3, 1.25))
    back = CylinderPoint.from_json(p.to_json())
    assert back.theta == p.theta
    assert back.cone == p.cone


def test_cylinder_accepts_a_cover_of_multiplicity_ten():
    # a point in all ten sets has the 9-simplex as support, so the nerve is whole
    cyl = CylinderSpace(ten_line_sets_cover())
    assert cyl.nerve.maximal_simplices() == [tuple(range(10))]
    assert cyl.tau_embed(0).theta.support == frozenset(range(10))
