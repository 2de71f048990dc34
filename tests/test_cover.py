import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import octahedral_cover, three_arc_cover
from nervekit.cover import (Cover, CoverError, build_ball_cover,
                            goodness_report, greedy_net, intersections)
from nervekit.metric import FiniteMetricSpace
from nervekit.samples import circle_space, circle_spacing, line_space


def test_cover_requires_coverage():
    sp = line_space(4)
    with pytest.raises(CoverError, match="not covered"):
        Cover(sp, (frozenset({0, 1}),), (0,))


def test_cover_requires_center_membership():
    sp = line_space(4)
    with pytest.raises(CoverError, match="not a member"):
        Cover(sp, (frozenset({0, 1}), frozenset({2, 3})), (0, 1))


def test_multiplicity_bound_enforced():
    sp = line_space(3)
    sets = (frozenset({0, 1, 2}), frozenset({0, 1, 2}))
    with pytest.raises(CoverError, match="multiplicity"):
        Cover(sp, sets, (0, 1), multiplicity_bound=1)


def test_greedy_net_is_separated_and_maximal():
    sp = circle_space(32)
    sep = 0.5
    net = greedy_net(sp, sep, seed=2)
    for i, x in enumerate(net):
        for y in net[:i]:
            assert sp.dist[x, y] >= sep
    # maximality: every point is within sep of the net
    assert all(min(sp.dist[x, y] for y in net) < sep for x in range(sp.n))


def test_build_ball_cover_covers_circle():
    n = 16
    sp = circle_space(n)
    radius = 2.5 * circle_spacing(n)
    cov = build_ball_cover(sp, radius, seed=0)
    assert cov.multiplicities().min() >= 1
    assert cov.multiplicities().max() <= 3


def test_build_ball_cover_rejects_bad_radius():
    with pytest.raises(CoverError, match="positive"):
        build_ball_cover(line_space(4), 0.0)


def test_membership_and_complement_distance():
    cov = three_arc_cover()
    clearance = cov.clearance
    for x in range(cov.space.n):
        mem = cov.membership(x)
        assert mem, f"point {x} uncovered"
        for j in mem:
            assert clearance[x, j] == oracles.complement_distance(cov, j, x)
            assert clearance[x, j] > 0.0 or x != cov.centers[j]


def test_whole_space_set_complement_distance():
    sp = line_space(3)
    cov = Cover(sp, (frozenset({0, 1, 2}),), (1,))
    assert oracles.complement_distance(cov, 0, 0) == sp.diameter() + 1.0
    assert cov.clearance[0, 0] == np.inf


def test_three_arc_intersections_orders():
    cov = three_arc_cover()
    recs = intersections(cov, 3)
    orders = sorted(len(r.indices) for r in recs)
    # pairwise overlaps only, the triple intersection is empty
    assert orders == [1, 1, 1, 2, 2, 2]
    for rec in recs:
        assert rec.center in rec.members
        if len(rec.indices) == 1:
            (j,) = rec.indices
            assert rec.center == cov.centers[j]


def test_intersection_center_maximizes_clearance():
    cov = three_arc_cover()
    for rec in intersections(cov, 2):
        if len(rec.indices) == 1:
            continue
        comp = [i for i in range(cov.space.n) if i not in rec.members]
        clearance = {
            x: float(cov.space.dist[x, comp].min()) for x in rec.members
        }
        assert clearance[rec.center] == max(clearance.values())


def test_intersections_memory_follows_the_distinct_member_sets():
    # 13 whole-space sets meet in 8,191 index sets but in one member set, so
    # one center search over 2,000 points serves every record
    sp = line_space(2000)
    cov = Cover(sp, (frozenset(range(sp.n)),) * 13, (0,) * 13)
    tracemalloc.start()
    try:
        recs = intersections(cov, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(recs) == 2**13 - 1
    assert all(rec.center == 0 for rec in recs)
    assert peak < 32 * 2**20


def test_cover_json_roundtrip(tmp_path):
    cov = three_arc_cover()
    path = tmp_path / "cover.json"
    cov.save(str(path))
    back = Cover.load(cov.space, str(path))
    assert back.sets == cov.sets
    assert back.centers == cov.centers
    assert back.radius_hint == cov.radius_hint


def test_goodness_report_on_good_covers():
    for cov in (three_arc_cover(), octahedral_cover()):
        report = goodness_report(cov)
        assert report.ok
        obj = report.to_json()
        assert obj["advisory"] is True and obj["pass"] is True


def test_goodness_report_flags_annular_set():
    # one set equal to the whole circle: its proxy homology is a loop
    sp = circle_space(24)
    cov = Cover(sp, (frozenset(range(24)),), (0,))
    report = goodness_report(cov)
    assert not report.ok
    bad = report.entries[0]
    assert bad.betti[1] >= 1


def test_mesh_is_max_set_diameter():
    cov = three_arc_cover()
    expected = max(
        cov.space.dist[np.ix_(sorted(s), sorted(s))].max() for s in cov.sets
    )
    assert cov.mesh() == float(expected)


@pytest.mark.parametrize("bad", [4, -1, 1.5, True, "2"])
def test_cover_rejects_member_outside_the_space(bad):
    sp = line_space(4)
    with pytest.raises(CoverError, match=f"set 1 member {bad!r} is not a point"):
        Cover(sp, (frozenset({0, 1, 2, 3}), frozenset({2, bad})), (0, 2))


def test_cover_rejects_radius_hint_of_wrong_length():
    sp = line_space(4)
    sets = (frozenset({0, 1}), frozenset({1, 2, 3}))
    with pytest.raises(CoverError, match="2 sets but 1 radius hint"):
        Cover(sp, sets, (0, 2), radius_hint=(1.5,))


@pytest.mark.parametrize("bad", [-1, 4])
def test_membership_rejects_point_outside_the_space(bad):
    cov = Cover(line_space(4), (frozenset({0, 1}), frozenset({1, 2, 3})), (0, 2))
    with pytest.raises(CoverError, match=f"point {bad} is not a point index"):
        cov.membership(bad)


@pytest.mark.parametrize("radius", [-1.0, math.nan])
def test_build_ball_cover_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(CoverError, match="^radius must be positive$"):
        build_ball_cover(line_space(4), radius)


def test_goodness_report_rejects_an_intersection_of_coincident_points():
    # sets 1 and 2 are pairs of copies; the first of them in record order is named
    sp = FiniteMetricSpace.from_coords([[0.0, 0.0], [3.0, 0.0], [3.0, 0.0], [0.0, 0.0],
                                        [6.0, 0.0]])
    cov = Cover(sp, (frozenset(range(5)), frozenset({1, 2}), frozenset({0, 3})), (0, 1, 3))
    with pytest.raises(CoverError, match=r"^intersection of sets \[1\] has no goodness "
                       r"proxy scale: each of its members coincides with another, as "
                       r"points 1 and 2 do \(distance 0\.0\)$"):
        goodness_report(cov)


def test_goodness_report_keeps_sets_with_some_coincident_points():
    # the set {0, 1, 2} has spacing 0.5 from point 2; {1, 2} alone would have 0
    sp = FiniteMetricSpace.from_coords([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
    report = goodness_report(Cover(sp, (frozenset({0, 1, 2}),), (0,)))
    assert [(e.indices, e.proxy_scale, e.betti, e.ok) for e in report.entries] == [
        ((0,), 1.0, (1, 0, 0), True)]
