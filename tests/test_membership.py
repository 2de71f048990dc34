"""The cover's membership matrix and clearances, cylinder membership, the
gluing domain's distance field and the array forms of the chart atlas and
stability maps, against the per-point and per-set scans in ``oracles.py``.  Floats must match bit
for bit.  The spaces repeat points, at distance 0 or just below it (within
``METRIC_TOL``), so that ties, zero clearances and empty regions occur."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (line_pair_cover, octahedral_cover, shared_members_cover,
                      spaces, three_arc_cover, tree_ball_cover)
from nervekit.cone import ConePoint, CylinderPoint, CylinderSpace
from nervekit.complex import BarycentricPoint
from nervekit.cover import Cover, CoverError, _net, build_ball_cover, greedy_net
from nervekit.metric import (FiniteMetricSpace, MetricError, PointMap,
                             check_approximation)
from nervekit.partition import PartitionOfUnity
from nervekit.stability import (ChartAtlas, GluingChart, GluingConfig,
                                LiftedCover, almost_inverse, default_rho,
                                homotopy_equivalence_via_nerves, lift_cover)

TIMES = (0.0, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0)


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@st.composite
def covers(draw):
    """Up to 8 sets: whole-space sets, single points, balls and random
    subsets around a center in the set; uncovered points join a set."""
    space = draw(spaces())
    n = space.n
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.integers(0, n, size=m).tolist()
    sets = []
    for c in centers:
        kind = draw(st.sampled_from(["whole", "single", "ball", "random"]))
        if kind == "whole":
            sets.append(set(range(n)))
        elif kind == "single":
            sets.append({c})
        elif kind == "ball":
            sets.append(set(space.ball(c, float(rng.uniform(0.0, 4.0)))) | {c})
        else:
            sets.append(set(np.flatnonzero(rng.random(n) < rng.random()).tolist()) | {c})
    for x in range(n):
        if not any(x in s for s in sets):
            sets[int(rng.integers(m))].add(x)
    return Cover(space, tuple(sets), tuple(centers))


@given(covers())
@settings(max_examples=150, deadline=None)
def test_cover_memberships_match_the_set_scans(cov):
    n = cov.space.n
    assert cov.member.shape == (n, cov.n_sets) and not cov.member.flags.writeable
    assert [frozenset(np.flatnonzero(col).tolist()) for col in cov.member.T] == list(cov.sets)
    assert cov._masks == tuple(sum(1 << x for x in s) for s in cov.sets)
    mult = cov.multiplicities()
    assert mult.dtype == oracles.multiplicities(cov).dtype
    assert np.array_equal(mult, oracles.multiplicities(cov))
    assert all(cov.membership(x) == oracles.membership(cov, x) for x in range(n))
    assert _same_bits(cov.mesh(), oracles.mesh(cov))
    assert _same_bits(cov.clearance, oracles.clearances(cov))
    assert cov.clearance is cov.clearance
    try:
        pou = PartitionOfUnity(cov)
    except CoverError:
        # a center touching its complement, or a point whose every set
        # touches the complement at distance 0 or below: a row of no weight
        assert oracles.boundary_flagged(cov) or min(
            sum(oracles.f_weight(cov, j, x) for j in range(cov.n_sets)) for x in range(n)
        ) <= 0.0
        return
    assert pou.values.tobytes() == oracles.pou_values(cov).tobytes()


@pytest.mark.parametrize("make", [three_arc_cover, octahedral_cover, line_pair_cover,
                                  tree_ball_cover, shared_members_cover])
def test_fixed_covers_match_the_set_scans(make):
    cov = make()
    assert np.array_equal(cov.multiplicities(), oracles.multiplicities(cov))
    assert all(cov.membership(x) == oracles.membership(cov, x)
               for x in range(cov.space.n))
    assert _same_bits(cov.mesh(), oracles.mesh(cov))
    assert _same_bits(cov.clearance, oracles.clearances(cov))


@given(st.one_of(covers(), st.sampled_from([100]).map(three_arc_cover)), st.data())
@settings(max_examples=100, deadline=None)
def test_cylinder_membership_matches_the_intersection_lookup(cov, data):
    # supports with vertices -1 and m, bases -1 and n, numpy integer and
    # float bases (set bitsets of 100 points exceed a numpy int64), and
    # heights outside [0, L]; a base and support taken from one point's
    # membership lie in the cylinder when the height does
    try:
        cyl = CylinderSpace(cov)
    except CoverError:  # a center on its set's edge has no partition of unity
        assume(False)
    n, m = cov.space.n, cov.n_sets
    for _ in range(10):
        if data.draw(st.booleans()):
            base = data.draw(st.integers(0, n - 1))
            supp = data.draw(st.sets(st.sampled_from(sorted(cov.membership(base))), min_size=1))
        else:
            base = data.draw(st.integers(-1, n))
            supp = data.draw(st.sets(st.integers(-1, m), min_size=1, max_size=4))
        base = data.draw(st.sampled_from([int, np.int64, np.int32, float,
                                          lambda b: b + 0.5]))(base)
        t = data.draw(st.sampled_from([-0.5, 0.0, 3.0, cyl.L, cyl.L + 0.5, np.nan]))
        p = CylinderPoint(BarycentricPoint({j: 1.0 for j in supp}), ConePoint(base, t))
        assert cyl.check_membership(p) == oracles.cylinder_membership(cov, p, cyl.L)


@given(spaces(min_n=4), st.floats(1.5, 6.0), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_measured_lift_radii_match_the_member_scan(space, radius, seed):
    # a lift along the identity has no padding, so its radius hints are the
    # measured radii of a ball cover given without its radii (a cover of
    # mesh 0 admits no approximation fine enough to lift along)
    balls = build_ball_cover(space, radius, seed)
    cov = Cover(space, balls.sets, balls.centers)
    want = oracles.measured_radii(cov)
    mesh = cov.mesh()
    assume(mesh > 0.0)
    cert = check_approximation(PointMap(space, space, np.arange(space.n)), mesh / 8.0)
    lift = lift_cover(cov, cert)
    assert _same_bits(lift.target.radius_hint, want)


@given(spaces(max_n=40), st.floats(0.0, 3.0), st.integers(0, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_net_loops_match_oracles(space, separation, seed, data):
    assert greedy_net(space, separation, seed) == oracles.greedy_net(space, separation, seed)
    region = data.draw(st.sets(st.integers(0, space.n - 1)))
    deltaR = 2.0 * separation
    assert (_net(space, sorted(region), deltaR / 2.0)
            == oracles.atlas_centers(space, region, deltaR))


@st.composite
def gluing_configs(draw):
    """D empty, one point, or a random subset; mu a distance of the space,
    half of one (so that 2 mu is one) or a random value, so that points sit
    exactly on the edge of D0 and D1."""
    space = draw(spaces())
    n = space.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["empty", "single", "random"]))
    if kind == "empty":
        D = frozenset()
    elif kind == "single":
        D = frozenset({int(rng.integers(n))})
    else:
        D = frozenset(np.flatnonzero(rng.random(n) < rng.random()).tolist())
    positive = space.dist[space.dist > 0.0]
    choice = draw(st.sampled_from(["distance", "half", "random"]))
    if choice != "random" and positive.size:
        mu = float(rng.choice(positive)) * (0.5 if choice == "half" else 1.0)
    else:
        mu = draw(st.floats(0.01, 6.0))
    return GluingConfig(space, D, mu)


@given(gluing_configs())
@settings(max_examples=200, deadline=None)
def test_gluing_config_matches_the_domain_scans(config):
    n = config.space.n
    for x in range(n):
        assert _same_bits(config.dist_to_D(x), oracles.dist_to_D(config, x))
        assert _same_bits(config.d(x), oracles.d(config, x))
    assert config.D0 == oracles.D0(config)
    assert config.D1 == oracles.D1(config)
    assert config.collar == oracles.D1(config) - config.D
    assert config.blend_zone == oracles.blend_zone(config)
    rho = default_rho(config)
    for x in range(n):
        for t in TIMES:
            assert _same_bits(rho(x, t), oracles.rho(config, x, t))


def test_gluing_config_edges_on_a_line():
    # points at exactly mu and 2 mu from D belong to D0 and D1
    space = FiniteMetricSpace.from_coords(np.arange(6.0)[:, None])
    config = GluingConfig(space, frozenset({0}), 1.0)
    assert config.D0 == frozenset({0, 1}) == oracles.D0(config)
    assert config.D1 == frozenset({0, 1, 2}) == oracles.D1(config)
    assert config.blend_zone == [] == oracles.blend_zone(config)
    empty = GluingConfig(space, frozenset(), 1.0)
    assert empty.D0 == empty.D1 == frozenset(range(6))
    assert empty.collar == empty.D1 and empty.blend_zone == []
    rho = default_rho(empty)
    assert [rho(x, t) for x in range(6) for t in (0.0, 0.75)] == [1.0, 0.0] * 6


@given(spaces(), st.data())
@settings(max_examples=150, deadline=None)
def test_chart_atlas_matches_the_chart_scans(space, data):
    n = space.n
    centers = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    radii = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                               min_size=len(centers), max_size=len(centers)))
    deltaR = data.draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    atlas = ChartAtlas(tuple(GluingChart(c, r, None, None) for c, r in zip(centers, radii)),
                       deltaR)
    region = data.draw(st.sets(st.integers(0, n - 1)))
    for reg in (region, sorted(region), []):
        assert atlas.covers(space, reg) == oracles.atlas_covers(atlas, space, reg)
        got = atlas.multiplicity(space, reg)
        assert type(got) is int and got == oracles.atlas_multiplicity(atlas, space, reg)


@given(spaces(), spaces(), st.data())
@settings(max_examples=150, deadline=None)
def test_almost_inverse_matches_the_target_scan(X, Y, data):
    image = data.draw(st.lists(st.integers(0, Y.n - 1), min_size=X.n, max_size=X.n))
    pmap = PointMap(X, Y, image)
    psi = almost_inverse(pmap)
    assert psi.source is Y and psi.target is X
    assert np.array_equal(psi.image, oracles.almost_inverse_image(pmap))


@given(covers(), st.data())
@settings(max_examples=100, deadline=None)
def test_equivalence_displacements_match_the_point_scans(cov, data):
    # the target carries the same sets on a rescaled copy of the space, and
    # the approximation is an arbitrary map, so the displacements vary
    space = cov.space
    scale = data.draw(st.sampled_from([0.5, 0.8, 1.0]))
    other = FiniteMetricSpace(scale * np.array(space.dist))
    try:
        tgt = Cover(other, cov.sets, cov.centers)
        pou_src, pou_tgt = PartitionOfUnity(cov), PartitionOfUnity(tgt)
    except CoverError:
        assume(False)
    image = data.draw(st.lists(st.integers(0, space.n - 1),
                               min_size=space.n, max_size=space.n))
    phi = PointMap(space, other, image)
    cert = check_approximation(phi, 1.0)
    report = homotopy_equivalence_via_nerves(
        LiftedCover(cov, tgt, tuple(range(cov.n_sets)), cert))
    psi = PointMap(other, space, oracles.almost_inverse_image(phi))
    want = oracles.displacements(space, other, phi, psi, report.g, report.h)
    assert _same_bits((report.disp_h, report.disp_g, report.disp_roundtrip), want)
    assert report.membership_ok == (
        oracles.through_nerve_membership(pou_src, report.g.image, tgt)
        and oracles.through_nerve_membership(pou_tgt, report.h.image, cov))


@pytest.mark.parametrize("make", [three_arc_cover, octahedral_cover, tree_ball_cover])
def test_psi_embed_base_is_the_least_common_member(make):
    cov = make()
    cyl = CylinderSpace(cov)
    for simplex in cyl.nerve.simplices:
        theta = BarycentricPoint({j: 1.0 / len(simplex) for j in simplex})
        base = cyl.psi_embed(theta).cone.base
        assert base == min(frozenset.intersection(*(cov.sets[j] for j in simplex)))
        assert type(base) is int
