import math

import numpy as np
import pytest

from conftest import ten_line_sets_cover, three_arc_cover
from nervekit.cover import Cover
from nervekit.metric import (FiniteMetricSpace, MetricError, PointMap,
                             check_approximation)
from nervekit.nerve import nerve_of
from nervekit.samples import grid_with_strainers, line_space
from nervekit.stability import (Chart, ChartAtlas, GluingConfig,
                                LiftedCover, almost_inverse, build_gluing_atlas,
                                default_rho, glue_homotopies, glue_maps,
                                homotopy_equivalence_via_nerves, lift_cover)


def _identity_cert(cov, epsilon):
    pm = PointMap(cov.space, cov.space, np.arange(cov.space.n))
    return check_approximation(pm, epsilon)


def _perturbed_relabeled_circle(n, mesh, shift=7, seed=3, scale=25.0):
    rng = np.random.default_rng(seed)
    ang = 2.0 * np.pi * np.arange(n) / n
    coords = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    coords = coords + rng.uniform(-1.0, 1.0, size=coords.shape) * mesh / scale
    perm = (np.arange(n) + shift) % n
    tgt = FiniteMetricSpace.from_coords(coords[perm])
    inv = np.argsort(perm)
    return tgt, inv


def test_lift_identity_gives_same_nerve():
    cov = three_arc_cover()
    cert = _identity_cert(cov, cov.mesh() / 8.0)
    lift = lift_cover(cov, cert)
    assert lift.target.space is cov.space
    assert nerve_of(lift.target).simplices == nerve_of(cov).simplices
    assert lift.target.centers == cov.centers


def test_lift_rejects_coarse_approximation():
    cov = three_arc_cover()
    cert = _identity_cert(cov, cov.mesh())
    with pytest.raises(MetricError, match="mesh/4"):
        lift_cover(cov, cert)


def test_lift_rejects_failed_approximation():
    # a 1% stretch of the circle: distortion 0.02 against epsilon 0.001
    cov = three_arc_cover(64)
    tgt = FiniteMetricSpace(cov.space.dist * 1.01)
    report = check_approximation(PointMap(cov.space, tgt, np.arange(64)), 0.001)
    assert not report.ok
    with pytest.raises(MetricError, match=r"not an 0\.001-approximation: "
                       r"distortion 0\.02\d*, defect 0\.0;"):
        lift_cover(cov, report)


def test_lift_perturbed_relabeled_circle():
    n = 64
    cov = three_arc_cover(n)
    mesh = cov.mesh()
    tgt, inv = _perturbed_relabeled_circle(n, mesh)
    cert = check_approximation(PointMap(cov.space, tgt, inv), mesh / 5.0)
    lift = lift_cover(cov, cert)
    assert nerve_of(lift.target).simplices == nerve_of(cov).simplices
    for j in range(cov.n_sets):
        assert lift.target.centers[j] == inv[cov.centers[j]]


def test_lift_error_names_offending_simplex():
    # two disjoint ball sets on a line; pulling one point toward the gap
    # makes the padded lifted balls overlap, creating a new edge
    from nervekit.samples import line_space

    src = line_space(6)
    cov = Cover(
        src,
        (src.ball(1, 1.5), src.ball(4, 1.5)),
        (1, 4),
        radius_hint=(1.5, 1.5),
    )
    moved = [[0.0], [1.0], [2.0], [2.6], [4.0], [5.0]]
    tgt = FiniteMetricSpace.from_coords(moved)
    cert = check_approximation(PointMap(src, tgt, np.arange(6)), 0.45)
    assert cert.ok
    with pytest.raises(MetricError, match="simplex"):
        lift_cover(cov, cert)


def test_equivalence_identity_lift_displacements():
    cov = three_arc_cover()
    mesh = cov.mesh()
    cert = _identity_cert(cov, mesh / 8.0)
    report = homotopy_equivalence_via_nerves(lift_cover(cov, cert))
    assert report.membership_ok
    assert report.within_10_mesh and report.within_100_mesh
    assert report.disp_h <= 10.0 * mesh


def test_equivalence_single_set_cover():
    from nervekit.samples import line_space

    sp = line_space(6)
    cov = Cover(sp, (frozenset(range(6)),), (2,))
    cert = PointMap(sp, sp, np.arange(6))
    cert = check_approximation(cert, 0.1)
    report = homotopy_equivalence_via_nerves(lift_cover(cov, cert))
    # one nerve vertex: h is constant at the intersection center
    assert len(set(report.h.image.tolist())) == 1
    assert report.membership_ok


def test_lift_accepts_a_cover_of_multiplicity_ten():
    # ten sets that all meet span the 9-simplex, whole in both nerves
    cov = ten_line_sets_cover()
    lift = lift_cover(cov, _identity_cert(cov, 0.5))
    assert nerve_of(lift.target).maximal_simplices() == [tuple(range(10))]
    assert lift.vertex_bijection == tuple(range(10))


def test_equivalence_accepts_a_cover_of_multiplicity_ten():
    cov = ten_line_sets_cover()
    lift = LiftedCover(cov, cov, tuple(range(cov.n_sets)), _identity_cert(cov, 0.5))
    report = homotopy_equivalence_via_nerves(lift)
    assert report.membership_ok
    # every point's support is all ten sets, whose intersection's center is 0
    assert report.h.image.tolist() == report.g.image.tolist() == [0] * 12


def test_equivalence_names_a_support_missing_from_the_other_nerve():
    # a hand-built lift whose covers' nerves differ: {0, 1} meets in the
    # source at points 5 and 6, and not in the target
    space = line_space(12)
    src = Cover(space, (frozenset(range(7)), frozenset(range(5, 12))), (0, 11))
    tgt = Cover(space, (frozenset(range(6)), frozenset(range(6, 12))), (0, 11))
    lift = LiftedCover(src, tgt, (0, 1), _identity_cert(src, 0.5))
    with pytest.raises(MetricError, match=r"^support \[0, 1\] of point 5 is no "
                                          r"simplex of the other cover's nerve"):
        homotopy_equivalence_via_nerves(lift)


def test_almost_inverse_of_bijection():
    cov = three_arc_cover(16)
    tgt, inv = _perturbed_relabeled_circle(16, cov.mesh(), scale=200.0)
    pm = PointMap(cov.space, tgt, inv)
    psi = almost_inverse(pm)
    assert all(psi(pm(x)) == x for x in range(16))


# ---------------------------------------------------------------------------
# charts and gluing
# ---------------------------------------------------------------------------


def _patch():
    space, pairs = grid_with_strainers(9, spacing=1.0)
    return space, pairs


def test_strainer_chart_roundtrip():
    space, pairs = _patch()
    chart = Chart(space, 40, pairs, radius=4.0, delta=0.1)
    for x in chart.domain:
        assert chart.invert(chart.coord(x)) == x
    assert chart.distortion < 0.2


def test_chart_rejects_weak_strainer():
    space, pairs = _patch()
    bad = [(0, 1), pairs[1]]  # two adjacent grid corners are no strainer
    with pytest.raises(MetricError, match="strainer"):
        Chart(space, 40, bad, radius=3.0, delta=0.1)


def test_chart_outside_domain_error():
    space, pairs = _patch()
    chart = Chart(space, 40, pairs, radius=2.0, delta=0.1)
    far = space.n - 1
    with pytest.raises(MetricError, match="outside chart"):
        chart.coord(far)


def _glue_setup(mu=2.0, deltaR=3.0):
    space, pairs = _patch()
    m = 9
    D = frozenset(i * m + j for i in range(3, 6) for j in range(3, 6))
    config = GluingConfig(space, D, mu)
    g = {x: x for x in config.D1}
    f = PointMap(space, space, np.arange(space.n))
    blend = [x for x in range(space.n) if 0.0 < config.d(x) < config.mu]
    atlas = build_gluing_atlas(space, space, blend, deltaR, pairs, pairs, g,
                               delta=0.3)
    return space, pairs, config, g, f, atlas


def test_gluing_config_nesting():
    space, _, config, _, _, _ = _glue_setup()
    assert config.D <= config.D0 <= config.D1
    for x in config.D:
        assert config.d(x) == 0.0
    for x in range(space.n):
        if x not in config.D0:
            assert config.d(x) == config.mu


def test_glue_identity_recovers_identity():
    space, _, config, g, f, atlas = _glue_setup()
    glued, report = glue_maps(f, g, config, atlas)
    assert np.array_equal(glued.image, np.arange(space.n))
    assert report["chart_count"] == len(atlas.charts)


def test_glue_exactness_on_plateaus():
    space, pairs, config, g, f, atlas = _glue_setup()
    m = 9
    # shift the inner map east by one column where possible
    g2 = {
        x: x + 1 if (x < m * m and x % m < m - 1) else x
        for x in config.D1
    }
    glued, _ = glue_maps(f, g2, config, atlas)
    for x in config.D:
        assert glued(x) == g2[x]
    for x in range(space.n):
        if x not in config.D0:
            assert glued(x) == f(x)


def test_glue_blend_distortion_bounded():
    space, pairs, config, g, f, atlas = _glue_setup()
    m = 9
    g2 = {
        x: x + 1 if (x < m * m and x % m < m - 1) else x
        for x in config.D1
    }
    glued, report = glue_maps(f, g2, config, atlas)
    idx = sorted(config.D0)
    img = [glued(x) for x in idx]
    gap = np.abs(
        space.dist[np.ix_(img, img)] - space.dist[np.ix_(idx, idx)]
    ).max()
    assert gap <= 2.0 * report["max_chart_distortion"] + 1.0


def test_glue_requires_g_on_D1():
    space, _, config, g, f, atlas = _glue_setup()
    partial = dict(g)
    partial.pop(sorted(config.D1)[0])
    with pytest.raises(MetricError, match="undefined"):
        glue_maps(f, partial, config, atlas)


def test_default_rho_plateaus():
    space, _, config, _, _, _ = _glue_setup()
    rho = default_rho(config)
    for x in config.D:
        for t in (0.0, 0.3, 0.7, 1.0):
            assert rho(x, t) == 0.0
    for x in range(space.n):
        if x not in config.D1:
            for t in (0.0, 0.5, 1.0):
                assert rho(x, t) == 1.0
        if x in config.D0:
            assert rho(x, 0.75) == 0.0


def _drifting_homotopies():
    """F stays put; the inner homotopy H drifts east at late times."""
    m = 9

    def F(x, k):
        return x

    def H(x, k):
        if k >= 2 and x < m * m and x % m < m - 1:
            return x + 1
        return x

    return F, H


def test_glue_homotopies_plateaus():
    space, pairs, config, g, f, atlas = _glue_setup()
    n = space.n
    t_grid = [k / 4 for k in range(5)]
    F, H = _drifting_homotopies()
    G = glue_homotopies(F, H, config, atlas, t_grid)
    for k in range(5):
        for x in config.D:
            assert G[x, k] == H(x, k)
        for x in range(n):
            if x not in config.D1:
                assert G[x, k] == F(x, k)


def test_glue_homotopies_blend_in_source_charts():
    # the homotopies move source points, so a target that is a scaled copy
    # of the source grid, with smaller target charts, changes nothing
    space, pairs, config, g, f, atlas = _glue_setup()
    blend = [x for x in range(space.n) if 0.0 < config.d(x) < config.mu]
    scaled = FiniteMetricSpace(1.5 * space.dist)
    scaled_atlas = build_gluing_atlas(space, scaled, blend, 3.0, pairs, pairs, g,
                                      delta=0.3)
    for same, other in zip(atlas.charts, scaled_atlas.charts):
        assert same.source_chart.domain == other.source_chart.domain
        assert len(other.target_chart.domain) < len(same.target_chart.domain)
    t_grid = [k / 4 for k in range(5)]
    F, H = _drifting_homotopies()
    G = glue_homotopies(F, H, config, scaled_atlas, t_grid)
    assert np.array_equal(G, glue_homotopies(F, H, config, atlas, t_grid))
    assert any(G[x, 4] != x for x in config.collar - config.D)


@pytest.mark.parametrize("bad", [85, 200, -1])
def test_gluing_config_rejects_domain_point_outside_the_space(bad):
    space, _ = _patch()
    with pytest.raises(MetricError, match=f"D point {bad} is not a point"):
        GluingConfig(space, frozenset({40, bad}), 2.0)


@pytest.mark.parametrize("mu", [0.0, -1.0, math.inf, math.nan])
def test_gluing_config_rejects_bad_mu(mu):
    space, _ = _patch()
    with pytest.raises(MetricError, match=f"mu must be positive and finite, got {mu}"):
        GluingConfig(space, frozenset({40}), mu)


@pytest.mark.parametrize("bad", [200, -1])
def test_strainer_check_rejects_point_outside_the_space(bad):
    space, pairs = _patch()
    with pytest.raises(MetricError, match=f"strainer point {bad} is not a point"):
        Chart(space, 40, [pairs[0], (pairs[1][0], bad)], radius=3.0)


@pytest.mark.parametrize("image, message", [
    (None, "partial map g is undefined at chart center {c}"),
    (85, "partial map g at chart center {c}: image 85 is not a point index in [0, 85)"),
], ids=["undefined", "off-target"])
def test_gluing_atlas_rejects_g_undefined_or_off_the_target_at_a_chart_center(image, message):
    # the message names g and the center, not a bare key or a strainer point
    space, pairs, config, g, _, _ = _glue_setup()
    c = config.blend_zone[0]  # the first point of the net, so a chart center
    g = {x: y for x, y in g.items() if x != c}
    if image is not None:
        g[c] = image
    with pytest.raises(MetricError) as exc:
        build_gluing_atlas(space, space, config.blend_zone, 3.0, pairs, pairs, g, delta=0.3)
    assert str(exc.value) == message.format(c=c)


@pytest.mark.parametrize("deltaR", [0.0, -1.0, math.nan])
def test_gluing_rejects_a_chart_radius_that_is_not_positive(deltaR):
    # such a deltaR would make every blend-zone point a chart center whose
    # chart has an empty domain
    space, pairs, config, g, _, _ = _glue_setup()
    with pytest.raises(MetricError) as exc:
        build_gluing_atlas(space, space, config.blend_zone, deltaR, pairs, pairs, g, delta=0.3)
    assert str(exc.value) == f"gluing deltaR must be positive, got {deltaR}"
    with pytest.raises(MetricError) as exc:
        Chart(space, 40, pairs, radius=deltaR)
    assert str(exc.value) == f"chart radius must be positive, got {deltaR}"


@pytest.mark.parametrize("bad", [-1, 6])
def test_gluing_distances_reject_point_outside_the_space(bad):
    # -1 used to read the last point's distance, 6 raised a bare IndexError
    config = GluingConfig(line_space(6), frozenset({0}), 1.0)
    rho = default_rho(config)
    for read in (config.dist_to_D, config.d, lambda x: rho(x, 0.3)):
        with pytest.raises(MetricError, match=rf"^point {bad} is not a point index in \[0, 6\)$"):
            read(bad)


def test_lift_keeps_a_set_whose_measured_radius_is_zero():
    # {0} measures radius 0; its lift is the smallest open ball around 0,
    # while the other set keeps the nudge past its farthest member
    cov = Cover(line_space(4), ({0}, {0, 1, 2, 3}), (0, 0))
    lift = lift_cover(cov, _identity_cert(cov, 0.1))
    assert lift.target.sets == cov.sets
    assert lift.target.radius_hint == (float(np.nextafter(0.0, 1.0)), 3.0 * (1.0 + 1e-9))
    assert nerve_of(lift.target).simplices == nerve_of(cov).simplices


def test_glue_takes_a_point_just_below_distance_zero_as_a_point_of_D():
    # a copy of the patch's center 40 at distance -4e-10, which validation
    # accepts: it lies in D, not in the blend zone that no chart need cover
    grid, pairs = _patch()
    n = grid.n
    dist = np.zeros((n + 1, n + 1))
    dist[:n, :n] = grid.dist
    dist[n, :n] = dist[:n, n] = grid.dist[40]
    dist[n, 40] = dist[40, n] = -4e-10
    space = FiniteMetricSpace(dist)
    D = frozenset(i * 9 + j for i in range(3, 6) for j in range(3, 6))
    config = GluingConfig(space, D, 2.0)
    g = {x: x for x in config.D1}
    f = PointMap(space, space, np.arange(space.n))
    atlas = build_gluing_atlas(space, space, config.blend_zone, 3.0, pairs, pairs, g,
                               delta=0.3)
    glued, _ = glue_maps(f, g, config, atlas)
    assert np.array_equal(glued.image, np.arange(space.n))
    assert config.dist_to_D(n) == config.d(n) == 0.0
