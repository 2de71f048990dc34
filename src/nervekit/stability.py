"""Stability across Gromov-Hausdorff approximations and chart gluing.

Two pipelines live here.  The first lifts a good cover along an approximation
to a nearby space and turns the isomorphic nerves into a homotopy equivalence
realized on the samples, with measured displacement bounds.  The second blends
an almost-isometric map on a closed domain into a globally defined map using
strainer-chart coordinates and iterative cutoff gluing.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cover import Cover, CoverError, _net, intersections
from .metric import (ApproximationReport, FiniteMetricSpace, MetricError,
                     PointMap, _check_points, _nn_spacing, check_strainer)
from .nerve import DEFAULT_MAX_DIM, nerve_of, require_full_nerve
from .partition import PartitionOfUnity


@dataclass(frozen=True)
class LiftedCover:
    source: Cover
    target: Cover
    vertex_bijection: tuple
    approximation: ApproximationReport


def lift_cover(cover: Cover, approx: ApproximationReport,
               max_dim: int = DEFAULT_MAX_DIM) -> LiftedCover:
    """Transport a cover along an approximation: centers go to their images,
    radii grow by twice the approximation error, and the nerve must come
    back isomorphic.  A report that is not ``ok`` is rejected.

    The enlargement keeps every transported member inside its transported
    set; any larger margin would risk creating intersections absent in the
    source nerve.  Both covers' multiplicities must stay within max_dim + 1,
    so that the compared nerves are whole.
    """
    if not approx.ok:
        raise MetricError(
            f"map is not an {approx.epsilon}-approximation: distortion "
            f"{approx.distortion}, defect {approx.defect}; both must be "
            "below epsilon"
        )
    require_full_nerve(cover, max_dim)
    mesh = cover.mesh()
    if not approx.epsilon < mesh / 4.0:
        raise MetricError(
            f"approximation epsilon {approx.epsilon} too coarse for cover "
            f"mesh {mesh}; need epsilon < mesh/4"
        )
    pmap = approx.map
    if pmap.source is not cover.space:
        raise MetricError("approximation source does not match the cover's space")
    target_space = pmap.target
    centers = tuple(pmap(c) for c in cover.centers)
    if cover.radius_hint is not None:
        radii = cover.radius_hint
    else:
        # measured radii sit exactly on the farthest member, so nudge them
        # past it to keep strict-ball membership; a set whose members all
        # sit on its center gets the smallest open ball that holds them
        reach = np.where(cover.member, cover.space.dist[:, list(cover.centers)], -np.inf)
        radii = tuple(float(r) * (1.0 + 1e-9) if r > 0.0 else float(np.nextafter(0.0, 1.0))
                      for r in reach.max(axis=0))
    pad = 2.0 * max(approx.distortion, approx.defect)
    sets = tuple(
        target_space.ball(c, r + pad) for c, r in zip(centers, radii)
    )
    try:
        lifted = Cover(target_space, sets, centers,
                       radius_hint=tuple(r + pad for r in radii))
    except CoverError as exc:
        raise MetricError(f"lifted sets are not a cover: {exc}") from exc
    require_full_nerve(lifted, max_dim)
    n_src = nerve_of(cover, max_dim=max_dim)
    n_tgt = nerve_of(lifted, max_dim=max_dim)
    if n_src._levels != n_tgt._levels:
        diff = n_src.simplices ^ n_tgt.simplices
        bad = sorted(min(diff, key=lambda s: (len(s), sorted(s))))
        raise MetricError(f"lift does not preserve the nerve: simplex {bad} differs")
    return LiftedCover(cover, lifted, tuple(range(cover.n_sets)), approx)


@dataclass(frozen=True)
class EquivalenceReport:
    h: PointMap
    g: PointMap
    mesh: float
    disp_h: float
    disp_g: float
    disp_roundtrip: float
    membership_ok: bool

    @property
    def within_10_mesh(self) -> bool:
        return max(self.disp_h, self.disp_g) <= 10.0 * self.mesh

    @property
    def within_100_mesh(self) -> bool:
        return self.disp_roundtrip <= 100.0 * self.mesh

    def to_json(self) -> dict:
        return {
            "h": self.h.image.tolist(),
            "g": self.g.image.tolist(),
            "mesh": self.mesh,
            "disp_h": self.disp_h,
            "disp_g": self.disp_g,
            "disp_roundtrip": self.disp_roundtrip,
            "membership_ok": self.membership_ok,
            "within_10_mesh": self.within_10_mesh,
            "within_100_mesh": self.within_100_mesh,
        }


def almost_inverse(pmap: PointMap) -> PointMap:
    """Discrete near-inverse: each target point goes to the source point whose
    image lies closest."""
    img = np.argmin(pmap.target.dist[pmap.image], axis=0)
    return PointMap(pmap.target, pmap.source, img)


def _through_nerve(domain: Cover, codomain: Cover, max_dim: int):
    """The sample map domain -> codomain through the shared nerve: each point
    goes to the center of its support's intersection in the codomain cover,
    a point of the union of the support's sets.  Also returns whether every
    image lies in that union."""
    pou = PartitionOfUnity(domain)
    zeta = {rec.indices: rec.center for rec in intersections(codomain, max_dim + 1)}
    img = np.array([zeta[pou.support(x)] for x in range(domain.space.n)])
    in_support = codomain.member[img] & (pou.values != 0)
    return PointMap(domain.space, codomain.space, img), bool(in_support.any(axis=1).all())


def homotopy_equivalence_via_nerves(lift: LiftedCover,
                                    max_dim: int = DEFAULT_MAX_DIM) -> EquivalenceReport:
    """Realize the homotopy equivalence through the isomorphic nerves on the
    samples and measure its displacement against the approximation.
    """
    src, tgt = lift.source, lift.target
    require_full_nerve(src, max_dim)
    require_full_nerve(tgt, max_dim)
    g, g_ok = _through_nerve(src, tgt, max_dim)
    h, h_ok = _through_nerve(tgt, src, max_dim)
    membership_ok = g_ok and h_ok
    phi = lift.approximation.map
    psi = almost_inverse(phi)

    mesh = src.mesh()
    disp_h = float(src.space.dist[psi.image, h.image].max())
    disp_g = float(tgt.space.dist[phi.image, g.image].max())
    disp_rt = float(tgt.space.dist[phi.image[psi.image], g.image[h.image]].max())
    return EquivalenceReport(h, g, mesh, disp_h, disp_g, disp_rt, membership_ok)


# ---------------------------------------------------------------------------
# Strainer charts and gluing
# ---------------------------------------------------------------------------


class Chart:
    """Coordinates-by-distances chart around a strained point.

    Every point of the open ball gets the tuple of distances to the first
    strainer points; the measured distortion compares coordinate gaps with
    true distances over all ball pairs.
    """

    def __init__(self, space: FiniteMetricSpace, center: int, pairs, radius: float,
                 delta: float = 0.1):
        report = check_strainer(space, center, pairs, delta)
        if not report.ok:
            raise MetricError(
                f"strainer check failed at {center}: worst margin "
                f"{report.worst_margin:.4f}"
            )
        self.space = space
        self.center = int(center)
        self.pairs = tuple(tuple(p) for p in pairs)
        self.radius = float(radius)
        self.strainer = report
        self.domain = tuple(sorted(space.ball(center, radius)))
        anchors = [a for a, _ in self.pairs]
        self.coords = space.dist[np.ix_(self.domain, anchors)].astype(float)
        self._row = {p: i for i, p in enumerate(self.domain)}
        gaps = np.sqrt(
            ((self.coords[:, None, :] - self.coords[None, :, :]) ** 2).sum(axis=2)
        )
        true = space.dist[np.ix_(self.domain, self.domain)]
        self.distortion = float(np.abs(gaps - true).max())
        self.mesh_space = _nn_spacing(true)
        self.mesh_coords = _nn_spacing(gaps)

    def coord(self, x: int) -> np.ndarray:
        if x not in self._row:
            raise MetricError(f"point {x} outside chart around {self.center}")
        return self.coords[self._row[x]]

    def invert(self, vec: np.ndarray) -> int:
        """Nearest-coordinate preimage with an ambiguity guard: two far-apart
        candidates at nearly the same coordinate distance are rejected."""
        gaps = np.sqrt(((self.coords - vec) ** 2).sum(axis=1))
        order = np.argsort(gaps, kind="stable")
        best = int(order[0])
        if len(order) > 1:
            second = int(order[1])
            close_coords = gaps[second] - gaps[best] <= 0.5 * self.mesh_coords
            far_apart = (
                self.space.dist[self.domain[best], self.domain[second]]
                > 2.0 * self.mesh_space
            )
            if close_coords and far_apart:
                raise MetricError(
                    f"ambiguous chart inversion near {self.domain[best]} in the "
                    f"chart around {self.center}"
                )
        return self.domain[best]


@dataclass(frozen=True)
class GluingConfig:
    """A closed domain D with its mu- and 2mu-neighborhoods, all read from
    every point's distance to D (mu everywhere for an empty D), measured once
    at construction after checking D's points and mu."""

    space: FiniteMetricSpace
    D: frozenset
    mu: float

    def __post_init__(self):
        _check_points(self.D or (), self.space.n, "D point")
        if not 0.0 < self.mu < np.inf:
            raise MetricError(f"gluing mu must be positive and finite, got {self.mu}")
        D = sorted(int(x) for x in self.D or ())
        object.__setattr__(self, "D", frozenset(D))
        to_D = self.space.dist[:, D].min(axis=1) if D else np.full(self.space.n, self.mu)
        to_D[to_D < 0.0] = 0.0  # a distance allowed just below 0 puts the point in D
        object.__setattr__(self, "_to_D", to_D)

    def dist_to_D(self, x: int) -> float:
        _check_points((x,), self.space.n, "point")
        return float(self._to_D[x])

    def d(self, x: int) -> float:
        return min(self.dist_to_D(x), self.mu)

    @cached_property
    def D0(self) -> frozenset:
        return frozenset(np.flatnonzero(self._to_D <= self.mu).tolist())

    @cached_property
    def D1(self) -> frozenset:
        return frozenset(np.flatnonzero(self._to_D <= 2.0 * self.mu).tolist())

    @property
    def blend_zone(self) -> list:
        """Points at a distance strictly between 0 and mu from D, ascending:
        where ``glue_maps`` blends."""
        return np.flatnonzero((0.0 < self._to_D) & (self._to_D < self.mu)).tolist()

    @property
    def collar(self) -> frozenset:
        """E: the gluing region between D and the outer neighborhood."""
        return self.D1 - self.D


@dataclass(frozen=True)
class GluingChart:
    center: int
    radius: float
    source_chart: Chart
    target_chart: Chart


@dataclass(frozen=True)
class ChartAtlas:
    charts: tuple
    deltaR: float

    def _to_centers(self, space: FiniteMetricSpace, region) -> np.ndarray:
        """Distances from the points of region (rows) to the chart centers."""
        return space.dist[np.ix_(list(region), [ch.center for ch in self.charts])]

    def _cutoffs(self, space: FiniteMetricSpace):
        """Per point (rows) and chart: whether the point lies in the chart's
        half-radius ball, and the chart's cutoff weight at the point."""
        dist = self._to_centers(space, range(space.n))
        radii = np.array([ch.radius for ch in self.charts])
        return dist < radii / 2.0, np.maximum(1.0 - dist / radii, 0.0)

    def covers(self, space: FiniteMetricSpace, region) -> bool:
        halves = np.array([ch.radius / 2.0 for ch in self.charts])
        return bool((self._to_centers(space, region) < halves).any(axis=1).all())

    def multiplicity(self, space: FiniteMetricSpace, region) -> int:
        near = self._to_centers(space, region) < 2.0 * self.deltaR
        return int(near.sum(axis=1).max()) if len(near) else 0


def build_gluing_atlas(source: FiniteMetricSpace, target: FiniteMetricSpace,
                       region, deltaR: float, source_pairs, target_pairs,
                       g_partial: dict, delta: float = 0.1) -> ChartAtlas:
    """Charts over a maximal (deltaR/2)-separated family of collar points,
    with target charts planted at the almost-isometric images."""
    charts = []
    for c in _net(source, sorted(region), deltaR / 2.0):
        charts.append(
            GluingChart(
                center=c,
                radius=deltaR,
                source_chart=Chart(source, c, source_pairs, 2.0 * deltaR, delta),
                target_chart=Chart(target, g_partial[c], target_pairs,
                                   2.0 * deltaR, delta),
            )
        )
    return ChartAtlas(tuple(charts), deltaR)


def _blend_in_chart(chart: Chart, a: int, b: int, weight_b: float) -> int:
    """Chart-coordinate convex combination of two points, inverted back."""
    if a == b or weight_b == 0.0:
        return a
    if weight_b == 1.0:
        return b
    vec = (1.0 - weight_b) * chart.coord(a) + weight_b * chart.coord(b)
    return chart.invert(vec)


def _fold_charts(charts, near, phi, a: int, b: int, weight_b: float):
    """Blend a and b at one point chart by chart, in atlas order, over the
    charts whose ball holds the point (``near``, the point's row of
    ``ChartAtlas._cutoffs``): each chart's blend is folded into the running
    value with its cutoff weight (``phi``) against the weight folded so far.
    None when no chart ball holds the point."""
    cur = None
    weight = 0.0
    for chart, inside, w in zip(charts, near, phi):
        if not inside:
            continue
        val = _blend_in_chart(chart, a, b, weight_b)
        if cur is None:
            cur, weight = val, w
        else:
            cur = _blend_in_chart(chart, cur, val, w / (weight + w))
            weight += w
    return cur


def glue_maps(f: PointMap, g: dict, config: GluingConfig, atlas: ChartAtlas):
    """Glue an almost isometry g on the inner domain into the global map f.

    The result equals g on D and f outside the mu-neighborhood of D, exactly;
    in between, values are blended chart by chart with the cutoff weights.
    Returns the glued map and a small report.
    """
    space = config.space
    target = f.target
    for x in config.D1:
        if x not in g:
            raise MetricError(f"partial map g is undefined at {x} in D1")
    collar = config.collar
    if not atlas.covers(space, config.blend_zone):
        raise MetricError("charts do not cover the gluing collar")

    charts = [ch.target_chart for ch in atlas.charts]
    near, phi = atlas._cutoffs(space)
    out = np.zeros(space.n, dtype=int)
    for x in range(space.n):
        dx = config.d(x)
        if dx == 0.0:
            out[x] = g[x]
        elif dx == config.mu:
            out[x] = f(x)
        else:
            out[x] = _fold_charts(charts, near[x], phi[x], g[x], f(x), dx / config.mu)
    glued = PointMap(space, target, out)
    report = {
        "collar_size": len(collar),
        "chart_count": len(atlas.charts),
        "chart_multiplicity": atlas.multiplicity(space, sorted(collar)),
        "max_chart_distortion": max(
            (ch.target_chart.distortion for ch in atlas.charts), default=0.0
        ),
    }
    return glued, report


def default_rho(config: GluingConfig):
    """Cutoff for homotopy gluing: 0 on D always and on the mu-neighborhood
    for late times, 1 outside the 2mu-neighborhood."""
    d0 = sorted(config.D0)  # never empty: it holds D, or every point when D is empty
    s1 = np.minimum(config.space.dist[:, d0].min(axis=1) / config.mu, 1.0)
    # a point of D0 lies at distance 0 from it, but a distance allowed within
    # METRIC_TOL below 0 would make its cutoff negative
    s1[d0] = 0.0
    s0 = np.minimum(config._to_D / config.mu, 1.0)

    def rho(x: int, t: float) -> float:
        _check_points((x,), config.space.n, "point")
        if t >= 0.5:
            ramp = 0.0
        elif t <= 0.25:
            ramp = 1.0
        else:
            ramp = (0.5 - t) * 4.0
        return max(float(s1[x]), float(s0[x]) * ramp)

    return rho


def glue_homotopies(F, H, config: GluingConfig, atlas: ChartAtlas, t_grid):
    """Blend two sampled homotopies on the source space with the cutoff
    ``default_rho(config)``.

    F(x, k) and H(x, k) give point indices for each grid index k; H need only
    be defined on the 2mu-neighborhood of D.  The output agrees with H on D
    and with F outside the 2mu-neighborhood at every grid time, exactly.
    """
    space = config.space
    rho = default_rho(config)
    d1 = config.D1
    charts = [ch.source_chart for ch in atlas.charts]
    near, phi = atlas._cutoffs(space)
    out = np.zeros((space.n, len(t_grid)), dtype=int)
    for k, t in enumerate(t_grid):
        for x in range(space.n):
            if x in config.D:
                out[x, k] = H(x, k)
                continue
            if x not in d1:
                out[x, k] = F(x, k)
                continue
            r = rho(x, t)
            h, f = H(x, k), F(x, k)
            cur = _fold_charts(charts, near[x], phi[x], h, f, r)
            if cur is None:
                # collar point outside every chart ball: fall back to the blend
                # without chart transport
                cur = h if r < 0.5 else f
            out[x, k] = cur
    return out
