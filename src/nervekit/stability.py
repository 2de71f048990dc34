"""Stability across Gromov-Hausdorff approximations and chart gluing.

Two pipelines live here.  The first lifts a good cover along an approximation
to a nearby space and turns the isomorphic nerves into a homotopy equivalence
realized on the samples, with measured displacement bounds.  The second blends
an almost-isometric map on a closed domain into a globally defined map using
strainer-chart coordinates and iterative cutoff gluing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cover import Cover, CoverError, intersections
from .metric import (FiniteMetricSpace, MetricError, PointMap,
                     ApproximationCertificate, check_approximation,
                     check_strainer)
from .nerve import nerve_of, require_full_nerve
from .partition import PartitionOfUnity


@dataclass(frozen=True)
class LiftedCover:
    source: Cover
    target: Cover
    vertex_bijection: tuple
    approximation: ApproximationCertificate


def lift_cover(cover: Cover, approx: ApproximationCertificate,
               max_dim: int = 8) -> LiftedCover:
    """Transport a cover along an approximation: centers go to their images,
    radii grow by twice the approximation error, and the nerve must come
    back isomorphic.

    The enlargement keeps every transported member inside its transported
    set; any larger margin would risk creating intersections absent in the
    source nerve.  Both covers' multiplicities must stay within max_dim + 1,
    so that the compared nerves are whole.
    """
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
        # past it to keep strict-ball membership
        radii = tuple(
            float(max(cover.space.dist[c, m] for m in s)) * (1.0 + 1e-9)
            for c, s in zip(cover.centers, cover.sets)
        )
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
    if n_src.simplices != n_tgt.simplices:
        diff = n_src.simplices ^ n_tgt.simplices
        bad = sorted(min(diff, key=lambda s: (len(s), sorted(s))))
        raise MetricError(
            f"lift does not preserve the nerve: simplex {bad} differs"
        )
    return LiftedCover(cover, lifted, tuple(range(cover.n_sets)), approx)


def _zeta_table(cover: Cover, max_dim: int = 8) -> dict:
    """Discrete homotopy inverse data: each nerve simplex gets the center of
    its intersection, a point of the union of its member sets."""
    return {rec.indices: rec.center for rec in intersections(cover, max_dim + 1)}


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
    img = np.array([
        int(np.argmin(pmap.target.dist[pmap.image, y]))
        for y in range(pmap.target.n)
    ])
    return PointMap(pmap.target, pmap.source, img)


def homotopy_equivalence_via_nerves(lift: LiftedCover, max_dim: int = 8) -> EquivalenceReport:
    """Realize the homotopy equivalence through the isomorphic nerves on the
    samples and measure its displacement against the approximation.
    """
    src, tgt = lift.source, lift.target
    require_full_nerve(src, max_dim)
    require_full_nerve(tgt, max_dim)
    pou_src = PartitionOfUnity(src)
    pou_tgt = PartitionOfUnity(tgt)
    zeta_src = _zeta_table(src, max_dim)
    zeta_tgt = _zeta_table(tgt, max_dim)
    phi = lift.approximation.map
    psi = almost_inverse(phi)

    membership_ok = True
    h_img = np.zeros(tgt.space.n, dtype=int)
    for y in range(tgt.space.n):
        supp = pou_tgt.support(y)
        h_img[y] = zeta_src[supp]
        union = frozenset().union(*[src.sets[j] for j in supp])
        if h_img[y] not in union:
            membership_ok = False
    g_img = np.zeros(src.space.n, dtype=int)
    for x in range(src.space.n):
        supp = pou_src.support(x)
        g_img[x] = zeta_tgt[supp]
        union = frozenset().union(*[tgt.sets[j] for j in supp])
        if g_img[x] not in union:
            membership_ok = False

    h = PointMap(tgt.space, src.space, h_img)
    g = PointMap(src.space, tgt.space, g_img)
    mesh = src.mesh()
    disp_h = max(
        float(src.space.dist[psi(y), h(y)]) for y in range(tgt.space.n)
    )
    disp_g = max(
        float(tgt.space.dist[phi(x), g(x)]) for x in range(src.space.n)
    )
    disp_rt = max(
        float(tgt.space.dist[phi(psi(y)), g(h(y))]) for y in range(tgt.space.n)
    )
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
        if len(self.domain) > 1:
            off = true.copy()
            np.fill_diagonal(off, np.inf)
            self.mesh_space = float(off.min(axis=1).max())
            gaps_off = gaps.copy()
            np.fill_diagonal(gaps_off, np.inf)
            self.mesh_coords = float(gaps_off.min(axis=1).max())
        else:
            self.mesh_space = 0.0
            self.mesh_coords = 0.0

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


def strainer_chart(space: FiniteMetricSpace, center: int, pairs, radius: float,
                   delta: float = 0.1) -> Chart:
    return Chart(space, center, pairs, radius, delta)


@dataclass(frozen=True)
class GluingConfig:
    """A closed domain D with its mu- and 2mu-neighborhoods."""

    space: FiniteMetricSpace
    D: frozenset
    mu: float

    def __post_init__(self):
        if not self.D:
            object.__setattr__(self, "D", frozenset())
        else:
            object.__setattr__(self, "D", frozenset(int(x) for x in self.D))

    def dist_to_D(self, x: int) -> float:
        if not self.D:
            return self.mu
        return float(self.space.dist[x, sorted(self.D)].min())

    def d(self, x: int) -> float:
        return min(self.dist_to_D(x), self.mu)

    @property
    def D0(self) -> frozenset:
        return frozenset(
            x for x in range(self.space.n) if self.dist_to_D(x) <= self.mu
        )

    @property
    def D1(self) -> frozenset:
        return frozenset(
            x for x in range(self.space.n) if self.dist_to_D(x) <= 2.0 * self.mu
        )

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

    def cutoff(self, space: FiniteMetricSpace, x: int) -> float:
        return max(0.0, 1.0 - float(space.dist[x, self.center]) / self.radius)

    def in_ball(self, space: FiniteMetricSpace, x: int) -> bool:
        return float(space.dist[x, self.center]) < self.radius / 2.0


@dataclass(frozen=True)
class ChartAtlas:
    charts: tuple
    deltaR: float

    def covers(self, space: FiniteMetricSpace, region) -> bool:
        return all(
            any(ch.in_ball(space, x) for ch in self.charts) for x in region
        )

    def multiplicity(self, space: FiniteMetricSpace, region) -> int:
        if not region:
            return 0
        return max(
            sum(1 for ch in self.charts if space.dist[x, ch.center] < 2.0 * self.deltaR)
            for x in region
        )


def build_gluing_atlas(source: FiniteMetricSpace, target: FiniteMetricSpace,
                       region, deltaR: float, source_pairs, target_pairs,
                       g_partial: dict, delta: float = 0.1) -> ChartAtlas:
    """Charts over a maximal (deltaR/2)-separated family of collar points,
    with target charts planted at the almost-isometric images."""
    centers = []
    for x in sorted(region):
        if all(source.dist[x, c] >= deltaR / 2.0 for c in centers):
            centers.append(x)
    charts = []
    for c in centers:
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
    blend_zone = [x for x in range(space.n) if 0.0 < config.d(x) < config.mu]
    if blend_zone and not atlas.covers(space, blend_zone):
        raise MetricError("charts do not cover the gluing collar")

    def h_single(ch: GluingChart, x: int) -> int:
        dx = config.d(x)
        if dx == 0.0:
            return g[x]
        if dx == config.mu:
            return f(x)
        return _blend_in_chart(ch.target_chart, g[x], f(x), dx / config.mu)

    out = np.zeros(space.n, dtype=int)
    for x in range(space.n):
        dx = config.d(x)
        if dx == 0.0:
            out[x] = g[x]
            continue
        if dx == config.mu:
            out[x] = f(x)
            continue
        cur = None
        weight = 0.0
        for ch in atlas.charts:
            if not ch.in_ball(space, x):
                continue
            hi = h_single(ch, x)
            phi = ch.cutoff(space, x)
            if cur is None:
                cur, weight = hi, phi
            else:
                cur = _blend_in_chart(
                    ch.target_chart, cur, hi, phi / (weight + phi)
                )
                weight += phi
        out[x] = cur
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
    d0 = config.D0

    def rho(x: int, t: float) -> float:
        s1 = 0.0 if x in d0 else min(
            min(float(config.space.dist[x, y]) for y in sorted(d0)) / config.mu, 1.0
        ) if d0 else 1.0
        s0 = min(config.dist_to_D(x) / config.mu, 1.0) if config.D else 1.0
        if t >= 0.5:
            ramp = 0.0
        elif t <= 0.25:
            ramp = 1.0
        else:
            ramp = (0.5 - t) * 4.0
        return max(s1, s0 * ramp)

    return rho


def glue_homotopies(F, H, config: GluingConfig, atlas: ChartAtlas,
                    t_grid, rho=None):
    """Blend two sampled homotopies on the source space.

    F(x, k) and H(x, k) give point indices for each grid index k; H need only
    be defined on the 2mu-neighborhood of D.  The output agrees with H on D
    and with F outside the 2mu-neighborhood at every grid time, exactly.
    """
    space = config.space
    if rho is None:
        rho = default_rho(config)
    d1 = config.D1

    def g_single(ch: GluingChart, x: int, k: int, t: float) -> int:
        r = rho(x, t)
        if r == 0.0:
            return H(x, k)
        if r == 1.0:
            return F(x, k)
        return _blend_in_chart(ch.source_chart, H(x, k), F(x, k), r)

    out = np.zeros((space.n, len(t_grid)), dtype=int)
    for k, t in enumerate(t_grid):
        for x in range(space.n):
            if x in config.D:
                out[x, k] = H(x, k)
                continue
            if x not in d1:
                out[x, k] = F(x, k)
                continue
            cur = None
            weight = 0.0
            for ch in atlas.charts:
                if not ch.in_ball(space, x):
                    continue
                gi = g_single(ch, x, k, t)
                phi = ch.cutoff(space, x)
                if cur is None:
                    cur, weight = gi, phi
                else:
                    cur = _blend_in_chart(
                        ch.source_chart, cur, gi, phi / (weight + phi)
                    )
                    weight += phi
            if cur is None:
                # collar point outside every chart ball: fall back to the blend
                # without chart transport
                r = rho(x, t)
                cur = H(x, k) if r < 0.5 else F(x, k)
            out[x, k] = cur
    return out
