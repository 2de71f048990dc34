"""Explicit deformation retractions of the mapping cylinder.

Four homotopies are implemented: the straightening of the cover diagram onto
the graph of the nerve map, the collapse of the cylinder onto the apex slice,
the cone retraction over a single cover set, and the simplex-wise retraction
that peels one skeleton dimension at a time.  Endpoint and fixed-point
identities hold bit-exactly on the sampled parameter grid; interpolation
helpers branch on their plateaus to guarantee this.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .complex import WEIGHT_DROP, BarycentricPoint, ComplexError, combine
from .cone import ConePoint, CylinderPoint, CylinderSpace, cone_distance
from .cover import Cover, _records
from .metric import FiniteMetricSpace, MetricError
from .partition import PartitionOfUnity


def lerp(a: float, b: float, s: float) -> float:
    """(1-s)a + sb with bit-exact endpoints."""
    if s == 0.0 or a == b:
        return a
    if s == 1.0:
        return b
    return (1.0 - s) * a + s * b


# Piecewise-linear cutoff functions g, mu, nu with their plateaus exact.
# Between plateaus everything is linear, the simplest Lipschitz completion.


def cutoff_g(s: float) -> float:
    """1 for s <= 1/3, 0 at s = 1."""
    if s <= 1.0 / 3.0:
        return 1.0
    if s >= 1.0:
        return 0.0
    return (1.0 - s) * 1.5


def cutoff_mu(s: float) -> float:
    """0 below 1/2, 1 above 2/3."""
    if s <= 0.5:
        return 0.0
    if s >= 2.0 / 3.0:
        return 1.0
    return (s - 0.5) * 6.0


def cutoff_nu(s: float) -> float:
    """0 below 2/3, 1 above 3/4."""
    if s <= 2.0 / 3.0:
        return 0.0
    if s >= 0.75:
        return 1.0
    return (s - 2.0 / 3.0) * 12.0


class Contraction:
    """Discrete stand-in for a strong deformation retraction of a point set
    to its center.

    Each point carries a waypoint path of greedy distance-decreasing steps to
    the center; time in [0, L] is mapped onto the path with saturation at the
    center from L/2 on.
    """

    def __init__(self, space: FiniteMetricSpace, members: frozenset, center: int,
                 L: float):
        if center not in members:
            raise MetricError("contraction center must belong to the set")
        self.members = frozenset(members)
        self.center = int(center)
        self.L = float(L)
        # a greedy step depends only on the point it leaves, so the paths
        # form a tree: each member's parent is its nearest member strictly
        # closer to the center, lowest index first, or the center when none is
        ordered = sorted(members)
        d = space.dist[np.ix_(ordered, ordered)]
        to_c = space.dist[ordered, center]
        closer = to_c[None, :] < to_c[:, None]
        nearest = np.where(closer, d, np.inf).argmin(axis=1)
        parent = np.where(closer.any(axis=1), np.array(ordered)[nearest], center).tolist()
        # members in order of distance to the center meet their parents first
        self.paths = {center: [center]}
        for i in np.argsort(to_c, kind="stable"):
            if ordered[i] != center:
                self.paths[ordered[i]] = [ordered[i]] + self.paths[parent[i]]

    def __call__(self, x: int, time: float) -> int:
        if x not in self.paths:
            raise MetricError(f"point {x} outside contraction domain")
        if time >= self.L / 2.0:
            return self.center
        if time <= 0.0:
            return x
        if math.isnan(time):
            raise MetricError(f"contraction time {time} is not a number")
        path = self.paths[x]
        return path[int(round(time / (self.L / 2.0) * (len(path) - 1)))]


def build_contractions(cover: Cover, L: float) -> dict:
    """The contraction of each nonempty intersection to its center (as in
    ``intersections``), keyed by its index set.  Index sets with equal
    members and center share one ``Contraction``."""
    contraction = functools.cache(
        lambda members, center: Contraction(cover.space, members, center, L))
    return {frozenset(idx): contraction(members, center)
            for level in _records(cover, cover.n_sets) for idx, members, center in level}


def _check_s(s: float):
    if not 0.0 <= s <= 1.0:
        raise MetricError(f"homotopy parameter {s} outside [0, 1]")


def homotopy_H(pou: PartitionOfUnity, theta: BarycentricPoint, x: int,
               s: float) -> CylinderPoint:
    """Slide theta toward the nerve image of x along the straight segment.

    At s=0 this is the identity, at s=1 the pair lands on the graph of the
    nerve map, and points already on the graph stay put for every s.
    """
    _check_s(s)
    cover = pou.cover
    for j in sorted(theta.support):
        if not 0 <= j < cover.n_sets:
            raise MetricError(f"vertex {j} is not a set index in [0, {cover.n_sets})")
    if any(x not in cover.sets[j] for j in theta.support):
        raise MetricError(
            f"membership violation: {x} outside the intersection of "
            f"{sorted(theta.support)}"
        )
    return CylinderPoint(combine(theta, pou.theta(x), s), ConePoint(x, 0.0))


def homotopy_F(p: CylinderPoint, s: float, L: float) -> CylinderPoint:
    """Push the cone factor toward the apex; the apex slice is fixed."""
    _check_s(s)
    return CylinderPoint(p.theta, ConePoint(p.cone.base, lerp(p.cone.t, L, s)))


def cone_retraction_phi(contraction: Contraction, p: ConePoint, s: float) -> ConePoint:
    """Retraction of the cone over one cover set onto its base slice."""
    _check_s(s)
    if not 0.0 <= p.t <= contraction.L:
        raise MetricError(f"height {p.t} outside [0, {contraction.L}]")
    (base,), (t,) = _cone_path(contraction, p, (s,))
    return ConePoint(base, t)


def radial_projection(sigma, x: BarycentricPoint, t: float, L: float):
    """Project (x, t) in sigma x [0, L] away from the point hovering at
    height 2L over the barycenter, onto the base slice or the wall over the
    simplex boundary.

    Returns (target point, landing height).  Points of the boundary wall and
    of the base slice are their own images, exactly.  Heights lie in [0, L],
    by ``_landing_heights``' arithmetic in Python floats; a coordinate that
    reaches the wall computes to at most 2u / k, u = 2^-53, which the point
    drops."""
    if not 0.0 <= t <= L:
        raise MetricError(f"height {t} outside [0, {L}]")
    sigma = tuple(sorted(sigma))
    if len(sigma) == 1 or t == 0.0:
        return x, 0.0
    supp, whole = x.support, frozenset(sigma)
    if supp < whole:
        return x, t
    if not supp <= whole:
        raise MetricError("barycentric point is not carried by the simplex")
    coords = [x[v] for v in sigma]
    bary = 1.0 / len(coords)
    lam_wall = min(bary / gap if gap > 0.0 else math.inf for gap in [bary - c for c in coords])
    lam0 = 2.0 * L / (2.0 * L - t)
    u = min(max(2.0 * L + lam_wall * (t - 2.0 * L), 0.0), L) if lam_wall < lam0 else 0.0
    lam = min(lam_wall, lam0)
    return BarycentricPoint({v: bary + lam * (c - bary) for v, c in zip(sigma, coords)}), float(u)


def _landing_heights(coords: np.ndarray, t, L: float) -> np.ndarray:
    """The landing heights u of ``radial_projection`` for ``_BlendGrid``'s
    rows of sigma coordinates at heights t (per row, or one for all), all
    carried by the whole simplex: 0 where a row reaches the base slice."""
    bary = 1.0 / coords.shape[1]
    gap = bary - coords
    lam = np.divide(bary, gap, out=np.full(gap.shape, np.inf), where=gap > 0.0)
    lam_wall = lam.min(axis=1)
    lam0 = 2.0 * L / (2.0 * L - t)
    u = np.minimum(np.maximum(2.0 * L + lam_wall * (t - 2.0 * L), 0.0), L)
    return np.where(lam_wall < lam0, u, 0.0)


class _BlendGrid:
    """Sampled distances to the low-landing and high-landing regions of
    sigma x [0, L], shared across simplices of equal dimension: barycentric
    coordinates in steps of 1/SUBDIVISIONS, HEIGHTS evenly spaced heights."""

    SUBDIVISIONS = 12
    HEIGHTS = 25

    def __init__(self, k: int, L: float):
        S, H = self.SUBDIVISIONS, self.HEIGHTS
        comps = np.array(list(itertools.combinations_with_replacement(range(k), S)))
        counts = (comps[:, :, None] == np.arange(k)).sum(axis=1) / S
        coords = np.repeat(counts, H, axis=0)
        t = np.tile(np.linspace(0.0, L, H), len(comps))
        # as in radial_projection, points on a proper face stay at their
        # height and the base slice stays at 0
        u = np.where((coords > 0.0).all(axis=1), _landing_heights(coords, t, L), t)
        u[t == 0.0] = 0.0
        pts = np.column_stack([coords, t])
        self.low = pts[u <= L / 10.0]
        self.high = pts[u >= L / 2.0]

    def distances(self, coords: np.ndarray, t: float):
        q = np.append(coords, t)
        # sqrt is monotone, so the root of the least square is the least root
        s0 = math.sqrt(((self.low - q) ** 2).sum(axis=1).min())
        s1 = math.sqrt(((self.high - q) ** 2).sum(axis=1).min())
        return s0, s1


@functools.cache
def _blend_grid(k: int, L: float) -> _BlendGrid:
    return _BlendGrid(k, L)


def height_blend(sigma, x: BarycentricPoint, t: float, L: float,
                 u: float = None) -> float:
    """Interpolated landing height w between the projection height and t.

    Equals u exactly when u <= L/10 and t exactly when u >= L/2; in between
    it weights by the distances to those two regions.
    """
    if u is None:
        _, u = radial_projection(sigma, x, t, L)
    if u == t or u >= L / 2.0:
        return t
    if u <= L / 10.0:
        return u
    coords = np.array([x[v] for v in sorted(sigma)])
    s0, s1 = _blend_grid(len(coords), L).distances(coords, t)
    return (s1 * u + s0 * t) / (s0 + s1)


def simplexwise_retraction(sigma, contraction: Contraction, x: BarycentricPoint,
                           p: ConePoint, s: float, L: float):
    """One step of the retraction of sigma x K(U_sigma) onto its base and
    boundary part.

    Returns the pair (simplex point, cone point).  The base slice and the
    cone over the simplex boundary are fixed pointwise at every s.
    """
    _check_s(s)
    end = _simplexwise_stage(tuple(sorted(sigma)), contraction, x, p, (s,), L).end
    return end.theta, end.cone


@functools.lru_cache(maxsize=64, typed=True)
def _s_grid(n_steps: int) -> tuple:
    """i / n_steps for i = 0, ..., n_steps, for a positive integer n_steps."""
    if not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise MetricError(f"n_steps must be a positive integer, got {n_steps!r}")
    return tuple(i / int(n_steps) for i in range(n_steps + 1))


@functools.lru_cache(maxsize=64)
def _grid(s_grid: tuple):
    """The values of an s grid as a column, the cutoffs mu, nu and g at each,
    and the positions of its value 1."""
    s = np.array(s_grid, dtype=float)[:, None]
    s.flags.writeable = False
    return (s, tuple(map(cutoff_mu, s_grid)), tuple(map(cutoff_nu, s_grid)),
            tuple(map(cutoff_g, s_grid)), [i for i, v in enumerate(s_grid) if v == 1.0])


def _bases(contraction, base: int, times) -> tuple:
    """``contraction(base, time)`` at each time, called once per distinct
    time, in order of first appearance."""
    seen = {}
    for time in times:
        if time not in seen:
            seen[time] = contraction(base, time)
    return tuple(map(seen.__getitem__, times))


def _simplexwise_stage(sigma: tuple, contraction, x: BarycentricPoint, p: ConePoint,
                       s_grid: tuple, L: float) -> "TraceStage":
    """``simplexwise_retraction`` at each s of ``s_grid`` over the sorted
    simplex sigma, as one stage.

    The radial projection psi0, its height u and the blended height depend
    only on (sigma, x, t), so they are computed once.  The stage keeps the
    ends x and psi0 of the segment that ``combine`` follows, and the keys of
    each s's point: those whose weight in ``x + s * (psi0 - x)``, computed
    over all s at once in ``combine``'s key order, exceeds ``WEIGHT_DROP``,
    at s = 1 those of psi0.
    """
    t = p.t
    psi0, u = radial_projection(sigma, x, t, L)
    w = height_blend(sigma, x, t, L, u)
    keys = tuple(set(x.weights) | set(psi0.weights))
    s, mus, nus, _gs, ones = _grid(s_grid)
    a, b = np.array([[x[v] for v in keys], [psi0[v] for v in keys]])
    flags = (a + s * (b - a) > WEIGHT_DROP).tolist()
    for i in ones:
        flags[i] = (b > WEIGHT_DROP).tolist()
    kept = [tuple(itertools.compress(keys, row)) for row in flags]
    if () in kept:
        raise ComplexError("barycentric point needs positive weight")
    times = [0.0 if mu == 0.0 else mu * (t - u) for mu in mus]
    return TraceStage._sampled(sigma, s_grid, x, psi0, kept,
                               _bases(contraction, p.base, times),
                               tuple(lerp(t, w, nu) for nu in nus))


def _cone_path(contraction, p: ConePoint, s_grid: tuple) -> tuple:
    """The bases and heights of ``cone_retraction_phi`` at each s of
    ``s_grid``."""
    t = p.t
    return (_bases(contraction, p.base, [s * t for s in s_grid]),
            tuple(t if g == 1.0 else g * t for g in _grid(s_grid)[3]))


def _cone_stage(sigma: tuple, contraction, x: BarycentricPoint, p: ConePoint,
                s_grid: tuple) -> "TraceStage":
    """``cone_retraction_phi`` at each s of ``s_grid``, with the simplex
    point x held fixed, as one stage."""
    return TraceStage._sampled(sigma, s_grid, x, x, [tuple(x.weights)] * len(s_grid),
                               *_cone_path(contraction, p, s_grid))


class TraceStage:
    """One stage of a trace: the points at each s of ``s_grid`` under the
    retraction over ``simplex``.

    A stage that ``full_cylinder_retraction`` samples keeps the ends a and b
    of its segment, the keys of each s's point (``_kept``), and the bases
    and heights.  It builds its last point ``end`` at once, from b when the
    grid ends at s = 1, and ``points`` on first read.
    """

    def __init__(self, simplex: tuple, s_grid: tuple, points: tuple):
        self.simplex, self.s_grid, self.points = tuple(simplex), tuple(s_grid), tuple(points)
        self.end = self.points[-1] if self.points else None

    @classmethod
    def _sampled(cls, simplex, s_grid, a, b, kept, bases, heights) -> "TraceStage":
        stage = cls.__new__(cls)
        stage.simplex, stage.s_grid = tuple(simplex), tuple(s_grid)
        stage._a, stage._b, stage._kept = a, b, kept
        stage._bases, stage._heights = bases, heights
        stage.end = (CylinderPoint(b, ConePoint(bases[-1], heights[-1]))
                     if s_grid[-1] == 1.0 else stage.points[-1])
        return stage

    @functools.cached_property
    def points(self) -> tuple:
        """``combine(a, b, s)`` at each s, over that s's base and height."""
        return tuple(CylinderPoint(combine(self._a, self._b, s), ConePoint(base, height))
                     for s, base, height in zip(self.s_grid, self._bases, self._heights))

    def _fields(self) -> tuple:
        return self.simplex, self.s_grid, self.points

    def __eq__(self, other) -> bool:
        return isinstance(other, TraceStage) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "TraceStage(simplex=%r, s_grid=%r, points=%r)" % self._fields()

    def _in_cylinder(self, cyl: CylinderSpace) -> bool:
        """Whether every point of this sampled stage lies in the cylinder.  A
        point's membership depends only on its support, its base and whether
        its height lies in [0, L], so one check is made per such key."""
        inside = [0.0 <= h <= cyl.L for h in self._heights]
        return all(cyl._holds(keys, base, ok)
                   for keys, base, ok in set(zip(self._kept, self._bases, inside)))


@dataclass(frozen=True)
class DeformationTrace:
    """Sampled path of a point under the composite cylinder retraction."""

    start: CylinderPoint
    stages: tuple
    membership_ok: bool

    @property
    def end(self) -> CylinderPoint:
        return self.stages[-1].end if self.stages else self.start

    @property
    def ends_in_base(self) -> bool:
        return self.end.cone.t == 0.0

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "stages": [
                {
                    "simplex": list(st.simplex),
                    "s_grid": list(st.s_grid),
                    "points": [q.to_json() for q in st.points],
                }
                for st in self.stages
            ],
            "membership_ok": self.membership_ok,
            "ends_in_base": self.ends_in_base,
        }


def full_cylinder_retraction(cyl: CylinderSpace, contractions: dict,
                             point: CylinderPoint, n_steps: int = 16) -> DeformationTrace:
    """Compose the simplex-wise retractions from the top skeleton down until
    the point reaches the base slice.

    Each stage samples the homotopy of the current support simplex over the
    s grid; the support either loses a vertex or the height drops to zero,
    so the composition terminates.
    """
    grid = _s_grid(n_steps)
    cyl.require(point)
    stages, membership_ok, cur = [], True, point
    max_stages = cyl.nerve.dim + 2
    while cur.cone.t != 0.0:
        if len(stages) == max_stages:
            raise MetricError("cylinder retraction failed to terminate")
        supp = cur.theta.support
        if supp not in contractions:
            raise MetricError(f"missing contraction data for simplex {sorted(supp)}")
        con = contractions[supp]
        sigma = tuple(sorted(supp))
        if len(sigma) == 1:
            stage = _cone_stage(sigma, con, cur.theta, cur.cone, grid)
        else:
            stage = _simplexwise_stage(sigma, con, cur.theta, cur.cone, grid, cyl.L)
        membership_ok &= stage._in_cylinder(cyl)
        stages.append(stage)
        cur = stage.end
    return DeformationTrace(point, tuple(stages), membership_ok)


def measure_retraction_lipschitz(contraction: Contraction,
                                 space: FiniteMetricSpace, L: float,
                                 n_steps: int = 16, seed: int = 0,
                                 samples: int = 400):
    """Empirical Lipschitz data for the cone retraction over one set.

    Returns (measured constant, measured constant of the contraction flow,
    shape ratio c with measured <= c * L * (1 + L) * flow constant).
    """
    grid = _s_grid(n_steps)
    rng = np.random.default_rng(seed)
    members = sorted(contraction.members)

    def sample_point():
        return (
            ConePoint(int(rng.choice(members)), float(rng.uniform(0.0, L))),
            float(rng.choice(grid)),
        )

    def flow_dist(a, b):
        worst = 0.0
        for tt in np.linspace(0.0, L, 9):
            worst = max(worst, float(space.dist[contraction(a, tt), contraction(b, tt)]))
        return worst

    lip_flow = 0.0
    for _ in range(samples):
        a, b = int(rng.choice(members)), int(rng.choice(members))
        if space.dist[a, b] > 0:
            lip_flow = max(lip_flow, flow_dist(a, b) / float(space.dist[a, b]))
    lip_flow = max(lip_flow, 1.0)

    lip = 0.0
    for _ in range(samples):
        (p, s), (q, r) = sample_point(), sample_point()
        dom = math.hypot(
            cone_distance(p, q, space, L), abs(s - r)
        )
        if dom == 0.0:
            continue
        img = cone_distance(
            cone_retraction_phi(contraction, p, s),
            cone_retraction_phi(contraction, q, r),
            space, L,
        )
        lip = max(lip, img / dom)
    c = lip / (L * (1.0 + L) * lip_flow)
    return lip, lip_flow, c
