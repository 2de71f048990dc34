"""Finite metric spaces: distance matrices, approximations, Gromov-Hausdorff
estimates, comparison angles and strainers.

All distances live in a full symmetric matrix; every loaded matrix is checked
against the metric axioms before anything else is allowed to touch it.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

METRIC_TOL = 1e-9


class MetricError(ValueError):
    """Raised when data fails metric validation or a precondition."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by a full distance matrix.

    The matrix is validated at construction: finite entries first, then zero
    diagonal, symmetry and the triangle inequality, all within
    ``METRIC_TOL``.  Instances are immutable and safe to share between
    threads.
    """

    dist: np.ndarray
    points: tuple = None

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricError(f"distance matrix must be square, got shape {d.shape}")
        n = d.shape[0]
        if n == 0:
            raise MetricError("empty distance matrix")
        if not np.isfinite(d).all():
            i, j = np.argwhere(~np.isfinite(d))[0]
            raise MetricError(f"non-finite distance at ({i},{j}): {d[i, j]}")
        if np.any(d < -METRIC_TOL):
            i, j = np.unravel_index(np.argmin(d), d.shape)
            raise MetricError(f"negative distance at ({i},{j}): {d[i, j]}")
        if np.any(np.abs(np.diag(d)) > METRIC_TOL):
            i = int(np.argmax(np.abs(np.diag(d))))
            raise MetricError(f"nonzero diagonal at {i}: {d[i, i]}")
        asym = np.abs(d - d.T)
        if np.any(asym > METRIC_TOL):
            i, j = np.unravel_index(np.argmax(asym), asym.shape)
            raise MetricError(f"asymmetric entry at ({i},{j}): {d[i, j]} vs {d[j, i]}")
        # min_j d[i,j] + d[j,k] must dominate d[i,k]
        best = np.min(d[:, :, None] + d[None, :, :], axis=1)
        bad = d - best
        if np.any(bad > METRIC_TOL):
            i, k = np.unravel_index(np.argmax(bad), bad.shape)
            j = int(np.argmin(d[i, :] + d[:, k]))
            raise MetricError(
                f"triangle inequality violated for ({i},{j},{k}): "
                f"{d[i, k]} > {d[i, j]} + {d[j, k]}"
            )
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if self.points is None:
            object.__setattr__(self, "points", tuple(range(n)))
        elif len(self.points) != n:
            raise MetricError("points list length does not match matrix size")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max())

    def ball(self, x: int, r: float) -> frozenset:
        """Open ball: indices strictly closer than ``r`` to ``x``."""
        return frozenset(np.flatnonzero(self.dist[x] < r).tolist())

    def distance_to_set(self, x: int, S) -> float:
        return distance_to_set(self, x, S)

    @classmethod
    def from_coords(cls, coords) -> "FiniteMetricSpace":
        """Euclidean metric on a point cloud in R^d."""
        c = np.asarray(coords, dtype=float)
        if c.ndim != 2:
            raise MetricError("coords must be a 2-D array")
        diff = c[:, None, :] - c[None, :, :]
        return cls(np.sqrt((diff**2).sum(axis=2)))

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteMetricSpace":
        if "coords" in obj:
            return cls.from_coords(obj["coords"])
        if "dist" in obj:
            d = np.asarray(obj["dist"], dtype=float)
            if "n" in obj and int(obj["n"]) != d.shape[0]:
                raise MetricError("declared n does not match matrix size")
            return cls(d)
        raise MetricError("space JSON needs either 'dist' or 'coords'")

    def to_json(self) -> dict:
        return {"n": self.n, "dist": self.dist.tolist()}

    @classmethod
    def load(cls, path: str) -> "FiniteMetricSpace":
        """Read a space from CSV (square matrix, optional header) or JSON."""
        with open(path) as fh:
            text = fh.read()
        if path.endswith(".json") or text.lstrip().startswith("{"):
            return cls.from_json(json.loads(text))
        rows = [r for r in csv.reader(text.splitlines()) if r]
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]
        d = np.array([[float(v) for v in r] for r in rows])
        return cls(d)


def distance_to_set(space: FiniteMetricSpace, x: int, S) -> float:
    """min over s in S of dist[x][s]."""
    idx = list(S)
    if not idx:
        raise MetricError("empty set has no distance")
    return float(space.dist[x, idx].min())


@dataclass(frozen=True)
class PointMap:
    """A map between finite metric spaces, one target index per source index."""

    source: FiniteMetricSpace
    target: FiniteMetricSpace
    image: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.image, dtype=int)
        if img.shape != (self.source.n,):
            raise MetricError("image length must equal source size")
        if img.min() < 0 or img.max() >= self.target.n:
            raise MetricError("image index out of range")
        img.setflags(write=False)
        object.__setattr__(self, "image", img)

    def __call__(self, i: int) -> int:
        return int(self.image[i])

    def distortion(self):
        """Max over source pairs of ||f(x),f(y)| - |x,y||, with a witness pair."""
        f = self.image
        gap = np.abs(self.target.dist[f][:, f] - self.source.dist)
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        return float(gap[i, j]), (int(i), int(j))

    def surjectivity_defect(self):
        """Max over target points of the distance to the image, with a witness."""
        covered = self.target.dist[self.image].min(axis=0)
        y = int(np.argmax(covered))
        return float(covered[y]), y


@dataclass(frozen=True)
class ApproximationCertificate:
    map: PointMap
    epsilon: float
    distortion: float
    defect: float


@dataclass(frozen=True)
class ApproximationViolation:
    map: PointMap
    epsilon: float
    distortion: float
    defect: float
    worst_pair: tuple
    worst_target: int


def check_approximation(pmap: PointMap, epsilon: float):
    """Certify ``pmap`` as an epsilon-approximation, or report the violation.

    Both conditions are strict: metric distortion < epsilon over all source
    pairs, and every target point within epsilon of the image.
    """
    dist_val, pair = pmap.distortion()
    defect, y = pmap.surjectivity_defect()
    if dist_val < epsilon and defect < epsilon:
        return ApproximationCertificate(pmap, float(epsilon), dist_val, defect)
    return ApproximationViolation(
        pmap, float(epsilon), dist_val, defect, pair, y
    )


_GH_SIZE_CAP = 6


def _directional_optimum(X: FiniteMetricSpace, Y: FiniteMetricSpace) -> float:
    """Best achievable max(distortion, defect) over all maps X -> Y."""
    n, m = X.n, Y.n
    images = np.array(list(itertools.product(range(m), repeat=n)), dtype=int)
    # distortion of every map at once: (maps, n, n)
    dY = Y.dist[images[:, :, None], images[:, None, :]]
    distortion = np.abs(dY - X.dist[None, :, :]).max(axis=(1, 2))
    defect = Y.dist[images, :].min(axis=1).max(axis=1)
    return float(np.maximum(distortion, defect).min())


def gh_distance_exhaustive(X: FiniteMetricSpace, Y: FiniteMetricSpace) -> float:
    """Exact Gromov-Hausdorff oracle by brute force over all maps.

    Returns the boundary value: the least max(distortion, surjectivity defect)
    achievable with maps in both directions.  The strict-inequality infimum in
    the definition is not attained, so the boundary value is what comes back.
    """
    if X.n > _GH_SIZE_CAP or Y.n > _GH_SIZE_CAP:
        raise MetricError(
            f"exhaustive oracle capped at {_GH_SIZE_CAP} points per space; "
            "use gh_distance_bound for larger inputs"
        )
    return max(_directional_optimum(X, Y), _directional_optimum(Y, X))


def _greedy_map(X: FiniteMetricSpace, Y: FiniteMetricSpace, ax: int, ay: int) -> np.ndarray:
    """Anchored greedy matching: map ax to ay, then place remaining points so
    each new assignment minimizes the worst distance discrepancy against the
    points already placed."""
    order = np.argsort(X.dist[ax], kind="stable")
    image = np.full(X.n, -1, dtype=int)
    placed = []
    for x in order:
        if not placed:
            image[x] = ay
        else:
            ps = np.array(placed)
            # cost of sending x to y: worst |dY[y, f(p)] - dX[x, p]|
            cost = np.abs(Y.dist[:, image[ps]] - X.dist[x, ps][None, :]).max(axis=1)
            image[x] = int(np.argmin(cost))
        placed.append(x)
    return image


def _map_epsilon(X, Y, image) -> float:
    pm = PointMap(X, Y, image)
    return max(pm.distortion()[0], pm.surjectivity_defect()[0])


def gh_distance_bound(X: FiniteMetricSpace, Y: FiniteMetricSpace,
                      trials: int = 16, seed: int = 0):
    """Seeded heuristic bracket (lower, upper) for the GH distance.

    lower: half the diameter difference, valid from the distortion condition.
    upper: the best epsilon achieved by candidate maps in both directions
    (identity first when sizes agree, then anchored greedy matchings).
    """
    if trials < 1:
        raise MetricError("trials must be >= 1")
    lower = abs(X.diameter() - Y.diameter()) / 2.0
    upper = math.inf
    if X.n == Y.n:
        ident = np.arange(X.n)
        upper = max(_map_epsilon(X, Y, ident), _map_epsilon(Y, X, ident))
    rng = np.random.default_rng(seed)
    anchors = list(itertools.product(range(X.n), range(Y.n)))
    rng.shuffle(anchors)
    for ax, ay in anchors[:trials]:
        eps = max(
            _map_epsilon(X, Y, _greedy_map(X, Y, ax, ay)),
            _map_epsilon(Y, X, _greedy_map(Y, X, ay, ax)),
        )
        upper = min(upper, eps)
    return lower, float(upper)


def comparison_angle(space: FiniteMetricSpace, x: int, p: int, y: int) -> float:
    """Angle at p of the flat comparison triangle for (x, p, y), in radians.

    The cosine argument is clamped to [-1, 1] before arccos.
    """
    a = space.dist[p, x]
    b = space.dist[p, y]
    c = space.dist[x, y]
    if a == 0.0 or b == 0.0:
        raise MetricError("comparison angle undefined: point coincides with vertex")
    cos = (a * a + b * b - c * c) / (2.0 * a * b)
    return float(math.acos(min(1.0, max(-1.0, cos))))


@dataclass(frozen=True)
class StrainerReport:
    ok: bool
    worst_margin: float
    length: float


def check_strainer(space: FiniteMetricSpace, p: int, pairs, delta: float) -> StrainerReport:
    """Check the strainer angle conditions at p for the given (a_i, b_i) pairs.

    Requires every opposite angle a_i p b_i to exceed pi - delta and every
    cross angle among {a_i, a_j, b_i, b_j} (i != j) to exceed pi/2 - delta.
    ``worst_margin`` is the smallest slack over all inequalities; ``length``
    is the minimum distance from p to a strainer point.
    """
    margins = []
    m = len(pairs)
    for i, (a, b) in enumerate(pairs):
        margins.append(comparison_angle(space, a, p, b) - (math.pi - delta))
    half = math.pi / 2.0 - delta
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            ai, bi = pairs[i]
            aj, bj = pairs[j]
            margins.append(comparison_angle(space, ai, p, bj) - half)
            if i < j:
                margins.append(comparison_angle(space, ai, p, aj) - half)
                margins.append(comparison_angle(space, bi, p, bj) - half)
    length = min(
        min(space.dist[p, a], space.dist[p, b]) for a, b in pairs
    )
    worst = min(margins)
    return StrainerReport(ok=worst > 0.0, worst_margin=float(worst), length=float(length))
