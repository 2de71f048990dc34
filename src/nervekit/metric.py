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
import os
import threading
from dataclasses import dataclass

import numpy as np

METRIC_TOL = 1e-9
# bytes of each temporary of the triangle check and of ``from_coords``: a
# matrix whose whole n^3 temporary fits takes one broadcast, a larger one goes
# in row blocks of this size (at n = 800 on 2 CPUs, 128 KiB to 512 KiB ran
# within 15% of it)
BUDGET = 256 * 2**10


class MetricError(ValueError):
    """Raised when data fails metric validation or a precondition."""


def _triangle_defects(d: np.ndarray) -> np.ndarray:
    """``bad[i, k] = d[i, k] - min_j (d[i, j] + d[j, k])``: how far each
    entry exceeds its shortest two-step detour.

    A matrix whose n^3 temporary fits in ``BUDGET`` takes one broadcast.  A
    larger one goes in row blocks of ``BUDGET`` bytes, each folding the
    detours through j = 0, 1, ... into a running minimum in place: the
    additions are the same and min does not depend on order, so ``bad`` is
    the same bit for bit.  The blocks are dealt out to up to
    ``os.cpu_count()`` threads (numpy releases the GIL inside its loops);
    each block writes only its own rows of ``bad``.
    """
    n = len(d)
    if 8 * n**3 <= BUDGET:
        return d - np.min(d[:, :, None] + d[None, :, :], axis=1)
    bad = np.empty_like(d)
    step = max(1, BUDGET // (8 * n))
    starts = range(0, n, step)
    workers = min(os.cpu_count() or 1, len(starts))
    errors = []

    def fold(first):
        try:
            best, t = np.empty((2, step, n))
            for a in starts[first::workers]:
                rows = d[a:a + step]
                b, tb = best[:len(rows)], t[:len(rows)]
                np.add(rows[:, :1], d[0], out=b)
                for j in range(1, n):
                    np.add(rows[:, j:j + 1], d[j], out=tb)
                    np.minimum(b, tb, out=b)
                np.subtract(rows, b, out=bad[a:a + step])
        except Exception as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=fold, args=(w,)) for w in range(1, workers)]
    for th in threads:
        th.start()
    fold(0)
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    return bad


def _rounding_bound(m: int, dmax: float) -> float:
    """Upper bound on every triangle defect ``_triangle_defects`` can compute
    for a matrix that ``from_coords`` computed from float coordinates in
    R^m, where ``dmax`` is its largest entry.

    With unit roundoff u = 2^-53 and gamma_k = k u / (1 - k u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3), each
    operation is fl(x op y) = (x op y)(1 + delta) + eta with |delta| <= u.
    Sums and differences are exact once subnormal (eta = 0); a square can
    underflow, |eta| <= 2^-1075; a square root never does.

    Distances.  Let D be the exact Euclidean distance of two given points
    and dh the computed one.  Each of the m squared differences carries
    (1 + delta)^2 (1 + delta) and the sum, in any order, one more factor
    1 + theta_{m-1}, so the sum is S (1 + theta_{m+2}) + e with
    |e| <= m 2^-1074.  As |sqrt(a) - sqrt(b)| <= sqrt(|a - b|) and
    |sqrt(1 + theta) - 1| <= |theta|, the rounded square root gives
    dh = D (1 + theta) + eps with |theta| <= g = gamma_{m+3} and
    |eps| <= eps0 = sqrt(m) 2^-536.

    Defects.  The check computes fl(dh_ik - s) with s = fl(dh_ij + dh_jk)
    for some j, and s >= (dh_ij + dh_jk)(1 - u)
    >= ((D_ij + D_jk)(1 - g) - 2 eps0)(1 - u) >= (D_ik (1 - g) - 2 eps0)(1 - u)
    by the exact triangle inequality.  So dh_ik - s
    <= D_ik ((1 + g) - (1 - u)(1 - g)) + 3 eps0 <= 2 gamma_{m+4} D_ik + 3 eps0,
    and rounding the difference adds at most a factor 1 + u.  Finally
    D_ik <= (dmax + eps0) / (1 - g).  The constant c = 3 covers
    2 (1 + u) / (1 - g) and the few roundings of this formula itself, and
    eta = 4 eps0 covers 3 eps0 (1 + u): every computed defect is at most

        c gamma_{m+4} (dmax + eps0) + eta.

    When that is <= METRIC_TOL the triangle check cannot fail.  It still
    runs once dmax exceeds about METRIC_TOL / (3 (m + 4) u), 4e5 in R^3.
    """
    u = 2.0**-53
    gamma = (m + 4) * u / (1.0 - (m + 4) * u)
    eps0 = math.sqrt(m) * 2.0**-536
    return 3.0 * gamma * (dmax + eps0) + 4.0 * eps0


class _Certified(np.ndarray):
    """A distance matrix from ``from_coords`` whose rounding bound is at most
    ``METRIC_TOL``: validation skips only the triangle check for it."""


def _check_rows(rows, what: str):
    """Raise a MetricError naming the first row of a list of rows whose
    length differs from the first row's."""
    if not isinstance(rows, list) or not all(isinstance(r, (list, tuple)) for r in rows):
        return
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise MetricError(f"{what} row {i} has length {len(row)}, "
                              f"expected {len(rows[0])}")


def _csv_cell(value: str, i: int, j: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise MetricError(f"non-numeric entry at ({i},{j}): {value!r}") from None


def _check_points(values, n: int, what: str, error=MetricError):
    """Raise ``error`` naming the first of ``values`` that is not an integer
    point index in [0, n); a bool is not one."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < n:
            raise error(f"{what} {v!r} is not a point index in [0, {n})")


def _nn_spacing(d: np.ndarray) -> float:
    """Largest nearest-neighbour distance in a distance matrix; 0.0 for one
    point."""
    if len(d) < 2:
        return 0.0
    off = d.copy()
    np.fill_diagonal(off, np.inf)
    return float(off.min(axis=1).max())


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
        certified = type(self.dist) is _Certified
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
        if not certified:
            bad = _triangle_defects(d)
            if np.any(bad > METRIC_TOL):
                i, k = np.unravel_index(np.argmax(bad), bad.shape)
                j = int(np.argmin(d[i, :] + d[:, k]))
                raise MetricError(
                    f"triangle inequality violated for ({i},{j},{k}): "
                    f"{d[i, k]} > {d[i, j]} + {d[j, k]}"
                )
        with np.errstate(over="ignore"):  # a sum past the largest float is redone
            avg = (d + d.T) / 2.0
        over = np.isinf(avg)
        avg[over] = d[over] / 2.0 + d.T[over] / 2.0
        np.fill_diagonal(avg, 0.0)
        avg.setflags(write=False)
        object.__setattr__(self, "dist", avg)
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

    @classmethod
    def from_coords(cls, coords) -> "FiniteMetricSpace":
        """Euclidean metric on a point cloud in R^d.

        The distances are computed in row blocks whose difference array
        takes ``BUDGET`` bytes, with the same per-pair arithmetic as one
        broadcast.  The triangle check is skipped when ``_rounding_bound``
        shows that it cannot fail; every other check runs."""
        try:
            c = np.asarray(coords, dtype=float)
        except ValueError:
            _check_rows(coords, "coords")
            raise
        if c.ndim != 2:
            raise MetricError("coords must be a 2-D array")
        n, m = c.shape
        d = np.empty((n, n))
        step = max(1, BUDGET // (8 * max(n * m, 1)))
        for a in range(0, n, step):
            d[a:a + step] = np.sqrt(((c[a:a + step, None] - c[None]) ** 2).sum(axis=2))
        if _rounding_bound(m, np.max(d, initial=0.0)) <= METRIC_TOL:
            d = d.view(_Certified)
        return cls(d)

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteMetricSpace":
        if "coords" in obj:
            return cls.from_coords(obj["coords"])
        if "dist" in obj:
            try:
                d = np.asarray(obj["dist"], dtype=float)
            except ValueError:
                _check_rows(obj["dist"], "dist")
                raise
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
        if rows:
            try:
                float(rows[0][0])
            except ValueError:
                rows = rows[1:]
        if not rows:
            raise MetricError("empty distance matrix")
        _check_rows(rows, "CSV")
        return cls(np.array([[_csv_cell(v, i, j) for j, v in enumerate(r)]
                             for i, r in enumerate(rows)]))


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
class ApproximationReport:
    """How far ``map`` is from an epsilon-approximation, with the source pair
    of worst distortion and the target point farthest from the image."""

    map: PointMap
    epsilon: float
    distortion: float
    defect: float
    worst_pair: tuple
    worst_target: int

    @property
    def ok(self) -> bool:
        """Both strict conditions: metric distortion < epsilon over all
        source pairs, and every target point within epsilon of the image."""
        return self.distortion < self.epsilon and self.defect < self.epsilon


def check_approximation(pmap: PointMap, epsilon: float) -> ApproximationReport:
    """Measure ``pmap`` against epsilon; ``ok`` on the result tells whether it
    is an epsilon-approximation."""
    dist_val, pair = pmap.distortion()
    defect, y = pmap.surjectivity_defect()
    return ApproximationReport(pmap, float(epsilon), dist_val, defect, pair, y)


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
    points already placed, the first minimizer winning ties.

    Sending the k-th placed point x to y costs ``cost[y] = max_p |dY[f(p), y]
    - dX[x, p]|`` over the placed p.  The max over the anchor and the last
    placed point alone is a lower bound ``lb <= cost``.  With ``c0`` the full
    cost of ``y0 = argmin(lb)``, every minimizer y has ``lb[y] <= cost[y] =
    min(cost) <= c0``, so all of them are in ``cand = flatnonzero(lb <= c0)``.
    Only those get a full cost, the max of ``lb`` and the points in between.
    ``cand`` is ascending, so its first minimizer is the one a full ``argmin``
    would pick; and the costs are the same floats, as ``abs`` and ``max`` are
    exact.  So the image is the same as that of the full scan.
    """
    order = np.argsort(X.dist[ax], kind="stable")
    dxo = X.dist[np.ix_(order, order)]
    # row k: dY[f(order[k])] once placed, equal to its column (dY is symmetric)
    rows = np.empty((X.n, Y.n))
    image = np.full(X.n, -1, dtype=int)
    image[order[0]] = ay
    rows[0] = Y.dist[ay]
    anchor = np.abs(rows[0] - dxo[:, :1])  # every step's anchor term
    for k in range(1, X.n):
        dx = dxo[k]
        lb = np.maximum(anchor[k], np.abs(rows[k - 1] - dx[k - 1]))
        y0 = lb.argmin()
        c0 = np.abs(rows[:k, y0] - dx[:k]).max()
        cand = np.flatnonzero(lb <= c0)
        between = np.abs(rows[1:k - 1, cand] - dx[1:k - 1, None]).max(axis=0, initial=0.0)
        y = cand[np.maximum(lb[cand], between).argmin()]
        image[order[k]] = y
        rows[k] = Y.dist[y]
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
    _check_points([p, *itertools.chain(*pairs)], space.n, "strainer point")
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
