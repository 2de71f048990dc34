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
from dataclasses import dataclass

import numpy as np

METRIC_TOL = 1e-9
# bytes of each temporary of the triangle check and of ``_coord_rows``, which
# go in row blocks of this size (at n = 800 on one thread, 128 KiB to 512 KiB
# ran within 15% of it)
BUDGET = 256 * 2**10
_EMBED_DIMS = 8  # the most coordinates ``_embeds`` recovers from a matrix


class MetricError(ValueError):
    """Raised when data fails metric validation or a precondition."""


def _row_blocks(n: int):
    """The (first row, rows) blocks of the triangle kernel, each spanning the
    columns from its first row on, of ``BUDGET`` bytes (or one row) each."""
    a = 0
    while a < n:
        h = min(max(1, BUDGET // (8 * (n - a))), n - a)
        yield a, h
        a += h


def _triangle_defects(d: np.ndarray) -> np.ndarray:
    """``bad[i, k] = d[i, k] - min_j (d[i, j] + d[j, k])``: how far each
    entry of a matrix d that is symmetric bit for bit exceeds its shortest
    two-step detour.

    Each of the ``_row_blocks`` folds the detours through j = 0, 1, ... into
    a running minimum in place, so ``bad`` matches one n^3 broadcast bit for
    bit (the sums are the same and min does not depend on order).  It is
    symmetric bit for bit too, as ``bad[k, i]`` folds the same sums d[j, k]
    + d[i, j] in the same order of j: a block from row a computes only the
    columns k >= a and copies the rest from the rows above, half the work.
    """
    n = len(d)
    bad = np.empty_like(d)
    buffers = np.empty((2, min(n * n, max(BUDGET // 8, n))))
    for a, h in _row_blocks(n):
        rows = d[a:a + h]
        b, tb = buffers[:, :h * (n - a)].reshape(2, h, n - a)
        np.add(rows[:, :1], d[0, a:], out=b)
        for j in range(1, n):
            np.add(rows[:, j:j + 1], d[j, a:], out=tb)
            np.minimum(b, tb, out=b)
        np.subtract(rows[:, a:], b, out=bad[a:a + h, a:])
        bad[a:a + h, :a] = bad[:a, a:a + h].T
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


def _coord_rows(c: np.ndarray):
    """The Euclidean distances of the rows of c as (first row, block)
    pairs, each block's difference array of ``BUDGET`` bytes, with the same
    per-pair arithmetic as one broadcast."""
    n, m = c.shape
    step = max(1, BUDGET // (8 * max(n * m, n, 1)))
    for a in range(0, n, step):
        yield a, np.sqrt(((c[a:a + step, None] - c[None]) ** 2).sum(axis=2))


def _embeds(d: np.ndarray) -> bool:
    """Whether float coordinates in R^m, m <= ``_EMBED_DIMS``, reproduce the
    stored matrix d so closely that the triangle kernel cannot flag it.

    A pivoted partial Cholesky of the Gram matrix about point 0, G[i, j] =
    (d[0, i]^2 + d[0, j]^2 - d[i, j]^2) / 2, reads one row of d per pivot
    and stops at a rounding-size residual or after ``_EMBED_DIMS`` pivots.
    ``_coord_rows`` recomputes the distances dh from its coordinates, and
    e is the largest computed |d - dh|, found block by block.

    Proof.  Exactly, |d - dh| <= e / (1 - u), and dh_ik - dh_ij - dh_jk <=
    r = ``_rounding_bound(m, max dh)``, whose proof bounds it before the
    kernel's rounding; so d_ik - d_ij - d_jk <= r + 3 e / (1 - u).  The
    kernel computes fl(d_ik - s) with s = fl(d_ij + d_jk) >= d_ij + d_jk -
    2 u dmax, dmax = max |d|, so each defect it computes is at most
    (1 + u)(r + 3 e / (1 - u) + 2 u dmax).  The factor 1 + 16 u on 3 e + r +
    2 u dmax covers that and the sum's own roundings (its terms are >= 0;
    underflow moves it by less than the gap from METRIC_TOL to the next
    float).  So when it is <= METRIC_TOL no entry can be flagged.  Soundness
    never rests on the embedding's accuracy: a poor one makes e larger.
    """
    u, n, dmax = 2.0**-53, len(d), max(float(d.max()), -float(d.min()))
    if 2.0 * u * dmax > METRIC_TOL:  # the kernel's rounding alone; no square overflows below
        return False
    sq = d[0] ** 2
    x, resid, m = np.zeros((n, _EMBED_DIMS)), sq.copy(), 0
    while m < _EMBED_DIMS and resid.max() > 64.0 * u * dmax * dmax:
        p = int(np.argmax(resid))
        x[:, m] = ((sq + sq[p] - d[p] ** 2) / 2.0 - x[:, :m] @ x[p, :m]) / math.sqrt(resid[p])
        resid -= x[:, m] ** 2
        m += 1
    e = dhmax = 0.0
    for a, dh in _coord_rows(x[:, :m]):
        e = max(e, float(np.abs(d[a:a + len(dh)] - dh).max()))
        dhmax = max(dhmax, float(dh.max()))
        if (3.0 * e + _rounding_bound(m, dhmax) + 2.0 * u * dmax) * (1.0 + 16.0 * u) \
                > METRIC_TOL:
            return False
    return True


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
    return float(_nn_spacings(d[None])[0]) if len(d) > 1 else 0.0


def _nn_spacings(d: np.ndarray) -> np.ndarray:
    """``_nn_spacing`` of each matrix of a G x s x s stack, s >= 2, by one
    masked min and max, which are exact: the same floats as one at a time."""
    return d.min(axis=2, initial=np.inf, where=~np.eye(d.shape[1], dtype=bool)).max(axis=1)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by a full distance matrix.

    The matrix d is validated at construction: finite entries first, then no
    entry below -``METRIC_TOL``, a diagonal and an asymmetry within
    ``METRIC_TOL``.  The stored matrix ``dist`` is the average with the
    transpose with a zero diagonal, and the triangle inequality is checked
    on it, within ``METRIC_TOL``, so every stored matrix validates again.
    The check's n^3 kernel is skipped where it cannot fail: for a matrix of
    ``from_coords`` by ``_rounding_bound``, for others by ``_embeds``.
    Instances are immutable and safe to share between threads; two are
    equal when their stored matrices are.
    """

    dist: np.ndarray

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
        del asym
        # symmetric bit for bit, as addition commutes: a 0.0 facing a -0.0
        # is stored as 0.0 on both sides
        with np.errstate(over="ignore"):  # a sum past the largest float is redone
            avg = (d + d.T) / 2.0
        over = np.isinf(avg)
        avg[over] = d[over] / 2.0 + d.T[over] / 2.0
        np.fill_diagonal(avg, 0.0)
        if not (certified or _embeds(avg)):
            bad = _triangle_defects(avg)
            if np.any(bad > METRIC_TOL):
                i, k = np.unravel_index(np.argmax(bad), bad.shape)
                j = int(np.argmin(avg[i, :] + avg[:, k]))
                raise MetricError(f"triangle inequality violated for ({i},{j},{k}): "
                                  f"{avg[i, k]} > {avg[i, j]} + {avg[j, k]}")
        avg.setflags(write=False)
        object.__setattr__(self, "dist", avg)

    def __eq__(self, other):
        return isinstance(other, FiniteMetricSpace) and np.array_equal(self.dist, other.dist)

    def __hash__(self):  # equal matrices have equal maxima, as -0.0 == 0.0
        return hash((self.n, self.diameter()))

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
        """Euclidean metric on a point cloud in R^d, its distances from
        ``_coord_rows``.  The triangle check is skipped when
        ``_rounding_bound`` shows that it cannot fail; every other check
        runs."""
        try:
            c = np.asarray(coords, dtype=float)
        except ValueError:
            _check_rows(coords, "coords")
            raise
        if c.ndim != 2:
            raise MetricError("coords must be a 2-D array")
        n, m = c.shape
        d = np.empty((n, n))
        for a, rows in _coord_rows(c):
            d[a:a + len(rows)] = rows
        if _rounding_bound(m, np.max(d, initial=0.0)) <= METRIC_TOL:
            d = d.view(_Certified)
        return cls(d)

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteMetricSpace":
        if not isinstance(obj, dict):
            raise MetricError("space JSON must be an object with 'dist' or 'coords'")
        if "coords" in obj:
            return cls.from_coords(obj["coords"])
        if "dist" in obj:
            try:
                d = np.asarray(obj["dist"], dtype=float)
            except ValueError:
                _check_rows(obj["dist"], "dist")
                raise
            if "n" in obj and obj["n"] != d.shape[0]:
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
        _check_points([i], self.source.n, "source point")
        return int(self.image[i])

    def distortion(self):
        """Max over source pairs of ||f(x),f(y)| - |x,y||, with a witness pair."""
        gap = self.target.dist[np.ix_(self.image, self.image)]
        np.abs(np.subtract(gap, self.source.dist, out=gap), out=gap)
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
# bytes of the row matrix of one block of greedy trials in gh_distance_bound:
# 8 trials at 256 x 256 points, one from about 724 x 724 up
_GH_BLOCK = 16 * BUDGET


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


def _greedy_maps(X: FiniteMetricSpace, Y: FiniteMetricSpace, ax, ay) -> np.ndarray:
    """Anchored greedy matchings, one row per trial t: map ax[t] to ay[t],
    then place the remaining points so each new assignment minimizes the
    worst distance discrepancy against the points already placed, the first
    minimizer winning ties.  The k-th point of every trial is placed in the
    same numpy calls.

    Sending the k-th placed point x to y costs ``cost[y] = max_p |dY[f(p), y]
    - dX[x, p]|`` over the placed p.  The max over the anchor and the last
    two placed points alone is a lower bound ``lb <= cost``.  With ``c0`` the
    full cost of ``y0 = argmin(lb)``, every minimizer y has ``lb[y] <=
    cost[y] = min(cost) <= c0``, so all of them are candidates ``lb <= c0``.
    Only those get a full cost, the max of ``lb`` and the points in between;
    the others cost inf, so the first minimizer along ascending y is the one
    a full scan would pick.  The costs are the same floats, as ``abs`` and
    ``max`` are exact, so each image is the same as that of the full scan.
    Each trial keeps its own ``lb`` and ``c0``.
    """
    ax, ay = np.asarray(ax, dtype=int), np.asarray(ay, dtype=int)
    dX, dY, m = X.dist, Y.dist, Y.n
    trial = np.arange(len(ax))
    order = np.argsort(dX[ax], axis=1, kind="stable")
    # row t*m + y, column j: dY[y, f(order[t, j])] once placed (dY is
    # symmetric), so the gaps of a candidate to the points between are one
    # contiguous slice
    rows = np.empty((len(ax) * m, X.n))
    cols = rows.reshape(len(ax), m, X.n)
    image = np.empty((len(ax), X.n), dtype=int)
    image[trial, order[:, 0]] = ay
    # dY rows of the anchor's image and of the last two placed points' images
    first = last = cols[:, :, 0] = dY[ay]
    # the ufunc reductions are called directly: on these short rows the
    # Python wrapper ndarray.max is a large share of a step's cost
    for k in range(1, X.n):
        dx = dX[order[:, k, None], order[:, :k]]
        lb = np.maximum(np.abs(first - dx[:, :1]), np.abs(last - dx[:, k - 1:]))
        if k > 2:
            np.maximum(lb, np.abs(before - dx[:, k - 2:k - 1]), out=lb)
        y0 = lb.argmin(axis=1)
        c0 = np.maximum.reduce(np.abs(rows[trial * m + y0, :k] - dx), axis=1)
        cand = (lb <= c0[:, None]).ravel().nonzero()[0]  # row indices t*m + y
        mid = slice(1, max(k - 2, 1))
        gaps = np.abs(rows[cand, mid] - dx[cand // m, mid])
        cost = np.full(lb.size, np.inf)
        cost[cand] = np.maximum(lb.ravel()[cand], np.maximum.reduce(gaps, axis=1, initial=0.0))
        y = cost.reshape(lb.shape).argmin(axis=1)
        image[trial, order[:, k]] = y
        before, last = last, dY[y]
        cols[:, :, k] = last
    return image


def _map_epsilon(X, Y, image) -> float:
    pm = PointMap(X, Y, image)
    return max(pm.distortion()[0], pm.surjectivity_defect()[0])


def _anchors(nx: int, ny: int, trials: int, seed: int) -> tuple:
    """The first ``trials`` anchor pairs (x, y) of ``gh_distance_bound``, as
    two index arrays: the pairs in product order, index x * ny + y, after a
    shuffle by ``default_rng(seed)``.  The index array is shuffled in place
    of the list of pairs, which gives the same permutation."""
    perm = np.arange(nx * ny)
    np.random.default_rng(seed).shuffle(perm)
    return divmod(perm[:trials], ny)


def gh_distance_bound(X: FiniteMetricSpace, Y: FiniteMetricSpace,
                      trials: int = 16, seed: int = 0):
    """Seeded heuristic bracket (lower, upper) for the GH distance.

    lower: half the diameter difference, valid from the distortion condition.
    upper: the best epsilon achieved by candidate maps in both directions
    (identity first when sizes agree, then anchored greedy matchings).

    The anchor pairs come from a seeded shuffle (``_anchors``).  The greedy
    matchings of each direction run in blocks of trials, one ``_greedy_maps``
    call per block, whose row matrix of 8 * X.n * Y.n bytes per trial stays
    within ``_GH_BLOCK`` (at least one trial per block).
    """
    if trials < 1:
        raise MetricError("trials must be >= 1")
    lower = abs(X.diameter() - Y.diameter()) / 2.0
    upper = math.inf
    if X.n == Y.n:
        ident = np.arange(X.n)
        upper = max(_map_epsilon(X, Y, ident), _map_epsilon(Y, X, ident))
    ax, ay = _anchors(X.n, Y.n, trials, seed)
    block = max(1, _GH_BLOCK // (8 * X.n * Y.n))
    for a in range(0, len(ax), block):
        fs = _greedy_maps(X, Y, ax[a:a + block], ay[a:a + block])
        gs = _greedy_maps(Y, X, ay[a:a + block], ax[a:a + block])
        for f, g in zip(fs, gs):
            upper = min(upper, max(_map_epsilon(X, Y, f), _map_epsilon(Y, X, g)))
    return lower, float(upper)


def comparison_angle(space: FiniteMetricSpace, x: int, p: int, y: int) -> float:
    """Angle at p of the flat comparison triangle for (x, p, y), in radians.

    The cosine argument is clamped to [-1, 1] before arccos.
    """
    _check_points((x, p, y), space.n, "angle point")
    a, b, c = space.dist[p, x], space.dist[p, y], space.dist[x, y]
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
    if len(pairs) == 0:
        raise MetricError("a strainer needs at least one pair")
    _check_points([p, *itertools.chain(*pairs)], space.n, "strainer point")
    margins = [comparison_angle(space, a, p, b) - (math.pi - delta) for a, b in pairs]
    half = math.pi / 2.0 - delta
    for (ai, bi), (aj, bj) in itertools.permutations(pairs, 2):
        margins.append(comparison_angle(space, ai, p, bj) - half)
    for (ai, bi), (aj, bj) in itertools.combinations(pairs, 2):
        margins += [comparison_angle(space, ai, p, aj) - half,
                    comparison_angle(space, bi, p, bj) - half]
    length = min(min(space.dist[p, a], space.dist[p, b]) for a, b in pairs)
    worst = min(margins)
    return StrainerReport(ok=worst > 0.0, worst_margin=float(worst), length=float(length))
