"""The Lipschitz partition of unity of a cover and the induced nerve map.

Each set contributes the weight

    f_j(x) = |x, U_j^c| / (|x, U_j^c| + |x, p_j|)

which is positive exactly on U_j; normalizing the row of weights gives the
partition of unity and the barycentric image of a point in the nerve.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .complex import BarycentricPoint
from .cover import Cover, CoverError
from .metric import FiniteMetricSpace, _check_points


class PartitionOfUnity:
    """Row-stochastic matrix of normalized weights, one row per point."""

    def __init__(self, cover: Cover):
        clearance = cover.clearance
        # a whole-space set's clearance is inf, never zero
        for j, c in enumerate(cover.centers):
            if clearance[c, j] == 0.0:
                raise CoverError(
                    f"center {c} of set {j} has zero clearance "
                    "from the complement; choose an interior center"
                )
        self.cover = cover
        # a whole-space set's infinite clearance reads as diam+1, so its
        # weight stays in (0, 1]; every other clearance is at most diam
        clearance = np.minimum(clearance, cover.space.diameter() + 1.0)
        to_center = cover.space.dist[:, list(cover.centers)]
        raw = np.where(cover.member, clearance / (clearance + to_center), 0.0)
        totals = raw.sum(axis=1)
        if np.any(totals <= 0):
            missing = int(np.argmin(totals))
            raise CoverError(f"cover violation: point {missing} has no positive weight")
        self.values = raw / totals[:, None]

    def theta(self, x: int) -> BarycentricPoint:
        """Barycentric image of x in the nerve realization."""
        _check_points([x], len(self.values), "point", CoverError)
        row = self.values[x]
        return BarycentricPoint(
            {j: row[j] for j in np.flatnonzero(row)}
        )

    def support(self, x: int) -> frozenset:
        _check_points([x], len(self.values), "point", CoverError)
        return frozenset(int(j) for j in np.flatnonzero(self.values[x]))


@dataclass(frozen=True)
class LipschitzEstimate:
    value: float
    witness: tuple
    pairs_checked: int
    mode: str


def estimate_lipschitz(space: FiniteMetricSpace, images, image_dist,
                       seed: int = 0, sample_pairs: int = 200000,
                       exhaustive_cap: int = 2000) -> LipschitzEstimate:
    """Empirical Lipschitz constant of a point-indexed map.

    images[i] is the image of point i and image_dist compares two images.
    All pairs are checked when the space is small; otherwise a seeded uniform
    sample of pairs is used and the mode records the seed.
    """
    n = space.n
    if n < 2:
        raise ValueError("need at least 2 points")
    if n <= exhaustive_cap:
        pairs = itertools.combinations(range(n), 2)
        mode = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, n, size=(sample_pairs, 2))
        pairs = (tuple(p) for p in raw if p[0] != p[1])
        mode = f"sampled(seed={seed})"
    best = 0.0
    witness = None
    count = 0
    for i, j in pairs:
        base = space.dist[i, j]
        if base == 0.0:
            continue
        ratio = image_dist(images[i], images[j]) / base
        count += 1
        if ratio > best:
            best, witness = ratio, (int(i), int(j))
    return LipschitzEstimate(float(best), witness, count, mode)
