"""GF(2) simplicial homology and Vietoris-Rips reference complexes.

Betti numbers over the two-element field are the desk-scale proxy for
homotopy-type agreement; torsion is out of scope.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import SimplicialComplex, _bits
from .cover import Cover
from .metric import FiniteMetricSpace
from .nerve import nerve_of


class HomologyError(ValueError):
    pass


def _pivots(columns) -> dict:
    """Column reduction over GF(2).  Each column is a Python-int bitset (bit
    i set for row i) whose pivot is its highest set row.  A column is
    reduced by adding the stored column with the same pivot until its pivot
    is new or it is zero.  Returns the pivot map, pivot row -> reduced
    column; its size is the rank."""
    pivots = {}
    for col in columns:
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            col ^= other
    return pivots


def gf2_rank(mat: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2) by column reduction."""
    m = np.array(mat, dtype=np.uint8) & 1
    cols = m.shape[1]
    packed = np.packbits(m, axis=0, bitorder="little")
    width = packed.shape[0]
    data = np.ascontiguousarray(packed.T).tobytes()
    return len(_pivots(
        int.from_bytes(data[j * width:(j + 1) * width], "little") for j in range(cols)
    ))


@dataclass(frozen=True)
class BettiVector:
    ranks: tuple
    truncation_dim: int

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))


def _boundary_columns(lows, highs, cleared):
    """Bitset columns of the boundary map from the simplices highs to their
    faces lows (row i is lows[i]), skipping the columns listed in cleared."""
    row = {mask: i for i, mask in enumerate(lows)}
    return (sum(1 << row[mask ^ bit] for bit in _bits(mask))
            for j, mask in enumerate(highs) if j not in cleared)


def betti(K: SimplicialComplex, max_dim: int = None) -> BettiVector:
    """GF(2) Betti numbers b_0..b_max_dim of a nonempty complex.

    The boundary ranks come from column reduction, from the top dimension
    down with clearing: a k-simplex that is the pivot of a reduced
    (k+1)-column is the highest term of a k-cycle, so its own boundary
    column is a sum of earlier columns and reduces to zero; it is skipped.
    """
    levels = K._levels
    if not levels:
        raise HomologyError("empty complex has no homology")
    dim = len(levels) - 1
    top = dim if max_dim is None else min(max_dim, dim)
    # rank[k]: rank of the boundary map from k-simplices to (k-1)-simplices
    rank = [0] * (top + 2)
    cleared = {}
    for k in range(min(top + 1, dim), 0, -1):
        cleared = _pivots(_boundary_columns(levels[k - 1], levels[k], cleared))
        rank[k] = len(cleared)
    ranks = [len(levels[k]) - rank[k] - rank[k + 1] for k in range(top + 1)]
    return BettiVector(tuple(ranks), truncation_dim=top)


def vr_complex(space: FiniteMetricSpace, scale: float, max_dim: int = 3) -> SimplicialComplex:
    """Vietoris-Rips complex: every clique of at most max_dim + 1 points of
    the graph with edges of length <= scale.

    Cliques grow level by level, each by a vertex larger than its last one
    taken from the bitset of their common larger neighbours, so every clique
    is built once.
    """
    if not scale > 0:
        raise HomologyError("scale must be positive")
    packed = np.packbits(np.triu(space.dist <= scale, k=1), axis=1, bitorder="little")
    later = [int.from_bytes(row.tobytes(), "little") for row in packed]
    levels = [[(1 << v, later[v]) for v in range(space.n)]]
    while len(levels) <= max_dim and levels[-1]:
        levels.append([(clique | bit, common & later[bit.bit_length() - 1])
                       for clique, common in levels[-1] for bit in _bits(common)])
    return SimplicialComplex._from_levels(
        space.n, [[clique for clique, _common in level] for level in levels if level]
    )


@dataclass(frozen=True)
class NerveMatchReport:
    nerve_betti: BettiVector
    space_betti: BettiVector
    matches: bool
    note: str = (
        "homology agreement is necessary, not sufficient, for "
        "homotopy equivalence of the space and the nerve"
    )

    def to_json(self) -> dict:
        return {
            "nerve_betti": list(self.nerve_betti.ranks),
            "space_betti": list(self.space_betti.ranks),
            "truncation_dim": min(
                self.nerve_betti.truncation_dim, self.space_betti.truncation_dim
            ),
            "pass": self.matches,
            "note": self.note,
        }


def nerve_matches_space(cover: Cover, scale: float, max_dim: int = 3) -> NerveMatchReport:
    """Compare Betti numbers of the cover's nerve with those of a VR complex
    of the underlying space at the given scale."""
    nb = betti(nerve_of(cover, max_dim=max_dim), max_dim=max_dim - 1)
    sb = betti(vr_complex(cover.space, scale, max_dim=max_dim), max_dim=max_dim - 1)
    a = nb.ranks + (0,) * (max_dim - len(nb.ranks))
    b = sb.ranks + (0,) * (max_dim - len(sb.ranks))
    return NerveMatchReport(nb, sb, matches=a == b)
