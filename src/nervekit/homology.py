"""GF(2) simplicial homology and Vietoris-Rips reference complexes.

Betti numbers over the two-element field are the desk-scale proxy for
homotopy-type agreement; torsion is out of scope.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import SimplicialComplex
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


def boundary_matrix(K: SimplicialComplex, k: int) -> np.ndarray:
    """GF(2) boundary matrix from k-simplices to (k-1)-simplices."""
    highs = K.k_simplices(k)
    lows = K.k_simplices(k - 1)
    low_index = {s: i for i, s in enumerate(lows)}
    mat = np.zeros((len(lows), len(highs)), dtype=np.uint8)
    for j, s in enumerate(highs):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            mat[low_index[face], j] = 1
    return mat


@dataclass(frozen=True)
class BettiVector:
    ranks: tuple
    truncation_dim: int

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))


def _bitsets_by_size(K: SimplicialComplex):
    """Vertex bitsets of the simplices of K, one sorted list per dimension."""
    by_size = {}
    for s in K.simplices:
        mask = 0
        for v in s:
            mask |= 1 << v
        by_size.setdefault(len(s), []).append(mask)
    return [sorted(by_size[size]) for size in range(1, len(by_size) + 1)]


def _boundary_columns(lows, highs, cleared):
    """Bitset columns of the boundary map from the simplices highs to their
    faces lows (row i is lows[i]), skipping the columns listed in cleared."""
    row = {mask: i for i, mask in enumerate(lows)}
    for j, mask in enumerate(highs):
        if j in cleared:
            continue
        col, rest = 0, mask
        while rest:
            bit = rest & -rest
            col |= 1 << row[mask ^ bit]
            rest ^= bit
        yield col


def betti(K: SimplicialComplex, max_dim: int = None) -> BettiVector:
    """GF(2) Betti numbers b_0..b_max_dim of a nonempty complex.

    The boundary ranks come from column reduction, from the top dimension
    down with clearing: a k-simplex that is the pivot of a reduced
    (k+1)-column is the highest term of a k-cycle, so its own boundary
    column is a sum of earlier columns and reduces to zero; it is skipped.
    """
    if not K.simplices:
        raise HomologyError("empty complex has no homology")
    by_size = _bitsets_by_size(K)
    dim = len(by_size) - 1
    top = dim if max_dim is None else min(max_dim, dim)
    # rank[k]: rank of the boundary map from k-simplices to (k-1)-simplices
    rank = [0] * (top + 2)
    cleared = {}
    for k in range(min(top + 1, dim), 0, -1):
        cleared = _pivots(_boundary_columns(by_size[k - 1], by_size[k], cleared))
        rank[k] = len(cleared)
    ranks = [len(by_size[k]) - rank[k] - rank[k + 1] for k in range(top + 1)]
    return BettiVector(tuple(ranks), truncation_dim=top)


def vr_complex(space: FiniteMetricSpace, scale: float, max_dim: int = 3) -> SimplicialComplex:
    """Vietoris-Rips complex: every clique of at most max_dim + 1 points of
    the graph with edges of length <= scale.

    Cliques grow level by level, each by a vertex larger than its last one
    taken from the bitset of their common larger neighbours, so every clique
    is built once.
    """
    if scale <= 0:
        raise HomologyError("scale must be positive")
    packed = np.packbits(np.triu(space.dist <= scale, k=1), axis=1, bitorder="little")
    later = [int.from_bytes(row.tobytes(), "little") for row in packed]
    level = [((v,), later[v]) for v in range(space.n)]
    cliques = []
    for _ in range(max_dim):
        cliques.extend(clique for clique, _common in level)
        grown = []
        for clique, common in level:
            while common:
                bit = common & -common
                v = bit.bit_length() - 1
                grown.append((clique + (v,), common & later[v]))
                common ^= bit
        level = grown
    cliques.extend(clique for clique, _common in level)
    return SimplicialComplex(space.n, cliques)


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
