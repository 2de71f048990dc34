"""GF(2) simplicial homology and Vietoris-Rips reference complexes.

Betti numbers over the two-element field are the desk-scale proxy for
homotopy-type agreement; torsion is out of scope.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import SimplicialComplex, _bits, _clique_levels, _row_masks
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
    return len(_pivots(_row_masks((np.array(mat, dtype=np.uint8) & 1).T)))


@dataclass(frozen=True)
class BettiVector:
    ranks: tuple
    truncation_dim: int

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))


def _reduce(levels, top: int) -> list:
    """GF(2) Betti numbers b_0..b_top, top < len(levels), of the complex whose
    k-simplices are the vertex bitsets levels[k].  The boundary ranks come
    from column reduction, from the top dimension down with clearing: a
    k-simplex that is the pivot of a reduced (k+1)-column is the highest term
    of a k-cycle, so its own boundary column reduces to zero; it is skipped.
    """
    rank = [0] * (top + 2)  # rank[k]: rank of the boundary map out of dimension k
    cleared = {}
    for k in range(min(top + 1, len(levels) - 1), 0, -1):
        row = {mask: i for i, mask in enumerate(levels[k - 1])}
        cleared = _pivots(sum(1 << row[mask ^ bit] for bit in _bits(mask))
                          for j, mask in enumerate(levels[k]) if j not in cleared)
        rank[k] = len(cleared)
    return [len(levels[k]) - rank[k] - rank[k + 1] for k in range(top + 1)]


def betti(K: SimplicialComplex, max_dim: int = None) -> BettiVector:
    """GF(2) Betti numbers b_0..b_max_dim of a nonempty complex."""
    if not K._levels:
        raise HomologyError("empty complex has no homology")
    if max_dim is not None and max_dim < 0:
        raise HomologyError(f"max_dim must be >= 0, got {max_dim}")
    top = K.dim if max_dim is None else min(max_dim, K.dim)
    return BettiVector(tuple(_reduce(K._levels, top)), truncation_dim=top)


def _flag_levels(dist: np.ndarray, scale: float, max_dim: int) -> list:
    """Vertex bitsets of the k-simplices, k = 0..max_dim, of the flag complex
    of the edges of length <= scale, one list per nonempty level: the
    cliques of ``_clique_levels`` under masks of 1, whose meet never empties."""
    if not scale > 0:
        raise HomologyError("scale must be positive")
    if max_dim < 0:
        raise HomologyError("max_dim must be >= 0")
    later = _row_masks(np.triu(dist <= scale, k=1))
    return [[clique for clique, _meet, _common in level]
            for level in _clique_levels(later, [1] * len(dist), max_dim + 1)]


def vr_complex(space: FiniteMetricSpace, scale: float, max_dim: int = 3) -> SimplicialComplex:
    """Vietoris-Rips complex: the cliques of at most max_dim + 1 points within scale."""
    return SimplicialComplex._from_levels(space.n, _flag_levels(space.dist, scale, max_dim))


def _proxy_betti(dist: np.ndarray, scale: float) -> tuple:
    """``betti(vr_complex(FiniteMetricSpace(dist), scale, 3), 2).ranks`` of an
    exactly symmetric matrix with zero diagonal, with no complex built: the
    ``_collapsed_betti`` of its closed neighbourhoods."""
    if not scale > 0:
        raise HomologyError("scale must be positive")
    return _collapsed_betti(_row_masks(dist <= scale))


def _collapsed_betti(nbr: list) -> tuple:
    """The proxy Betti numbers of the flag complex whose closed
    neighbourhoods N[v] are the bitsets nbr.  Deleting a vertex v whose N[v]
    among the alive vertices lies in N[w] of another alive w is a strong
    collapse, which keeps the homotopy type of the flag complex (Barmak &
    Minian, DCG 2012), so the core left has the same b_0..b_2; its cliques
    come from the same bitsets.  Only the length, min(2, dim) + 1, comes
    from the whole complex: dim >= 2 when an edge has a common neighbour."""
    length = 1 + any(mask.bit_count() > 1 for mask in nbr) + any(  # edge, triangle
        (mask & nbr[bit.bit_length() - 1]).bit_count() > 2
        for v, mask in enumerate(nbr) for bit in _bits(mask ^ 1 << v))
    alive = todo = (1 << len(nbr)) - 1
    while todo:
        bit = todo & -todo
        todo ^= bit
        own = nbr[bit.bit_length() - 1] & alive
        # a dominator w is within scale of all of own, so of its ends too
        rest = own & nbr[(own & -own).bit_length() - 1] & nbr[own.bit_length() - 1] ^ bit
        while rest:
            w = rest & -rest
            if not own & ~nbr[w.bit_length() - 1]:
                alive ^= bit
                todo |= own ^ bit  # only the neighbours' neighbourhoods shrank
                break
            rest ^= w
    if alive & alive - 1:  # the core's flag complex: cliques grown by larger vertices
        later = [mask & alive & -(2 << v) for v, mask in enumerate(nbr)]
        levels = [[clique for clique, _meet, _common in level] for level in _clique_levels(
            later, [alive >> v & 1 for v in range(len(nbr))], 4)]
    else:  # one vertex
        levels = [[alive]]
    ranks = _reduce(levels, min(2, len(levels) - 1))
    return tuple(ranks) + (0,) * (length - len(ranks))


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
    """Compare Betti numbers b_0..b_{max_dim-1}, max_dim >= 1, of the cover's
    nerve with those of a VR complex of the underlying space at the given scale."""
    if max_dim < 1:
        raise HomologyError(f"max_dim must be >= 1 to compare any Betti number, got {max_dim}")
    nb = betti(nerve_of(cover, max_dim=max_dim), max_dim=max_dim - 1)
    sb = betti(vr_complex(cover.space, scale, max_dim=max_dim), max_dim=max_dim - 1)
    a = nb.ranks + (0,) * (max_dim - len(nb.ranks))
    b = sb.ranks + (0,) * (max_dim - len(sb.ranks))
    return NerveMatchReport(nb, sb, matches=a == b)
