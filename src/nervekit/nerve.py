"""Nerve complex of a cover: the cliques of its 1-skeleton whose sets share a point."""
from __future__ import annotations

from .complex import SimplicialComplex, _clique_levels
from .cover import Cover


def nerve_of(cover: Cover, max_dim: int = None) -> SimplicialComplex:
    """One vertex per cover set, one k-simplex per nonempty (k+1)-fold
    intersection: the index bitsets of the cliques that ``intersections``
    enumerates, level by level.  The whole nerve unless max_dim is given,
    which keeps only its max_dim-skeleton."""
    if max_dim is not None and max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    size = cover.n_sets if max_dim is None else max_dim + 1
    return SimplicialComplex._from_levels(cover.n_sets, [
        [clique for clique, _meet, _common in level]
        for level in _clique_levels(cover._later, cover._masks, size)
    ])
