"""Nerve complex of a cover: the cliques of its 1-skeleton whose sets share a point."""
from __future__ import annotations

from .complex import SimplicialComplex, _clique_levels
from .cover import Cover, CoverError

DEFAULT_MAX_DIM = 8


def nerve_of(cover: Cover, max_dim: int = DEFAULT_MAX_DIM) -> SimplicialComplex:
    """One vertex per cover set, one k-simplex per nonempty (k+1)-fold
    intersection, truncated above max_dim: the index bitsets of the cliques
    that ``intersections(cover, max_dim + 1)`` enumerates, level by level."""
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    return SimplicialComplex._from_levels(cover.n_sets, [
        [clique for clique, _meet, _common in level]
        for level in _clique_levels(cover._later, cover._masks, max_dim + 1)
    ])


def require_full_nerve(cover: Cover, max_dim: int):
    """Reject a cover whose nerve would be truncated at max_dim: a point in
    more than max_dim + 1 sets spans a simplex the truncated nerve lacks."""
    multiplicity = int(cover.multiplicities().max())
    if multiplicity > max_dim + 1:
        raise CoverError(
            f"cover multiplicity {multiplicity} needs nerve simplices of "
            f"dimension {multiplicity - 1}, above max_dim {max_dim}; "
            f"raise max_dim to at least {multiplicity - 1}"
        )
