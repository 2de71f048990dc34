"""Abstract simplicial complexes and barycentric points of their realization,
and the one clique enumerator behind nerves, intersection records and
Vietoris-Rips complexes.

The geometric realization sits in R^N with one coordinate per vertex and the
sup-norm between weight vectors as its distance.
"""
from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

WEIGHT_DROP = 1e-15
WEIGHT_SUM_TOL = 1e-12
_CLIQUE_CAP = 2**20  # cliques per enumeration; k sets that all meet give 2^k - 1


class ComplexError(ValueError):
    pass


def _mask(s) -> int:
    """Vertex bitset of the simplex s, whose vertices are nonnegative Python
    or numpy integers."""
    mask = 0
    try:
        for v in s:
            mask |= 1 << operator.index(v)
    except (TypeError, ValueError):  # not an integer, or a negative shift
        try:
            vertices = sorted({operator.index(v) for v in s})
        except TypeError:
            raise ComplexError(f"non-integer vertex in simplex {list(s)}") from None
        raise ComplexError(f"vertex out of range in {vertices}") from None
    return mask


def _bits(mask: int):
    """The one-bit masks of a bitset, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _vertices(mask: int) -> tuple:
    return tuple(bit.bit_length() - 1 for bit in _bits(mask))


def _row_masks(mat: np.ndarray) -> list:
    """Each row of a 2-D array as a Python-int bitset of its nonzero entries
    (Python ints: numpy integers would wrap past bit 63)."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width:(i + 1) * width], "little")
            for i in range(len(packed))]


def _unpack(masks, n: int) -> np.ndarray:
    """The bitsets masks of bits below n as the rows of a 0/1 uint8 array."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n, bitorder="little")


def _clique_levels(later, masks, max_size: int):
    """Yield, for sizes 1, 2, ... up to max_size, the (clique, meet, common)
    of the cliques whose masks AND to a nonzero meet in the graph where v has
    the larger neighbours later[v]; common: the larger vertices adjacent to
    all of it.  A clique grows from its prefix by the bits of common, lowest
    first, so each level is lexicographic.  Stop at the first empty level, or
    raise a ``ComplexError`` at a level that would pass ``_CLIQUE_CAP``
    cliques in all, built by an ``islice`` that stops one past the cap."""
    level = [(1 << v, mask, later[v]) for v, mask in enumerate(masks) if mask]
    total = 0
    for size in range(1, max_size + 1):
        total += len(level)
        if total > _CLIQUE_CAP:
            raise ComplexError(f"clique enumeration reached {total} cliques at size "
                               f"{size}, past its cap of {_CLIQUE_CAP}")
        if not level:
            return
        yield level
        if size < max_size:
            level = list(itertools.islice(
                ((clique | bit, meet, common & later[bit.bit_length() - 1])
                 for clique, prefix, common in level for bit in _bits(common)
                 if (meet := prefix & masks[bit.bit_length() - 1])),
                _CLIQUE_CAP - total + 1))


def _by_dimension(masks) -> list:
    """Nonempty vertex bitsets as one set per dimension."""
    top = max(map(int.bit_count, masks), default=0)
    return [{mask for mask in masks if mask.bit_count() == size}
            for size in range(1, top + 1)]


@dataclass(frozen=True, init=False)
class SimplicialComplex:
    """Downward-closed family of vertex index sets.

    A simplex is stored as a Python-int vertex bitset, bit v set for vertex
    v, and ``_levels[k]`` holds the k-simplices in numeric order.  The
    frozenset-of-frozensets ``simplices`` is built from them on first read.

    Construction checks only the codimension-1 faces s - {v} of each simplex
    s.  That is enough for full downward closure, by induction on the size of
    the face: any nonempty face f of s is reached by removing the vertices of
    s - f one at a time, and each step goes from a member of the family to
    one of its codimension-1 faces, which the check has found in the family.
    """

    n_vertices: int
    _levels: tuple

    def __init__(self, n_vertices: int, simplices):
        masks = set(map(_mask, simplices))
        if 0 in masks:
            raise ComplexError("empty simplex not allowed")
        self._init(n_vertices, _by_dimension(masks))

    @classmethod
    def _from_levels(cls, n_vertices: int, levels) -> "SimplicialComplex":
        """The complex whose k-simplices are the vertex bitsets levels[k]."""
        return cls.__new__(cls)._init(n_vertices, levels)

    def _init(self, n_vertices, levels):
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "_levels", tuple(map(tuple, map(sorted, levels))))
        self.__post_init__()
        return self

    def __post_init__(self):  # range and closure check; perfbench traces this name
        masks = frozenset().union(*self._levels)
        if max(masks, default=0).bit_length() > self.n_vertices:
            raise ComplexError(f"vertex out of range in {list(_vertices(max(masks)))}")
        faces = {mask ^ bit for level in self._levels[1:]
                 for mask in level for bit in _bits(mask)}
        if not faces <= masks:
            raise ComplexError("complex is not downward closed")
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_faces", faces)

    @classmethod
    def from_maximal(cls, n_vertices: int, maximal) -> "SimplicialComplex":
        """Close the given simplices under taking faces, level by level from
        the top; empty ones add nothing."""
        levels = _by_dimension(set(map(_mask, maximal)) - {0})
        for k in range(len(levels) - 1, 0, -1):
            levels[k - 1].update(mask ^ bit for mask in levels[k] for bit in _bits(mask))
        return cls._from_levels(n_vertices, levels)

    @cached_property
    def simplices(self) -> frozenset:
        """The simplices as a frozenset of vertex frozensets."""
        return frozenset(frozenset(_vertices(mask)) for mask in self._masks)

    @property
    def dim(self) -> int:
        """Largest simplex dimension; -1 for the empty complex."""
        return len(self._levels) - 1

    @property
    def vertices(self) -> frozenset:
        # the 0-simplices are distinct single bits, so their sum is their union
        return frozenset(_vertices(sum(self._levels[0]) if self._levels else 0))

    def contains(self, s) -> bool:
        try:
            return _mask(s) in self._masks
        except ComplexError:
            return False

    def maximal_simplices(self):
        """Simplices that are no proper face of another, as sorted vertex
        tuples in lexicographic order.  By downward closure, a simplex with a
        proper coface is a codimension-1 face of some simplex, so the faces
        marked by the closure check are exactly the non-maximal ones."""
        return sorted(_vertices(mask) for mask in self._masks - self._faces)

    def skeleton(self, k: int) -> "SimplicialComplex":
        if k < 0:
            raise ComplexError("skeleton dimension must be >= 0")
        return SimplicialComplex._from_levels(self.n_vertices, self._levels[:k + 1])

    def relabel(self, perm) -> "SimplicialComplex":
        """Apply the vertex permutation perm (old index -> new index)."""
        return SimplicialComplex(
            self.n_vertices,
            frozenset(frozenset(perm[v] for v in s) for s in self.simplices),
        )

    def is_isomorphic_under(self, perm, other: "SimplicialComplex") -> bool:
        return self.relabel(perm).simplices == other.simplices

    def to_json(self) -> dict:
        return {
            "n": self.n_vertices,
            "simplices": [list(s) for s in self.maximal_simplices()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SimplicialComplex":
        return cls.from_maximal(int(obj["n"]), obj["simplices"])

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json(), sort_keys=True))

    @classmethod
    def load(cls, path: str) -> "SimplicialComplex":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class BarycentricPoint:
    """A point of a geometric realization as a sparse vertex-weight map.

    Weights below ``WEIGHT_DROP`` are discarded and the rest renormalized, so
    the support is always exactly the set of carried keys.  The total is
    summed left to right in key order, so that every Python version gives
    the same floats (``sum`` compensates from 3.12 on).
    """

    __slots__ = ("weights",)

    def __init__(self, weights: dict):
        w = {int(v): float(c) for v, c in weights.items() if c > WEIGHT_DROP}
        if not w:
            raise ComplexError("barycentric point needs positive weight")
        total = functools.reduce(operator.add, w.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            w = {v: c / total for v, c in w.items()}
        self.weights = w

    @classmethod
    def vertex(cls, j: int) -> "BarycentricPoint":
        return cls({j: 1.0})

    @property
    def support(self) -> frozenset:
        return frozenset(self.weights)

    def __getitem__(self, v: int) -> float:
        return self.weights.get(v, 0.0)

    def __eq__(self, other) -> bool:
        return isinstance(other, BarycentricPoint) and self.weights == other.weights

    def __hash__(self):
        return hash(frozenset(self.weights.items()))

    def __repr__(self):
        inside = ", ".join(f"{v}: {c:.6g}" for v, c in sorted(self.weights.items()))
        return "BarycentricPoint({%s})" % inside

    def to_json(self) -> dict:
        return {str(v): c for v, c in sorted(self.weights.items())}

    @classmethod
    def from_json(cls, obj: dict) -> "BarycentricPoint":
        return cls({int(v): float(c) for v, c in obj.items()})


def realization_distance(a: BarycentricPoint, b: BarycentricPoint) -> float:
    """Sup-norm of the weight difference over the union of supports."""
    keys = set(a.weights) | set(b.weights)
    return max(abs(a[v] - b[v]) for v in keys)


def combine(a: BarycentricPoint, b: BarycentricPoint, s: float) -> BarycentricPoint:
    """Convex combination (1-s)a + sb with bit-exact endpoints."""
    if s == 0.0:
        return a
    if s == 1.0:
        return b
    keys = set(a.weights) | set(b.weights)
    return BarycentricPoint({v: a[v] + s * (b[v] - a[v]) for v in keys})
