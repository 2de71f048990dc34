"""Abstract simplicial complexes and barycentric points of their realization.

The geometric realization sits in R^N with one coordinate per vertex and the
sup-norm between weight vectors as its distance.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

WEIGHT_DROP = 1e-15
WEIGHT_SUM_TOL = 1e-12


class ComplexError(ValueError):
    pass


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed family of vertex index sets.

    Construction checks only the codimension-1 faces s - {v} of each simplex
    s.  That is enough for full downward closure, by induction on the size of
    the face: any nonempty face f of s is reached by removing the vertices of
    s - f one at a time, and each step goes from a member of the family to
    one of its codimension-1 faces, which the check has found in the family.
    """

    n_vertices: int
    simplices: frozenset

    def __post_init__(self):
        sims = frozenset(frozenset(s) for s in self.simplices)
        for s in sims:
            if not s:
                raise ComplexError("empty simplex not allowed")
            if min(s) < 0 or max(s) >= self.n_vertices:
                raise ComplexError(f"vertex out of range in {sorted(s)}")
            if len(s) > 1 and any(s - {v} not in sims for v in s):
                raise ComplexError("complex is not downward closed")
        object.__setattr__(self, "simplices", sims)

    @classmethod
    def from_maximal(cls, n_vertices: int, maximal) -> "SimplicialComplex":
        """Close the given simplices under taking faces."""
        sims = set()
        for s in maximal:
            s = tuple(sorted(set(s)))
            for k in range(1, len(s) + 1):
                for face in itertools.combinations(s, k):
                    sims.add(frozenset(face))
        return cls(n_vertices, frozenset(sims))

    @property
    def dim(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    @property
    def vertices(self) -> frozenset:
        return frozenset(v for s in self.simplices for v in s)

    def contains(self, s) -> bool:
        return frozenset(s) in self.simplices

    def k_simplices(self, k: int):
        """Sorted list of k-dimensional simplices as sorted tuples."""
        out = [tuple(sorted(s)) for s in self.simplices if len(s) == k + 1]
        return sorted(out)

    def maximal_simplices(self):
        """Sorted simplices that are no proper face of another.  By downward
        closure, a simplex with a proper coface is a codimension-1 face of
        some simplex, so marking those faces finds all non-maximal ones."""
        faces = {s - {v} for s in self.simplices if len(s) > 1 for v in s}
        return sorted(tuple(sorted(s)) for s in self.simplices if s not in faces)

    def skeleton(self, k: int) -> "SimplicialComplex":
        if k < 0:
            raise ComplexError("skeleton dimension must be >= 0")
        return SimplicialComplex(
            self.n_vertices,
            frozenset(s for s in self.simplices if len(s) <= k + 1),
        )

    def star(self, sigma) -> "SimplicialComplex":
        """Closed star: all cofaces of sigma together with their faces."""
        sigma = frozenset(sigma)
        if sigma not in self.simplices:
            raise ComplexError(f"{sorted(sigma)} is not a simplex of the complex")
        cofaces = [s for s in self.simplices if sigma <= s]
        return SimplicialComplex.from_maximal(self.n_vertices, cofaces)

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
            json.dump(self.to_json(), fh, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "SimplicialComplex":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class BarycentricPoint:
    """A point of a geometric realization as a sparse vertex-weight map.

    Weights below ``WEIGHT_DROP`` are discarded and the rest renormalized, so
    the support is always exactly the set of carried keys.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: dict):
        w = {int(v): float(c) for v, c in weights.items() if c > WEIGHT_DROP}
        if not w:
            raise ComplexError("barycentric point needs positive weight")
        total = sum(w.values())
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
