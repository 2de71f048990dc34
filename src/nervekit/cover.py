"""Covers of a finite metric space: ball covers from greedy nets,
intersection enumeration and the heuristic goodness report.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .metric import FiniteMetricSpace

BETWEEN_TOL = 1e-9


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class Cover:
    """An indexed family of point subsets with one designated center each.

    Sets model open sets of the underlying space; "open" on a finite sample
    means strict-inequality ball membership.  Construction checks that the
    sets cover, that each center belongs to its set, and (when a multiplicity
    bound is given) that no point lies in more sets than allowed.
    """

    space: FiniteMetricSpace
    sets: tuple
    centers: tuple
    radius_hint: tuple = None
    multiplicity_bound: int = None

    def __post_init__(self):
        sets = tuple(frozenset(s) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "centers", tuple(int(c) for c in self.centers))
        if len(sets) != len(self.centers):
            raise CoverError("need exactly one center per set")
        if any(not s for s in sets):
            raise CoverError("cover sets must be nonempty")
        for j, (s, c) in enumerate(zip(sets, self.centers)):
            if c not in s:
                raise CoverError(f"center {c} of set {j} is not a member")
        union = frozenset().union(*sets)
        if union != frozenset(range(self.space.n)):
            missing = sorted(set(range(self.space.n)) - union)
            raise CoverError(f"points not covered: {missing[:10]}")
        if self.multiplicity_bound is not None:
            mult = self.multiplicities()
            if mult.max() > self.multiplicity_bound:
                raise CoverError(
                    f"multiplicity {mult.max()} exceeds bound {self.multiplicity_bound}"
                )
        if self.radius_hint is not None:
            object.__setattr__(
                self, "radius_hint", tuple(float(r) for r in self.radius_hint)
            )
        # member bitsets, bit x set when point x is in the set (Python ints:
        # numpy integers would wrap past bit 63); kept out of the dataclass
        # fields so equality and JSON stay about the sets
        object.__setattr__(
            self, "_masks", tuple(sum(1 << int(x) for x in s) for s in sets)
        )

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    def multiplicities(self) -> np.ndarray:
        mult = np.zeros(self.space.n, dtype=int)
        for s in self.sets:
            mult[list(s)] += 1
        return mult

    def membership(self, x: int) -> frozenset:
        """Indices of the sets containing x."""
        return frozenset(j for j, s in enumerate(self.sets) if x in s)

    def complement_distance(self, j: int, x: int) -> float:
        """Distance from x to the complement of set j; diam+1 when the set is
        the whole space."""
        comp = [i for i in range(self.space.n) if i not in self.sets[j]]
        if not comp:
            return self.space.diameter() + 1.0
        return float(self.space.dist[x, comp].min())

    def boundary_flagged(self):
        """Sets whose center touches the complement (zero clearance)."""
        return [
            j for j in range(self.n_sets)
            if self.complement_distance(j, self.centers[j]) == 0.0
        ]

    def mesh(self) -> float:
        """Largest set diameter."""
        out = 0.0
        for s in self.sets:
            idx = sorted(s)
            if len(idx) > 1:
                out = max(out, float(self.space.dist[np.ix_(idx, idx)].max()))
        return out

    def to_json(self) -> dict:
        obj = {
            "sets": [sorted(s) for s in self.sets],
            "centers": list(self.centers),
        }
        if self.radius_hint is not None:
            obj["radius_hint"] = list(self.radius_hint)
        return obj

    @classmethod
    def from_json(cls, space: FiniteMetricSpace, obj: dict) -> "Cover":
        return cls(
            space,
            tuple(frozenset(s) for s in obj["sets"]),
            tuple(obj["centers"]),
            tuple(obj["radius_hint"]) if "radius_hint" in obj else None,
        )

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)

    @classmethod
    def load(cls, space: FiniteMetricSpace, path: str) -> "Cover":
        with open(path) as fh:
            return cls.from_json(space, json.load(fh))


def greedy_net(space: FiniteMetricSpace, separation: float, seed: int = 0):
    """Maximal separation-separated subset, greedy in a seeded order."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(space.n)
    net = []
    for x in order:
        if all(space.dist[x, y] >= separation for y in net):
            net.append(int(x))
    return net


def build_ball_cover(space: FiniteMetricSpace, radius: float, seed: int = 0) -> Cover:
    """Open balls of the given radius around a greedy maximal (radius/2)-net.

    Maximality of the net makes the balls cover: every point sits within
    radius/2 of some net point.
    """
    if radius <= 0:
        raise CoverError("radius must be positive")
    centers = greedy_net(space, radius / 2.0, seed)
    sets = tuple(space.ball(c, radius) for c in centers)
    return Cover(
        space,
        sets,
        tuple(centers),
        radius_hint=tuple(radius for _ in centers),
    )


@dataclass(frozen=True)
class IntersectionRecord:
    """A nonempty intersection of cover sets with a chosen center."""

    indices: frozenset
    members: frozenset
    center: int


def _index_sets(cover: Cover, max_order: int):
    """Yield (indices, bitmask) for every nonempty intersection of at most
    max_order sets: indices is the sorted tuple of set indices, bitmask the
    member bitset.

    Order contract: level by level (by number of sets), lexicographic within
    a level.  Each level extends the previous one by appending a larger
    index, so every index set is reached exactly once, from its prefix.
    """
    masks = cover._masks
    m = len(masks)
    frontier = [((j,), mask) for j, mask in enumerate(masks)]
    for _ in range(max_order):
        yield from frontier
        nxt = []
        for idx, mask in frontier:
            for j in range(idx[-1] + 1, m):
                meet = mask & masks[j]
                if meet:
                    nxt.append((idx + (j,), meet))
        if not nxt:
            break
        frontier = nxt


def _clearances(cover: Cover) -> np.ndarray:
    """n x m matrix of the distance from each member of set j to the
    complement of set j, by one masked min over columns per set: the floats
    ``Cover.complement_distance`` gives, but inf for a whole-space set.
    Entries off the set are inf as well and carry no meaning."""
    dist = cover.space.dist
    n = cover.space.n
    out = np.full((n, cover.n_sets), np.inf)
    for j, s in enumerate(cover.sets):
        if len(s) < n:
            inside = np.zeros(n, dtype=bool)
            inside[list(s)] = True
            members = np.flatnonzero(inside)
            out[members, j] = dist[np.ix_(members, ~inside)].min(axis=1)
    return out


def intersections(cover: Cover, max_order: int):
    """All nonempty intersections of at most max_order sets.

    Records come level by level (singletons first, then pairs, ...) and
    lexicographically by sorted indices within a level.  Singleton records
    keep the cover's designated centers; higher-order records get as center
    the member with the largest clearance from the complement of the
    intersection, ties broken by lowest point index, so a whole-space
    intersection takes its lowest member.
    """
    if max_order < 1:
        raise CoverError("max_order must be >= 1")
    n = cover.space.n
    nbytes = (n + 7) // 8
    clearance = _clearances(cover)
    records = []
    for order, level in itertools.groupby(
        _index_sets(cover, max_order), key=lambda rec: len(rec[0])
    ):
        indices, masks = zip(*level)
        if order == 1:
            records.extend(
                IntersectionRecord(frozenset(idx), cover.sets[idx[0]], cover.centers[idx[0]])
                for idx in indices
            )
            continue
        packed = np.frombuffer(
            b"".join(mask.to_bytes(nbytes, "little") for mask in masks), dtype=np.uint8
        ).reshape(len(masks), nbytes)
        rows, points = np.nonzero(
            np.unpackbits(packed, axis=1, count=n, bitorder="little")
        )
        # the complement of an intersection is the union of the sets'
        # complements, so a member's clearance is its least per-set clearance
        sets = np.array(indices)
        clear = clearance[points, sets[rows, 0]]
        for t in range(1, order):
            clear = np.minimum(clear, clearance[points, sets[rows, t]])
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        # per record: largest clearance first, then lowest point index
        ranked = np.lexsort((points, -clear, rows))
        centers = points[ranked[starts]].tolist()
        members = points.tolist()
        starts = starts.tolist()
        bounds = zip(starts, starts[1:] + [len(members)])
        records.extend(
            IntersectionRecord(frozenset(idx), frozenset(members[a:b]), c)
            for idx, (a, b), c in zip(indices, bounds, centers)
        )
    return records


@dataclass(frozen=True)
class GoodnessEntry:
    indices: tuple
    star_shaped: bool
    betti: tuple
    proxy_scale: float
    contractible_proxy: bool

    @property
    def ok(self) -> bool:
        return self.star_shaped and self.contractible_proxy


@dataclass(frozen=True)
class GoodnessReport:
    """Heuristic contractibility certificates for every nonempty intersection.

    Advisory only: star-shapedness and trivial proxy homology are evidence,
    never a proof, that the cover is good.
    """

    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json(self) -> dict:
        return {
            "advisory": True,
            "pass": self.ok,
            "entries": [
                {
                    "indices": list(e.indices),
                    "star_shaped": e.star_shaped,
                    "betti": list(e.betti),
                    "proxy_scale": e.proxy_scale,
                    "contractible_proxy": e.contractible_proxy,
                }
                for e in self.entries
            ],
        }


def _star_shaped(space: FiniteMetricSpace, members: frozenset, center: int) -> bool:
    """Every sample point metrically between a member and the center must be a
    member itself."""
    idx = sorted(members)
    for x in idx:
        via = space.dist[x, :] + space.dist[:, center]
        direct = space.dist[x, center]
        for y in np.flatnonzero(via <= direct + BETWEEN_TOL):
            if int(y) not in members:
                return False
    return True


def _proxy_scale(space: FiniteMetricSpace, members) -> float:
    idx = sorted(members)
    if len(idx) == 1:
        return 1.0
    sub = space.dist[np.ix_(idx, idx)].copy()
    np.fill_diagonal(sub, np.inf)
    return 2.0 * float(sub.min(axis=1).max())


def goodness_report(cover: Cover, max_order: int = 8) -> GoodnessReport:
    """Star-shapedness plus proxy Betti numbers for each intersection."""
    from .homology import betti, vr_complex

    entries = []
    for rec in intersections(cover, max_order):
        idx = sorted(rec.members)
        scale = _proxy_scale(cover.space, rec.members)
        sub = FiniteMetricSpace(cover.space.dist[np.ix_(idx, idx)])
        ranks = betti(vr_complex(sub, scale, max_dim=3), max_dim=2).ranks
        trivial = ranks[0] == 1 and all(r == 0 for r in ranks[1:])
        entries.append(
            GoodnessEntry(
                indices=tuple(sorted(rec.indices)),
                star_shaped=_star_shaped(cover.space, rec.members, rec.center),
                betti=ranks,
                proxy_scale=scale,
                contractible_proxy=trivial,
            )
        )
    return GoodnessReport(tuple(entries))
