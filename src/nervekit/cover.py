"""Covers of a finite metric space: ball covers from greedy nets,
intersection enumeration and the heuristic goodness report.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .metric import METRIC_TOL, FiniteMetricSpace, _check_points, _nn_spacing

BETWEEN_TOL = 1e-9


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class Cover:
    """An indexed family of point subsets with one designated center each.

    Sets model open sets of the underlying space; "open" on a finite sample
    means strict-inequality ball membership.  Construction checks that the
    members are points, that the sets cover, that each center belongs to its
    set, and (when a multiplicity bound is given) that no point lies in more
    sets than allowed.  ``member`` is the read-only n x m boolean matrix of
    point x in set j; not a field, so equality and JSON stay about the sets.
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
        if self.radius_hint is not None:
            hints = tuple(float(r) for r in self.radius_hint)
            if len(hints) != len(sets):
                raise CoverError(f"{len(sets)} sets but {len(hints)} radius hints")
            object.__setattr__(self, "radius_hint", hints)
        if any(not s for s in sets):
            raise CoverError("cover sets must be nonempty")
        n = self.space.n
        member = np.zeros((n, len(sets)), dtype=bool)
        for j, (s, c) in enumerate(zip(sets, self.centers)):
            # checked first: a member -1 would silently mark the last point
            _check_points(s, n, f"set {j} member", CoverError)
            if c not in s:
                raise CoverError(f"center {c} of set {j} is not a member")
            member[list(s), j] = True
        member.setflags(write=False)
        object.__setattr__(self, "member", member)
        covered = member.any(axis=1)
        if not covered.all():
            raise CoverError(f"points not covered: {np.flatnonzero(~covered)[:10].tolist()}")
        if self.multiplicity_bound is not None:
            top = member.sum(axis=1).max()
            if top > self.multiplicity_bound:
                raise CoverError(f"multiplicity {top} exceeds bound {self.multiplicity_bound}")
        # the columns of member as bitsets, bit x set when point x is in the
        # set (Python ints: numpy integers would wrap past bit 63)
        packed = np.packbits(member.T, axis=1, bitorder="little")
        object.__setattr__(self, "_masks", tuple(
            int.from_bytes(row.tobytes(), "little") for row in packed))

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    def multiplicities(self) -> np.ndarray:
        return self.member.sum(axis=1)

    def membership(self, x: int) -> frozenset:
        """Indices of the sets containing x."""
        _check_points([x], self.space.n, "point", CoverError)
        return frozenset(np.flatnonzero(self.member[x]).tolist())

    def mesh(self) -> float:
        """Largest set diameter."""
        out = 0.0
        for idx in map(np.flatnonzero, self.member.T):
            out = max(out, float(self.space.dist[np.ix_(idx, idx)].max()))
        return out

    @cached_property
    def clearance(self) -> np.ndarray:
        """Read-only n x m matrix of the distance from each member of set j
        to the complement of set j, by one masked min over columns per set;
        inf for a whole-space set.  Entries off the set are inf as well and
        carry no meaning."""
        out = np.full(self.member.shape, np.inf)
        for j, inside in enumerate(self.member.T):
            out[inside, j] = self.space.dist[np.ix_(inside, ~inside)].min(axis=1, initial=np.inf)
        out.setflags(write=False)
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


def _net(space: FiniteMetricSpace, order, separation: float) -> list:
    """The points of order, taken in turn, that lie at least separation from
    every point taken before them."""
    net = []
    for x in order:
        if (space.dist[x, net] >= separation).all():
            net.append(int(x))
    return net


def greedy_net(space: FiniteMetricSpace, separation: float, seed: int = 0):
    """Maximal separation-separated subset, greedy in a seeded order."""
    return _net(space, np.random.default_rng(seed).permutation(space.n), separation)


def build_ball_cover(space: FiniteMetricSpace, radius: float, seed: int = 0) -> Cover:
    """Open balls of the given radius around a greedy maximal (radius/2)-net.

    Maximality of the net makes the balls cover: every point sits within
    radius/2 of some net point.
    """
    if not radius > 0:
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


def _index_levels(cover: Cover, max_order: int):
    """Yield, for orders 1, 2, ... up to max_order, the list of (indices,
    index bitset, member bitset) of the nonempty intersections of that many
    sets, lexicographic by the sorted index tuple; stop at the first empty
    order.  Each level extends the previous one by appending a larger index,
    so every index set is reached exactly once, from its prefix.
    """
    masks = cover._masks
    level = [((j,), 1 << j, mask) for j, mask in enumerate(masks)]
    for _ in range(max_order - 1):
        yield level
        level = [(idx + (j,), bits | 1 << j, meet) for idx, bits, mask in level
                 for j in range(idx[-1] + 1, len(masks)) if (meet := mask & masks[j])]
        if not level:
            return
    yield level


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
    clearance = cover.clearance
    records = []
    for order, level in enumerate(_index_levels(cover, max_order), start=1):
        indices = [idx for idx, _bits, _members in level]
        if order == 1:
            records.extend(
                IntersectionRecord(frozenset(idx), cover.sets[idx[0]], cover.centers[idx[0]])
                for idx in indices
            )
            continue
        sets = np.array(indices)
        inside = cover.member[:, sets[:, 0]]
        for t in range(1, order):
            inside &= cover.member[:, sets[:, t]]
        rows, points = np.nonzero(inside.T)
        # the complement of an intersection is the union of the sets'
        # complements, so a member's clearance is its least per-set clearance
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
    member itself.

    x is between member m and center c when ``fl(d[m, x] + d[x, c]) <= R_m =
    fl(d[m, c] + BETWEEN_TOL)``.  Only columns with ``fl(d[x, c] - METRIC_TOL)
    <= max_m R_m`` are tested, and they hold every such x: entries are at
    least -METRIC_TOL and rounding is monotone, so ``fl(d[x, c] - METRIC_TOL)
    <= fl(d[m, x] + d[x, c]) <= R_m``."""
    idx = sorted(members)
    to_center = space.dist[center]  # d[x, c]: the stored matrix is exactly symmetric
    reach = to_center[idx] + BETWEEN_TOL
    near = np.flatnonzero(to_center - METRIC_TOL <= reach.max())
    between = space.dist[np.ix_(idx, near)] + to_center[near] <= reach[:, None]
    return set(near[between.any(axis=0)].tolist()) <= members


def goodness_report(cover: Cover, max_order: int = 8) -> GoodnessReport:
    """Star-shapedness plus proxy Betti numbers for each intersection.

    Distinct index sets often meet in the same members.  The proxy scale and
    Betti numbers depend only on the members, and star-shapedness also on
    the center, so each is computed once per distinct key.
    """
    from .homology import _proxy_betti

    proxies = {}  # members -> (proxy scale, Betti ranks)
    stars = {}  # (members, center) -> star-shaped
    entries = []
    for rec in intersections(cover, max_order):
        if rec.members not in proxies:
            idx = np.array(sorted(rec.members))
            # a principal submatrix: exactly symmetric, zero diagonal, >= -METRIC_TOL
            sub = cover.space.dist[idx[:, None], idx]
            scale = 2.0 * _nn_spacing(sub) if len(idx) > 1 else 1.0
            proxies[rec.members] = (scale, _proxy_betti(sub, scale))
        scale, ranks = proxies[rec.members]
        key = (rec.members, rec.center)
        if key not in stars:
            stars[key] = _star_shaped(cover.space, *key)
        trivial = ranks[0] == 1 and all(r == 0 for r in ranks[1:])
        entries.append(GoodnessEntry(indices=tuple(sorted(rec.indices)), star_shaped=stars[key],
                                     betti=ranks, proxy_scale=scale, contractible_proxy=trivial))
    return GoodnessReport(tuple(entries))
