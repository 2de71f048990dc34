"""Covers of a finite metric space: ball covers from greedy nets,
intersection enumeration and the heuristic goodness report.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .complex import _clique_levels, _row_masks, _unpack
from . import metric
from .metric import METRIC_TOL, FiniteMetricSpace, _check_points, _nn_spacings

BETWEEN_TOL = 1e-9


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class Cover:
    """An indexed family of point subsets with one designated center each.

    Sets model open sets of the underlying space; "open" on a finite sample
    means strict-inequality ball membership.  Construction checks that the
    members and centers are points, that the sets cover, that each center
    belongs to its set, and (when a multiplicity bound is given) that no
    point lies in more sets than allowed.  ``member`` is the read-only n x m
    boolean matrix of point x in set j; the enumeration reads its columns as
    bitsets, ``_masks``, and the nerve's 1-skeleton, ``_later`` (built on
    first use).  None is a field, so equality and JSON stay about the sets.
    """

    space: FiniteMetricSpace
    sets: tuple
    centers: tuple
    radius_hint: tuple = None
    multiplicity_bound: int = None

    def __post_init__(self):
        n, sets = self.space.n, []
        for j, s in enumerate(self.sets):
            # checked first: a member must be hashable, and a member -1
            # would silently mark the last point
            _check_points(s, n, f"set {j} member", CoverError)
            sets.append(frozenset(s))
        object.__setattr__(self, "sets", tuple(sets))
        centers = tuple(self.centers)
        _check_points(centers, n, "center", CoverError)
        object.__setattr__(self, "centers", tuple(map(int, centers)))
        if len(sets) != len(self.centers):
            raise CoverError("need exactly one center per set")
        if self.radius_hint is not None:
            hints = tuple(float(r) for r in self.radius_hint)
            if len(hints) != len(sets):
                raise CoverError(f"{len(sets)} sets but {len(hints)} radius hints")
            object.__setattr__(self, "radius_hint", hints)
        if any(not s for s in sets):
            raise CoverError("cover sets must be nonempty")
        member = np.zeros((n, len(sets)), dtype=bool)
        for j, (s, c) in enumerate(zip(sets, self.centers)):
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
        # the columns of member as bitsets, bit x set when point x is in the set
        object.__setattr__(self, "_masks", tuple(_row_masks(member.T)))

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
    def _later(self) -> list:
        """Bit k of entry j set when k > j and sets j and k meet."""
        masks = self._masks
        return [sum(1 << k for k in range(j + 1, len(masks)) if mask & masks[k])
                for j, mask in enumerate(masks)]

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
        if not isinstance(obj, dict):
            raise CoverError("cover JSON must be an object")
        items = {"sets": (list, " of arrays"), "centers": (object, ""),
                 "radius_hint": ((int, float), " of numbers")}
        for key, (item, what) in items.items():
            value = obj.get(key, [] if key == "radius_hint" else None)
            if not (isinstance(value, list) and all(isinstance(v, item) for v in value)):
                raise CoverError(f"cover JSON {key!r} must be an array{what}")
        return cls(space, obj["sets"], obj["centers"], obj.get("radius_hint"))

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json(), sort_keys=True))

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


def _records(cover: Cover, max_order: int):
    """Yield, for orders 1, 2, ... up to max_order, the list of (sorted index
    tuple, members, center) of the nonempty intersections of that many sets:
    the cliques of the nerve's 1-skeleton whose member bitsets meet, in the
    order of ``_clique_levels``.  One ``np.unpackbits`` per level unpacks the
    index tuples, and one more the member bitsets not seen before, each into
    a frozenset and a center that every record with those members shares.
    Centers are as documented in ``intersections``."""
    if max_order < 1:
        raise CoverError("max_order must be >= 1")
    n = cover.space.n
    shared = {}  # member bitset -> (frozenset, center)
    for order, level in enumerate(_clique_levels(cover._later, cover._masks, max_order),
                                  start=1):
        cliques, meets, _common = zip(*level)
        sets = (np.flatnonzero(_unpack(cliques, cover.n_sets)) % cover.n_sets).reshape(-1, order)
        first = {}  # member bitset not seen before -> row of its first index set
        for row, meet in enumerate(meets):
            if meet not in shared:
                first.setdefault(meet, row)
        bits = _unpack(list(first), n)
        rows, points = np.divmod(np.flatnonzero(bits), n)
        # the complement of an intersection is the union of the sets'
        # complements, so a member's clearance is its least per-set
        # clearance: the same floats for every index set with these members
        clear = cover.clearance[points[:, None], sets[list(first.values())][rows]].min(axis=1)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        # per bitset: the first member, so the lowest point, of largest clearance
        centers = points[np.lexsort((-clear, rows))[starts]].tolist()
        listed, bounds = points.tolist(), starts.tolist() + [len(points)]
        for meet, a, b, c in zip(first, bounds, bounds[1:], centers):
            shared[meet] = (frozenset(listed[a:b]), c)
        # singletons keep the cover's designated centers
        yield [(idx, members, cover.centers[idx[0]] if order == 1 else center)
               for idx, (members, center) in zip(map(tuple, sets.tolist()),
                                                 map(shared.get, meets))]


def intersections(cover: Cover, max_order: int):
    """All nonempty intersections of at most max_order sets.

    Records come level by level (singletons first, then pairs, ...) and
    lexicographically by sorted indices within a level.  Singleton records
    keep the cover's designated centers; higher-order records get as center
    the member with the largest clearance from the complement of the
    intersection, ties broken by lowest point index, so a whole-space
    intersection takes its lowest member.  That center depends only on the
    members, so it is found once per distinct member set, and records with
    equal members share one frozenset.
    """
    return [IntersectionRecord(frozenset(idx), members, center)
            for level in _records(cover, max_order) for idx, members, center in level]


class GoodnessEntry(NamedTuple):
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
            "entries": [e._asdict() for e in self.entries],
        }


def _size_chunks(sets: list, cost):
    """Yield (positions, points) for the member sets of one size at a time,
    in chunks of as many as fit in ``BUDGET`` at cost(size) bytes each (at
    least one): their positions in sets, and the G x size array of their
    sorted members."""
    groups = {}
    for i, members in enumerate(sets):
        groups.setdefault(len(members), []).append(i)
    for size, positions in groups.items():
        step = max(1, metric.BUDGET // cost(size))
        for a in range(0, len(positions), step):
            chunk = positions[a:a + step]
            yield chunk, np.array([sorted(sets[i]) for i in chunk])


def _stars(dist: np.ndarray, keys: list) -> list:
    """Whether each (members, center) key is star-shaped: every sample point
    metrically between a member and the center must be a member itself.

    x is between member m and center c when ``fl(d[m, x] + d[x, c]) <= R_m =
    fl(d[m, c] + BETWEEN_TOL)``.  Only columns with ``fl(d[x, c] - METRIC_TOL)
    <= max_m R_m`` are tested, and they hold every such x: entries are at
    least -METRIC_TOL and rounding is monotone, so ``fl(d[x, c] - METRIC_TOL)
    <= fl(d[m, x] + d[x, c]) <= R_m``.  Keys of one size go together, each
    chunk over its (key, tested non-member column) pairs."""
    n = len(dist)
    out = np.ones(len(keys), dtype=bool)
    for positions, pts in _size_chunks([members for members, _c in keys],
                                       lambda size: 8 * n * size):
        rows = np.arange(len(pts))[:, None]
        # d[c, x] = d[x, c]: the stored matrix is exactly symmetric
        to_center = dist[[keys[i][1] for i in positions]]
        reach = to_center[rows, pts] + BETWEEN_TOL
        tested = to_center - METRIC_TOL <= reach.max(axis=1, keepdims=True)
        tested[rows, pts] = False  # a member is never a violation
        key, x = np.nonzero(tested)
        between = dist[pts[key], x[:, None]] + to_center[key, x][:, None] <= reach[key]
        out[np.array(positions)[key[between.any(axis=1)]]] = False
    return out.tolist()


def _star_shaped(space: FiniteMetricSpace, members: frozenset, center: int) -> bool:
    """The star check of ``_stars`` for one key."""
    return _stars(space.dist, [(members, center)])[0]


def _proxies(dist: np.ndarray, sets: list) -> list:
    """(proxy scale, Betti ranks) of each member set: twice its largest
    nearest-neighbour distance (1.0 for one member) and ``_proxy_betti`` of
    its principal submatrix at that scale, a chunk at a time, from one
    ``np.packbits`` of every closed neighbourhood in it.  A scale that is
    not positive is returned with ranks None."""
    from .homology import _collapsed_betti

    out = [None] * len(sets)
    for positions, pts in _size_chunks(sets, lambda size: 8 * size * size):
        size = pts.shape[1]
        # principal submatrices: exactly symmetric, zero diagonal, >= -METRIC_TOL
        sub = dist[pts[:, :, None], pts[:, None, :]]
        scales = 2.0 * _nn_spacings(sub) if size > 1 else np.ones(len(pts))
        good = scales > 0
        nbr = _row_masks((sub[good] <= scales[good, None, None]).reshape(-1, size))
        ranks = (_collapsed_betti(nbr[a:a + size]) for a in range(0, len(nbr), size))
        for i, scale, ok in zip(positions, scales.tolist(), good.tolist()):
            out[i] = (scale, next(ranks) if ok else None)
    return out


def goodness_report(cover: Cover, max_order: int = 8) -> GoodnessReport:
    """Star-shapedness plus proxy Betti numbers for each intersection.

    Distinct index sets often meet in the same members.  The proxy scale and
    Betti numbers depend only on the members, and star-shapedness also on
    the center, so each is computed once per distinct key, the keys of one
    size in ``BUDGET`` chunks.  Raises a ``CoverError`` for the first
    intersection whose members all coincide with others, which has no
    proxy scale.
    """
    dist = cover.space.dist
    records = [record for level in _records(cover, max_order) for record in level]
    first = {}  # members -> the index tuple of their first record
    for idx, members, _center in records:
        first.setdefault(members, idx)
    proxies = {}
    for (members, idx), (scale, ranks) in zip(first.items(), _proxies(dist, list(first))):
        if ranks is None:
            a, *rest = sorted(members)
            b = min(rest, key=lambda x: dist[a, x])
            raise CoverError(f"intersection of sets {list(idx)} has no goodness proxy scale: "
                             f"each of its members coincides with another, as points {a} "
                             f"and {b} do (distance {float(dist[a, b])!r})")
        # the last three fields of a GoodnessEntry
        proxies[members] = (ranks, scale, ranks[0] == 1 and not any(ranks[1:]))
    keys = list(dict.fromkeys((members, center) for _idx, members, center in records))
    stars = dict(zip(keys, _stars(dist, keys)))
    return GoodnessReport(tuple(GoodnessEntry(idx, stars[members, center], *proxies[members])
                                for idx, members, center in records))
