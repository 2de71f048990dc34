"""Straightforward reference implementations of intersection enumeration,
the downward-closure check, maximal simplices and the partition of unity.
The tests compare nervekit's bitset cover core and its linear complex checks
against them."""
import itertools

import numpy as np

from nervekit.cover import IntersectionRecord
from nervekit.complex import ComplexError


def chebyshev_center(cover, members):
    """Member with the largest clearance from the complement of the
    intersection; ties broken by lowest point index."""
    space = cover.space
    comp = [i for i in range(space.n) if i not in members]
    best, best_d = None, -1.0
    for x in sorted(members):
        d = space.diameter() + 1.0 if not comp else float(space.dist[x, comp].min())
        if d > best_d:
            best, best_d = x, d
    return best


def intersections(cover, max_order):
    """Breadth-first enumeration over frozensets, one record per nonempty
    intersection of at most max_order sets."""
    records = []
    frontier = []
    for j in range(cover.n_sets):
        rec = IntersectionRecord(frozenset([j]), cover.sets[j], cover.centers[j])
        records.append(rec)
        frontier.append(rec)
    for _ in range(2, max_order + 1):
        nxt = []
        seen = set()
        for rec in frontier:
            top = max(rec.indices)
            for j in range(top + 1, cover.n_sets):
                idx = rec.indices | {j}
                if idx in seen:
                    continue
                members = rec.members & cover.sets[j]
                if members:
                    seen.add(idx)
                    nxt.append(
                        IntersectionRecord(idx, members, chebyshev_center(cover, members))
                    )
        records.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return records


def brute_force_intersections(cover, max_order):
    """Every subset of at most max_order sets, tried one by one, in the
    documented record order: by size, then lexicographically."""
    records = []
    for k in range(1, max_order + 1):
        for idx in itertools.combinations(range(cover.n_sets), k):
            members = frozenset.intersection(*(cover.sets[j] for j in idx))
            if members:
                center = (cover.centers[idx[0]] if k == 1
                          else chebyshev_center(cover, members))
                records.append(IntersectionRecord(frozenset(idx), members, center))
    return records


def check_closed(n_vertices, simplices):
    """Full downward-closure check over every face of every simplex."""
    sims = frozenset(frozenset(s) for s in simplices)
    for s in sims:
        if not s:
            raise ComplexError("empty simplex not allowed")
        if min(s) < 0 or max(s) >= n_vertices:
            raise ComplexError(f"vertex out of range in {sorted(s)}")
        for v in s:
            if frozenset([v]) not in sims:
                raise ComplexError("complex is not downward closed")
        for k in range(1, len(s)):
            for face in itertools.combinations(s, k):
                if frozenset(face) not in sims:
                    raise ComplexError("complex is not downward closed")
    return sims


def maximal_simplices(simplices):
    """Quadratic scan: simplices that are a proper subset of none."""
    out = []
    for s in simplices:
        if not any(s < t for t in simplices):
            out.append(tuple(sorted(s)))
    return sorted(out)


def pou_values(cover, f_weight):
    """Partition of unity from the per-point f_weight loop."""
    raw = np.zeros((cover.space.n, cover.n_sets))
    for j in range(cover.n_sets):
        for x in cover.sets[j]:
            raw[x, j] = f_weight(cover, j, x)
    return raw / raw.sum(axis=1)[:, None]
