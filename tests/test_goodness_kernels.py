"""The goodness report's proxy Betti numbers, from a dominated-vertex
collapse with no complex built, and its column-bounded star check, against
the per-member-set chain they replace (``oracles.proxy_betti``) and the scan
over every column (``oracles.star_shaped``)."""
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import spaces
from nervekit.cover import _star_shaped
from nervekit.homology import HomologyError, _proxy_betti
from nervekit.metric import METRIC_TOL, FiniteMetricSpace, _nn_spacing

# the lengths of edges and of the other pairs: copies at -METRIC_TOL / 2
# pass the triangle check next to both
EDGE, FAR = 0.6, 1.0
SCALES = [0.5, EDGE, 0.8]  # below every edge, tied with them, above them


def graph_matrix(adj, copy_of=None, perm=None):
    """The distance matrix of a graph given by its boolean adjacency matrix.
    Vertex v
    stands at copy_of[v] (default v) of the graph, so vertices that share
    one are copies, with equal closed neighbourhoods; perm relabels the
    vertices.  Copies stand -METRIC_TOL / 2 apart, the least distance that
    validation stores, as the stored matrix has a zero diagonal and must
    pass its own check d[i, i] <= d[i, j] + d[j, i] + METRIC_TOL."""
    adj = np.asarray(adj, dtype=bool)
    at = np.arange(len(adj)) if copy_of is None else np.asarray(copy_of)
    d = np.where(adj[np.ix_(at, at)], EDGE, FAR)
    d[at[:, None] == at[None, :]] = -METRIC_TOL / 2
    if perm is not None:
        d = d[np.ix_(perm, perm)]
    np.fill_diagonal(d, 0.0)
    return d


def complete(k):
    return ~np.eye(k, dtype=bool)


def cycle(k):
    adj = np.zeros((k, k), dtype=bool)
    adj[np.arange(k), (np.arange(k) + 1) % k] = True
    return adj | adj.T


def cone(adj):
    """A new vertex 0 joined to every vertex of the graph."""
    out = np.ones((len(adj) + 1,) * 2, dtype=bool)
    out[1:, 1:] = adj
    np.fill_diagonal(out, False)
    return out


def union(a, b):
    out = np.zeros((len(a) + len(b),) * 2, dtype=bool)
    out[:len(a), :len(a)] = a
    out[len(a):, len(a):] = b
    return out


# the boundary of the octahedron: every vertex joined to all but its antipode
OCTAHEDRON = complete(6) & ~np.eye(6, dtype=bool)[[1, 0, 3, 2, 5, 4]]
FIXED = {
    "point": (complete(1), None, (1,)),
    "two points": (np.zeros((2, 2), dtype=bool), None, (2,)),
    "edge, a tie": (complete(2), None, (1, 0)),
    "two copies": (complete(1), [0, 0], (1, 0)),
    "path": (np.eye(5, k=1, dtype=bool) | np.eye(5, k=-1, dtype=bool), None, (1, 0)),
    "4-cycle": (cycle(4), None, (1, 1)),
    "4-cycle of copies": (cycle(4), [0, 0, 1, 1, 2, 2, 3, 3], (1, 1, 0)),
    "wheel, a cone": (cone(cycle(6)), None, (1, 0, 0)),
    "octahedron": (OCTAHEDRON, None, (1, 0, 1)),
    "cone on the octahedron": (cone(OCTAHEDRON), None, (1, 0, 0)),
    "two 4-cycles": (union(cycle(4), cycle(4)), None, (2, 2)),
    "K3": (complete(3), None, (1, 0, 0)),
    "K6": (complete(6), None, (1, 0, 0)),
    "K6 and a 5-cycle": (union(complete(6), cycle(5)), None, (2, 1, 0)),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_proxy_betti_on_fixed_graphs(name):
    adj, copy_of, want = FIXED[name]
    d = graph_matrix(adj, copy_of)
    assert _proxy_betti(FiniteMetricSpace(d).dist, EDGE) == want
    assert oracles.proxy_betti(d, EDGE) == want


@st.composite
def graph_matrices(draw):
    """Graphs on up to 9 vertices: random, cones, cycles, complete, the
    octahedron, threshold graphs (each vertex joined to all or none of the
    ones before it, so neighbourhoods nest in chains of dominations), and
    disjoint unions of two; some vertices are copies of others, at
    -METRIC_TOL / 2, and the labels are shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def graph(k):
        kind = draw(st.sampled_from(
            ["random", "cone", "cycle", "complete", "octahedron", "threshold"]))
        if kind == "octahedron":
            return OCTAHEDRON
        if kind == "cycle":
            return cycle(max(k, 3))
        if kind == "complete":
            return complete(k)
        if kind == "threshold":
            adj = np.zeros((k, k), dtype=bool)
            for v in np.flatnonzero(rng.random(k) < 0.5):
                adj[v, :v] = adj[:v, v] = True
            return adj
        adj = np.triu(rng.random((k, k)) < rng.random(), 1)
        adj |= adj.T
        return cone(adj[1:, 1:]) if kind == "cone" else adj

    adj = graph(draw(st.integers(1, 7)))
    if draw(st.booleans()):
        adj = union(adj, graph(draw(st.integers(1, 4))))
    k = len(adj)
    copy_of = np.concatenate([np.arange(k), rng.integers(0, k, size=draw(st.integers(0, 3)))])
    return graph_matrix(adj, copy_of, rng.permutation(len(copy_of)))


@given(graph_matrices(), st.sampled_from(SCALES))
@settings(max_examples=300, deadline=None)
def test_proxy_betti_matches_the_complex_chain_on_graphs(d, scale):
    assert _proxy_betti(FiniteMetricSpace(d).dist, scale) == oracles.proxy_betti(d, scale)


@given(spaces(max_n=16), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=200, deadline=None)
def test_proxy_betti_matches_the_complex_chain_on_samples(space, factor):
    scale = factor * _nn_spacing(space.dist) if space.n > 1 else 1.0
    if not scale > 0:  # copies only
        for proxy in (_proxy_betti, oracles.proxy_betti):
            with pytest.raises(HomologyError, match="scale must be positive"):
                proxy(space.dist, scale)
        return
    assert _proxy_betti(space.dist, scale) == oracles.proxy_betti(space.dist, scale)


@given(spaces(max_n=16), st.data())
@settings(max_examples=200, deadline=None)
def test_star_check_matches_the_full_scan_on_spaces(space, data):
    members = frozenset(data.draw(st.sets(st.integers(0, space.n - 1), min_size=1)))
    center = data.draw(st.sampled_from(sorted(members)))
    assert _star_shaped(space, members, center) == oracles.star_shaped(space, members, center)


@st.composite
def tolerance_matrices(draw):
    """Symmetric matrices with a zero diagonal whose entries, small integers
    plus offsets of a few METRIC_TOL, are all at least -METRIC_TOL and need
    not satisfy the triangle inequality: the column bound of the star check
    rests on that lower bound alone."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]) * METRIC_TOL
    d = rng.integers(0, 3, size=(n, n)) + rng.choice(offsets, size=(n, n))
    d = np.maximum(np.triu(d, 1), -METRIC_TOL)
    d += d.T
    return types.SimpleNamespace(dist=d)


@given(tolerance_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_star_check_matches_the_full_scan_within_tolerance(space, data):
    n = len(space.dist)
    members = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    center = data.draw(st.sampled_from(sorted(members)))
    assert _star_shaped(space, members, center) == oracles.star_shaped(space, members, center)


def test_star_check_keeps_a_column_just_past_the_reach():
    # x = 2 is between member 0 and center 1 only through d[0, 2] < 0: its
    # distance to the center exceeds every member's reach by half a tolerance
    d = np.array([[0.0, 1.0, -METRIC_TOL],
                  [1.0, 0.0, 1.0 + 1.5 * METRIC_TOL],
                  [-METRIC_TOL, 1.0 + 1.5 * METRIC_TOL, 0.0]])
    space = types.SimpleNamespace(dist=d)
    assert not oracles.star_shaped(space, frozenset({0, 1}), 1)
    assert not _star_shaped(space, frozenset({0, 1}), 1)
