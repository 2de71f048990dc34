"""Sample space generators used by the demos and the test suite."""
from __future__ import annotations

import math

import numpy as np

from .metric import FiniteMetricSpace


def line_space(n: int, spacing: float = 1.0) -> FiniteMetricSpace:
    """n equally spaced points on a line."""
    xs = np.arange(n, dtype=float) * spacing
    return FiniteMetricSpace(np.abs(xs[:, None] - xs[None, :]))


def circle_space(n: int, radius: float = 1.0, phase: float = 0.0) -> FiniteMetricSpace:
    """n equally spaced points on a circle, chord (Euclidean) distances."""
    angles = phase + 2.0 * math.pi * np.arange(n) / n
    coords = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return FiniteMetricSpace.from_coords(coords)


def circle_spacing(n: int, radius: float = 1.0) -> float:
    """Chord distance between adjacent points of circle_space(n, radius)."""
    return 2.0 * radius * math.sin(math.pi / n)


def sphere_space(n: int, radius: float = 1.0) -> FiniteMetricSpace:
    """Fibonacci lattice on the 2-sphere, chord distances."""
    return FiniteMetricSpace.from_coords(sphere_coords(n, radius))


def sphere_coords(n: int, radius: float = 1.0) -> np.ndarray:
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * math.pi * i / golden
    return radius * np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def octahedron_space(extra: int = 0) -> FiniteMetricSpace:
    """The six unit axis points, optionally padded with a Fibonacci sample."""
    axes = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    if extra:
        axes = np.vstack([axes, sphere_coords(extra)])
    return FiniteMetricSpace.from_coords(axes)


def tree_space(n: int, seed: int = 0) -> FiniteMetricSpace:
    """Shortest-path metric of a random tree with seeded edge weights.

    Row i holds the distances from source i, each found by a walk out from
    i that adds an edge's weight to the distance of the vertex it came from,
    the addition order of Dijkstra's algorithm on a tree.
    """
    rng = np.random.default_rng(seed)
    adjacent = [[] for _ in range(n)]
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        weight = float(rng.uniform(0.5, 1.5))
        adjacent[parent].append((v, weight))
        adjacent[v].append((parent, weight))
    d = np.zeros((n, n))
    for source in range(n):
        row = d[source]
        stack = [(source, -1)]
        while stack:
            u, came_from = stack.pop()
            for v, weight in adjacent[u]:
                if v != came_from:
                    row[v] = row[u] + weight
                    stack.append((v, u))
    return FiniteMetricSpace(d)


def grid_with_strainers(m: int, spacing: float = 1.0, reach: float = 100.0):
    """Planar grid plus four distant axis points usable as a strainer.

    Returns (space, pairs) where pairs = [(east, west), (north, south)] are the
    indices of the far points; grid points occupy indices 0..m*m-1.
    """
    xs, ys = np.meshgrid(np.arange(m, dtype=float), np.arange(m, dtype=float))
    grid = spacing * np.stack([xs.ravel(), ys.ravel()], axis=1)
    center = grid.mean(axis=0)
    far = center + reach * np.array(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    )
    coords = np.vstack([grid, far])
    k = m * m
    pairs = [(k, k + 1), (k + 2, k + 3)]
    return FiniteMetricSpace.from_coords(coords), pairs


def random_point_space(n: int, dim: int = 3, seed: int = 0) -> FiniteMetricSpace:
    """Uniform random points in the unit cube of R^dim."""
    rng = np.random.default_rng(seed)
    return FiniteMetricSpace.from_coords(rng.uniform(size=(n, dim)))
