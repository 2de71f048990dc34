import math

import numpy as np
import pytest
from hypothesis import strategies as st

from nervekit import Cover
from nervekit.metric import FiniteMetricSpace
from nervekit.samples import (circle_space, line_space, octahedron_space,
                              sphere_space, tree_space)


def three_arc_cover(n=64):
    """Three overlapping arc-balls on a circle sample.

    Each set is the open ball of chord radius 2*sin(35 deg) around one of
    three equally spaced samples, so consecutive sets overlap but the triple
    intersection is empty: the nerve is a hollow triangle.
    """
    space = circle_space(n)
    r = 2.0 * math.sin(math.radians(35.0))
    centers = (0, n // 3, (2 * n) // 3)
    sets = tuple(space.ball(c, r) for c in centers)
    return Cover(space, sets, centers, radius_hint=(r, r, r))


def octahedral_cover(extra=94):
    """Six axis-centered balls on a sphere sample containing the axis points.

    Radius 1.1 reaches past the octant corners (chord ~0.92 away) but stays
    short of the equator of the opposite pole (chord sqrt(2)), so opposite
    balls never meet and the nerve is the boundary of the octahedron.
    """
    space = octahedron_space(extra)
    sets = tuple(space.ball(c, 1.1) for c in range(6))
    return Cover(space, sets, tuple(range(6)), radius_hint=(1.1,) * 6)


def ten_line_sets_cover():
    """Ten sets of every point of the 12-point line, centered at 0..9: all
    1,023 index sets meet, so the whole nerve is the 9-simplex, while its
    8-skeleton is the boundary of the 9-simplex, a sphere."""
    space = line_space(12)
    return Cover(space, (frozenset(range(12)),) * 10, tuple(range(10)))


def line_pair_cover():
    """Two sets on the 4-point line: {0,1} centered at 0 and {1,2,3} at 2."""
    space = line_space(4)
    return Cover(
        space,
        (frozenset({0, 1}), frozenset({1, 2, 3})),
        (0, 2),
    )


def tree_ball_cover(n=24, seed=5, radius=2.0):
    from nervekit import build_ball_cover

    return build_ball_cover(tree_space(n, seed=seed), radius, seed=seed)


def shared_members_cover():
    """Set 0 is an L of grid points with its corner (0,0) as center; set 1
    is the whole space.  Their intersection has the members of set 0 but
    its own center, the end (2,0), from which the L is not star-shaped: the
    missing point (1,1) lies between (2,0) and (0,2)."""
    coords = np.array([[2, 0], [1, 0], [0, 0], [0, 1], [0, 2], [1, 1]], dtype=float)
    space = FiniteMetricSpace.from_coords(coords)
    return Cover(space, (frozenset(range(5)), frozenset(range(6))), (2, 5))


@pytest.fixture
def circle_cover():
    return three_arc_cover()


@pytest.fixture
def sphere_cover():
    return octahedral_cover()


@pytest.fixture
def line_cover():
    return line_pair_cover()


@st.composite
def spaces(draw, min_n=1, max_n=24):
    """Up to max_n points on a small integer grid (distances tie often) or
    in a random cloud; some points are copies of others, and the distance
    between copies is 0 or -4e-10."""
    n = draw(st.integers(min_n, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = int(rng.integers(1, n + 1))
    if draw(st.booleans()):
        coords = rng.integers(0, 6, size=(distinct, 2)).astype(float)
    else:
        coords = rng.uniform(0.0, 5.0, size=(distinct, 2))
    coords = coords[np.concatenate([np.arange(distinct),
                                    rng.integers(0, distinct, size=n - distinct)])]
    d = np.array(FiniteMetricSpace.from_coords(coords).dist)
    if draw(st.booleans()):
        copies = (d == 0.0) & ~np.eye(n, dtype=bool)
        d[copies] = -4e-10
    return FiniteMetricSpace(d)
