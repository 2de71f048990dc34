"""The sparse GF(2) homology core, the clique-expansion Vietoris-Rips
complex, the once-per-member-set goodness report and the tree walk against
the oracles in ``oracles.py``."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (line_pair_cover, octahedral_cover, shared_members_cover,
                      three_arc_cover, tree_ball_cover)
from nervekit.complex import SimplicialComplex
from nervekit.cover import build_ball_cover, goodness_report
from nervekit.homology import (HomologyError, betti, gf2_rank, nerve_matches_space,
                               vr_complex)
from nervekit import metric
from nervekit.metric import FiniteMetricSpace
from nervekit.samples import circle_space, tree_space


@st.composite
def matrices(draw):
    """Random matrices of small nonnegative integers, most entries 0 or 1,
    including empty shapes."""
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    mat = (rng.random((rows, cols)) < density).astype(int)
    if draw(st.booleans()):
        mat *= rng.integers(1, 4, size=(rows, cols))
    return mat


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_gf2_rank_matches_dense_elimination(mat):
    assert gf2_rank(mat) == oracles.gf2_rank(mat)
    assert gf2_rank(mat.T) == gf2_rank(mat)


@st.composite
def complexes(draw):
    """Closures of up to 8 random simplices of up to 5 vertices on up to 10
    vertices."""
    n = draw(st.integers(1, 10))
    simplex = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(5, n))
    maximal = draw(st.lists(simplex, min_size=1, max_size=8))
    return SimplicialComplex.from_maximal(n, maximal)


@given(complexes(), st.one_of(st.none(), st.integers(0, 5)))
@settings(max_examples=150, deadline=None)
def test_betti_matches_dense_ranks(K, max_dim):
    got = betti(K, max_dim=max_dim)
    want = oracles.betti(K, max_dim=max_dim)
    assert got == want
    if max_dim is None:
        assert got.euler_characteristic() == sum(
            (-1) ** (len(s) - 1) for s in K.simplices)


@st.composite
def point_clouds(draw):
    """Up to 9 points in the plane, on a random cloud or on a small integer
    grid whose distances tie with the scale often."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cells = rng.choice(16, size=n, replace=False)
        coords = np.stack([cells // 4, cells % 4], axis=1).astype(float)
    else:
        coords = rng.uniform(0.0, 3.0, size=(n, 2))
    return FiniteMetricSpace.from_coords(coords)


@given(point_clouds(), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.0]),
       st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_vr_complex_matches_brute_force(space, scale, max_dim):
    K = vr_complex(space, scale, max_dim=max_dim)
    assert K.n_vertices == space.n
    assert K.simplices == oracles.vr_simplices(space, scale, max_dim)


def test_star_shape_depends_on_the_center():
    entries = goodness_report(shared_members_cover()).entries
    assert [(e.indices, e.star_shaped) for e in entries] == [
        ((0,), True), ((1,), True), ((0, 1), False)]
    assert entries[0].betti == entries[2].betti


@pytest.mark.parametrize("make", [three_arc_cover, octahedral_cover,
                                  line_pair_cover, tree_ball_cover,
                                  shared_members_cover],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("max_order", [3, 8])
def test_goodness_report_matches_uncached_oracle(make, max_order):
    cov = make()
    assert (goodness_report(cov, max_order).to_json()
            == oracles.goodness_report(cov, max_order).to_json())


@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.integers(2, 3),
       st.floats(0.3, 1.5))
@settings(max_examples=40, deadline=None)
def test_goodness_report_matches_oracle_on_ball_covers(seed, n, dim, radius):
    rng = np.random.default_rng(seed)
    space = FiniteMetricSpace.from_coords(rng.uniform(0.0, 1.0, size=(n, dim)))
    cov = build_ball_cover(space, radius, seed=seed)
    assert (goodness_report(cov, 4).to_json()
            == oracles.goodness_report(cov, 4).to_json())


# BUDGET / 2**15 is 8 bytes: every chunk holds one key
@pytest.mark.parametrize("divisor", [1, 2**9, 2**15])
@given(st.integers(0, 2**32 - 1), st.integers(15, 40), st.integers(2, 3),
       st.floats(0.35, 0.8), st.booleans())
@settings(max_examples=10, deadline=None)
def test_goodness_report_batches_match_the_oracle(divisor, seed, n, dim, radius, l1):
    # many member-set sizes in one report, chunked by a full or divided
    # budget; under the l1 norm some intersections are not star-shaped
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n, dim))
    space = (FiniteMetricSpace(np.abs(coords[:, None] - coords).sum(axis=2)) if l1
             else FiniteMetricSpace.from_coords(coords))
    cov = build_ball_cover(space, radius, seed=seed)
    with mock.patch.object(metric, "BUDGET", metric.BUDGET // divisor):
        got = goodness_report(cov, 8).to_json()
    assert got == oracles.goodness_report(cov, 8).to_json()


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tree_space_matches_floyd_warshall(n, seed):
    got = tree_space(n, seed=seed).dist
    want = oracles.tree_distances(n, seed)
    assert np.abs(got - want).max() <= 1e-12


def test_dimensions_that_compare_nothing_are_rejected():
    cover = build_ball_cover(circle_space(12), 1.2)
    with pytest.raises(HomologyError, match="max_dim must be >= 1 to compare any Betti "
                                            "number, got 0"):
        nerve_matches_space(cover, 0.01, max_dim=0)
    assert not nerve_matches_space(cover, 0.01, max_dim=1).matches  # b0: 1 against 12
    with pytest.raises(HomologyError, match="max_dim must be >= 0"):
        vr_complex(cover.space, 0.5, max_dim=-1)
    assert vr_complex(cover.space, 0.5, max_dim=0).dim == 0
