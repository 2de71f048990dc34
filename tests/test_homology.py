import math

import numpy as np
import pytest

from conftest import octahedral_cover, three_arc_cover
from nervekit.complex import SimplicialComplex
from nervekit.cover import Cover
from nervekit.homology import (HomologyError, betti, gf2_rank,
                               nerve_matches_space, vr_complex)
from nervekit.samples import circle_space, line_space
from oracles import boundary_matrix


def test_gf2_rank_simple_cases():
    assert gf2_rank(np.zeros((3, 3), dtype=int)) == 0
    assert gf2_rank(np.eye(4, dtype=int)) == 4
    # rows summing to zero mod 2
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert gf2_rank(m) == 2


def test_boundary_squares_to_zero():
    K = SimplicialComplex.from_maximal(4, [(0, 1, 2), (1, 2, 3)])
    d1 = boundary_matrix(K, 1)
    d2 = boundary_matrix(K, 2)
    assert not np.any((d1 @ d2) % 2)


def test_betti_point_and_segment():
    pt = SimplicialComplex.from_maximal(1, [(0,)])
    assert betti(pt).ranks == (1,)
    seg = SimplicialComplex.from_maximal(2, [(0, 1)])
    assert betti(seg).ranks == (1, 0)


def test_betti_circle_and_disk():
    hollow = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2), (0, 2)])
    assert betti(hollow).ranks == (1, 1)
    filled = SimplicialComplex.from_maximal(3, [(0, 1, 2)])
    assert betti(filled).ranks == (1, 0, 0)


def test_betti_octahedron_sphere():
    faces = [
        (a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)
    ]
    K = SimplicialComplex.from_maximal(6, faces)
    bv = betti(K)
    assert bv.ranks == (1, 0, 1)
    assert bv.euler_characteristic() == 2


def test_betti_two_components():
    K = SimplicialComplex.from_maximal(4, [(0, 1), (2, 3)])
    assert betti(K).ranks == (2, 0)


def test_betti_rejects_empty():
    with pytest.raises(HomologyError, match="empty"):
        betti(SimplicialComplex(0, frozenset()))


def test_vr_complex_of_circle():
    sp = circle_space(24)
    K = vr_complex(sp, 0.3, max_dim=2)
    assert betti(K, max_dim=1).ranks == (1, 1)


def test_vr_complex_scale_guard():
    with pytest.raises(HomologyError, match="positive"):
        vr_complex(line_space(3), 0.0)


def test_vr_disconnected_at_small_scale():
    sp = line_space(4, spacing=2.0)
    K = vr_complex(sp, 1.0)
    assert betti(K).ranks[0] == 4


def test_nerve_matches_circle():
    report = nerve_matches_space(three_arc_cover(), scale=0.2, max_dim=2)
    assert report.matches
    assert report.nerve_betti.ranks[:2] == (1, 1)


def test_nerve_matches_sphere():
    report = nerve_matches_space(octahedral_cover(), scale=0.6, max_dim=3)
    assert report.matches
    assert report.nerve_betti.ranks == (1, 0, 1)


def test_nerve_mismatch_reported_for_bad_cover():
    # a single annular set covering the whole circle: nerve is a point,
    # the space is a loop
    sp = circle_space(24)
    cov = Cover(sp, (frozenset(range(24)),), (0,))
    report = nerve_matches_space(cov, scale=0.3, max_dim=2)
    assert not report.matches
    obj = report.to_json()
    assert obj["pass"] is False
    assert "necessary" in obj["note"]


@pytest.mark.parametrize("scale", [-1.0, math.nan])
def test_vr_complex_rejects_a_scale_that_is_not_positive(scale):
    with pytest.raises(HomologyError, match="^scale must be positive$"):
        vr_complex(line_space(3), scale)


@pytest.mark.parametrize("max_dim", [-1, -5])
def test_betti_rejects_a_negative_max_dim(max_dim):
    K = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2)])
    with pytest.raises(HomologyError, match=f"^max_dim must be >= 0, got {max_dim}$"):
        betti(K, max_dim=max_dim)
