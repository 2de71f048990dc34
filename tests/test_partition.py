import numpy as np
import pytest

import oracles
from conftest import (line_pair_cover, octahedral_cover, three_arc_cover,
                      tree_ball_cover)
from nervekit.cover import Cover, CoverError, build_ball_cover
from nervekit.nerve import nerve_of
from nervekit.partition import PartitionOfUnity, estimate_lipschitz
from nervekit.samples import circle_space, line_space


def test_f_weight_line_example():
    cov = line_pair_cover()
    # U_0 = {0,1} with center 0: at x=1 both summands are 1
    assert oracles.f_weight(cov, 0, 1) == 0.5
    assert oracles.f_weight(cov, 1, 1) == 0.5
    assert oracles.f_weight(cov, 0, 2) == 0.0
    # the raw weights at x=1 already sum to one
    assert PartitionOfUnity(cov).values[1].tolist() == [0.5, 0.5]


def test_f_weight_at_interior_center_is_one():
    cov = line_pair_cover()
    assert oracles.f_weight(cov, 1, 2) == 1.0
    assert PartitionOfUnity(cov).values[2, 1] == 1.0


def test_theta_line_example_weights():
    cov = line_pair_cover()
    p = PartitionOfUnity(cov).theta(1)
    assert p[0] == pytest.approx(0.5)
    assert p[1] == pytest.approx(0.5)


def test_theta_single_membership_is_vertex():
    cov = line_pair_cover()
    pou = PartitionOfUnity(cov)
    assert pou.theta(0).support == frozenset({0})
    assert pou.theta(3).weights == {1: 1.0}


@pytest.mark.parametrize("x", [-1, 12, 2.0, True])
def test_theta_and_support_reject_a_point_outside_the_space(x):
    pou = PartitionOfUnity(build_ball_cover(circle_space(12), 1.2, seed=0))
    for call in (pou.theta, pou.support):
        with pytest.raises(CoverError) as exc:
            call(x)
        assert str(exc.value) == f"point {x!r} is not a point index in [0, 12)"


def test_rows_sum_to_one_and_positivity_iff_membership():
    for cov in (three_arc_cover(), octahedral_cover(), tree_ball_cover()):
        pou = PartitionOfUnity(cov)
        sums = pou.values.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(pou.values >= 0.0)
        for x in range(cov.space.n):
            assert pou.support(x) == cov.membership(x)


def test_support_is_nerve_simplex():
    cov = three_arc_cover()
    pou = PartitionOfUnity(cov)
    K = nerve_of(cov)
    for x in range(cov.space.n):
        assert K.contains(pou.support(x))


def test_theta_matches_matrix_rows():
    cov = three_arc_cover()
    pou = PartitionOfUnity(cov)
    expected = oracles.pou_values(cov)
    for x in (0, 5, 21, 42, 63):
        a = pou.theta(x)
        assert a.support == frozenset(np.flatnonzero(expected[x]).tolist())
        for j in a.support:
            assert a[j] == pytest.approx(expected[x, j])


def test_boundary_center_rejected():
    from nervekit.metric import FiniteMetricSpace

    # points 0 and 1 coincide, so the center 1 of {1,2} has zero clearance
    # from the complement {0,3}
    sp = FiniteMetricSpace.from_coords([[0.0], [0.0], [1.0], [2.0]])
    cov = Cover(sp, (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})),
                (0, 1, 3))
    assert oracles.boundary_flagged(cov) == [1]
    with pytest.raises(CoverError, match="interior center"):
        PartitionOfUnity(cov)


def test_whole_space_set_accepted():
    sp = line_space(3)
    cov = Cover(sp, (frozenset({0, 1, 2}),), (1,))
    pou = PartitionOfUnity(cov)
    assert np.allclose(pou.values, 1.0)


def test_estimate_lipschitz_known_maps():
    sp = line_space(10)
    const = estimate_lipschitz(sp, [0] * 10, lambda a, b: abs(a - b))
    assert const.value == 0.0
    ident = estimate_lipschitz(sp, list(range(10)), lambda a, b: float(abs(a - b)))
    assert ident.value == 1.0
    double = estimate_lipschitz(sp, [2 * x for x in range(10)],
                                lambda a, b: float(abs(a - b)))
    assert double.value == 2.0
    assert double.mode == "exhaustive"


def test_theta_lipschitz_finite():
    from nervekit.complex import realization_distance

    cov = three_arc_cover()
    pou = PartitionOfUnity(cov)
    images = [pou.theta(x) for x in range(cov.space.n)]
    est = estimate_lipschitz(cov.space, images, realization_distance)
    assert 0.0 < est.value < 50.0
    assert est.witness is not None
