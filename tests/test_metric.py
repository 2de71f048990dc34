import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervekit.metric import (TRIANGLE_BLOCK, ApproximationReport,
                             FiniteMetricSpace, MetricError, PointMap,
                             check_approximation,
                             check_strainer, comparison_angle,
                             gh_distance_bound, gh_distance_exhaustive)
from nervekit.samples import circle_space, line_space, random_point_space


def test_valid_matrix_accepted():
    sp = line_space(5)
    assert sp.n == 5
    assert sp.diameter() == 4.0


def test_rejects_asymmetry():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(MetricError, match="asymmetric"):
        FiniteMetricSpace(d)


def test_rejects_nonzero_diagonal():
    d = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(MetricError, match="diagonal"):
        FiniteMetricSpace(d)


def test_rejects_triangle_violation():
    d = np.array(
        [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    )
    with pytest.raises(MetricError, match="triangle"):
        FiniteMetricSpace(d)


def test_rejects_negative_entries():
    d = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(MetricError, match="negative"):
        FiniteMetricSpace(d)


def test_rejects_nan_entry_and_names_it():
    d = np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [np.nan, 1.0, 0.0]])
    with pytest.raises(MetricError, match=r"non-finite distance at \(0,2\): nan"):
        FiniteMetricSpace(d)


def test_rejects_inf_entry_before_triangle_check():
    d = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, 1.0], [np.inf, 1.0, 0.0]])
    with pytest.raises(MetricError, match=r"non-finite distance at \(0,2\): inf"):
        FiniteMetricSpace(d)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=100),
       st.data())
@settings(max_examples=30, deadline=None)
def test_any_non_finite_entry_is_rejected(n, seed, data):
    d = np.array(random_point_space(n, dim=2, seed=seed).dist)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    d[i, j] = bad
    with pytest.raises(MetricError, match="non-finite distance"):
        FiniteMetricSpace(d)


def test_matrix_is_read_only():
    sp = line_space(3)
    with pytest.raises(ValueError):
        sp.dist[0, 1] = 9.0


def test_ball_is_strict():
    sp = line_space(5)
    assert sp.ball(0, 2.0) == frozenset({0, 1})
    assert sp.ball(2, 1.5) == frozenset({1, 2, 3})


def test_json_roundtrip(tmp_path):
    sp = circle_space(8)
    path = tmp_path / "space.json"
    import json

    path.write_text(json.dumps(sp.to_json()))
    back = FiniteMetricSpace.load(str(path))
    assert np.allclose(back.dist, sp.dist)


def test_csv_load(tmp_path):
    path = tmp_path / "space.csv"
    path.write_text("0,1,2\n1,0,1\n2,1,0\n")
    sp = FiniteMetricSpace.load(str(path))
    assert sp.n == 3
    assert sp.dist[0, 2] == 2.0


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_random_euclidean_clouds_validate(n, seed):
    # Euclidean point clouds always satisfy the axioms
    sp = random_point_space(n, dim=3, seed=seed)
    assert sp.n == n


# Perturbations of a valid matrix that break exactly one axiom.  Sizes reach
# past two triangle-check blocks, so a witness in a later block must win.

def _euclidean(data, min_n=2):
    n = data.draw(st.integers(min_n, 2 * TRIANGLE_BLOCK + 6), label="n")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    return np.array(random_point_space(n, dim=3, seed=seed).dist)


def _pair(data, n, distinct=True):
    i = data.draw(st.integers(0, n - 1), label="i")
    others = [k for k in range(n) if k != i] if distinct else list(range(n))
    k = data.draw(st.sampled_from(others), label="k")
    return min(i, k), max(i, k)


def _rejected(d) -> str:
    with pytest.raises(MetricError) as exc:
        FiniteMetricSpace(d)
    return str(exc.value)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_euclidean_matrices_validate(data):
    d = _euclidean(data)
    assert FiniteMetricSpace(d).n == len(d)


@given(st.data(), st.floats(1e-6, 10.0))
@settings(max_examples=40, deadline=None)
def test_negative_entry_is_named(data, size):
    d = _euclidean(data)
    i, k = _pair(data, len(d), distinct=False)
    d[i, k] = d[k, i] = -size
    assert _rejected(d) == f"negative distance at ({i},{k}): {-size}"


@given(st.data(), st.floats(1e-6, 10.0))
@settings(max_examples=40, deadline=None)
def test_nonzero_diagonal_is_named(data, size):
    d = _euclidean(data)
    i = data.draw(st.integers(0, len(d) - 1), label="i")
    d[i, i] = size
    assert _rejected(d) == f"nonzero diagonal at {i}: {size}"


@given(st.data(), st.floats(1e-6, 10.0))
@settings(max_examples=40, deadline=None)
def test_asymmetric_pair_is_named(data, size):
    d = _euclidean(data)
    i, k = _pair(data, len(d))
    d[k, i] += size
    assert _rejected(d) == f"asymmetric entry at ({i},{k}): {d[i, k]} vs {d[k, i]}"


@given(st.data(), st.floats(1e-6, 5.0))
@settings(max_examples=40, deadline=None)
def test_triangle_violation_is_named(data, excess):
    d = _euclidean(data, min_n=3)
    i, k = _pair(data, len(d))
    # lengthening the one edge (i,k) past its shortest detour breaks only
    # the triangles with (i,k) as the long side
    via = d[i, :] + d[:, k]
    via[[i, k]] = np.inf
    j = int(np.argmin(via))
    d[i, k] = d[k, i] = via[j] + excess
    assert _rejected(d) == (
        f"triangle inequality violated for ({i},{j},{k}): "
        f"{d[i, k]} > {d[i, j]} + {d[j, k]}"
    )


def _unblocked_triangle_message(d) -> str:
    """The witness of the straightforward n^3 triangle check."""
    bad = d - np.min(d[:, :, None] + d[None, :, :], axis=1)
    i, k = np.unravel_index(np.argmax(bad), bad.shape)
    j = int(np.argmin(d[i, :] + d[:, k]))
    return (f"triangle inequality violated for ({i},{j},{k}): "
            f"{d[i, k]} > {d[i, j]} + {d[j, k]}")


def test_triangle_witness_spans_blocks():
    n = 3 * TRIANGLE_BLOCK + 5
    d = np.array(random_point_space(n, dim=2, seed=4).dist)
    # a small violation in the first block, the worst one in the last
    for (i, k), excess in (((1, 7), 0.5), ((n - 9, n - 2), 3.0), ((40, n - 1), 1.0)):
        d[i, k] = d[k, i] = d[i, k] + 3.0 + excess
    message = _rejected(d)
    assert message == _unblocked_triangle_message(d)
    assert message.startswith(f"triangle inequality violated for ({n - 9},")


def test_validation_memory_is_bounded():
    d = np.array(random_point_space(300, dim=3, seed=0).dist)
    tracemalloc.start()
    try:
        FiniteMetricSpace(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the unblocked check's n^3 temporary alone is 216 MB
    assert peak < 40 * 2**20


# ---------------------------------------------------------------------------
# approximations and GH distance
# ---------------------------------------------------------------------------


def test_identity_is_perfect_approximation():
    sp = circle_space(12)
    pm = PointMap(sp, sp, np.arange(12))
    cert = check_approximation(pm, 1e-6)
    assert isinstance(cert, ApproximationReport) and cert.ok
    assert cert.distortion == 0.0 and cert.defect == 0.0


def test_violation_carries_witnesses():
    a = line_space(3)
    b = line_space(3, spacing=2.0)
    pm = PointMap(a, b, np.arange(3))
    out = check_approximation(pm, 0.5)
    assert isinstance(out, ApproximationReport) and not out.ok
    assert out.distortion == 2.0
    assert out.worst_pair == (0, 2)
    # both conditions are strict
    assert out.defect == 0.0
    assert not check_approximation(pm, 2.0).ok
    assert check_approximation(pm, 2.0 + 1e-9).ok


def test_gh_exhaustive_self_distance_zero():
    for n in (1, 2, 3, 4):
        sp = random_point_space(n, seed=n)
        assert gh_distance_exhaustive(sp, sp) == 0.0


def test_gh_exhaustive_known_values():
    one = FiniteMetricSpace(np.zeros((1, 1)))
    two = line_space(2, spacing=2.0)
    # best map collapses both points; defect/distortion land at 2
    assert gh_distance_exhaustive(one, two) == 2.0
    a = FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = FiniteMetricSpace(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert gh_distance_exhaustive(a, b) == 1.0


def test_gh_exhaustive_label_invariance():
    sp = random_point_space(4, seed=7)
    perm = [2, 0, 3, 1]
    relabeled = FiniteMetricSpace(sp.dist[np.ix_(perm, perm)])
    other = random_point_space(4, seed=8)
    assert gh_distance_exhaustive(sp, other) == pytest.approx(
        gh_distance_exhaustive(relabeled, other)
    )


def test_gh_size_cap_error():
    sp = random_point_space(7, seed=0)
    with pytest.raises(MetricError, match="gh_distance_bound"):
        gh_distance_exhaustive(sp, sp)


def test_gh_bound_brackets_exact():
    rng_pairs = [(i, j) for i in range(4) for j in range(4) if i < j]
    spaces = [random_point_space(n % 4 + 2, seed=n) for n in range(6)]
    for i, j in rng_pairs:
        X, Y = spaces[i], spaces[j]
        lower, upper = gh_distance_bound(X, Y, trials=8, seed=1)
        exact = gh_distance_exhaustive(X, Y)
        assert lower <= exact + 1e-12
        assert exact <= upper + 1e-12


def test_gh_bound_deterministic():
    X = random_point_space(10, seed=3)
    Y = random_point_space(11, seed=4)
    assert gh_distance_bound(X, Y, seed=9) == gh_distance_bound(X, Y, seed=9)


# ---------------------------------------------------------------------------
# comparison angles and strainers
# ---------------------------------------------------------------------------


def test_comparison_angle_collinear():
    sp = line_space(3)
    assert comparison_angle(sp, 0, 1, 2) == pytest.approx(math.pi)
    assert comparison_angle(sp, 1, 0, 2) == pytest.approx(0.0)


def test_comparison_angle_right_isoceles():
    coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    sp = FiniteMetricSpace.from_coords(coords)
    assert comparison_angle(sp, 1, 0, 2) == pytest.approx(math.pi / 2.0)


def test_comparison_angle_degenerate_leg():
    sp = line_space(3)
    with pytest.raises(MetricError, match="coincides"):
        comparison_angle(sp, 1, 1, 2)


def test_strainer_on_plane_grid():
    from nervekit.samples import grid_with_strainers

    space, pairs = grid_with_strainers(5, spacing=1.0, reach=200.0)
    p = 12  # the middle of the grid
    report = check_strainer(space, p, pairs, delta=0.1)
    assert report.ok
    assert report.length > 100.0


def test_strainer_fails_on_bad_pair():
    sp = line_space(5)
    # both "opposite" points on the same side of p
    report = check_strainer(sp, 0, [(1, 2)], delta=0.1)
    assert not report.ok
    assert report.worst_margin < 0.0
