import contextlib
import itertools
import json
import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervekit import metric
from nervekit.metric import (METRIC_TOL, ApproximationReport,
                             FiniteMetricSpace, MetricError, PointMap,
                             check_approximation,
                             check_strainer, comparison_angle,
                             gh_distance_bound, gh_distance_exhaustive)
from nervekit.samples import circle_space, line_space, random_point_space
from oracles import coord_distances, triangle_defects


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


# the triangle check's detour sums overflow too, harmlessly: an infinite
# detour is never the shortest, as the detour through i itself is d[i, k]
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("big", [1e308, np.finfo(float).max])
def test_stored_matrix_stays_finite_near_the_largest_float(big):
    d = np.array([[0.0, big, 1.0], [big, 0.0, big], [1.0, big, 0.0]])
    assert np.array_equal(FiniteMetricSpace(d).dist, d)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_stored_matrix_averages_only_within_the_largest_float():
    # an asymmetric pair within tolerance is still averaged, next to entries
    # whose sum with their transpose overflows
    d = np.array([[0.0, 1.0, 1e308], [1.0 + 1e-10, 0.0, 1e308], [1e308, 1e308, 0.0]])
    stored = FiniteMetricSpace(d).dist
    assert stored[0, 1] == stored[1, 0] == (1.0 + (1.0 + 1e-10)) / 2.0
    assert stored[0, 2] == stored[1, 2] == 1e308


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


# Perturbations of a valid matrix that break exactly one axiom.  Under
# _small_blocks a 70-point matrix spans 4 row blocks of the triangle check,
# so a witness in a later block must win; up to 11 points take the one-shot
# broadcast.

SMALL_BUDGET = 8 * 70 * 20  # 20-row blocks at n = 70


def _small_blocks():
    return mock.patch.object(metric, "BUDGET", SMALL_BUDGET)


def _blocks(n, budget):
    step = max(1, budget // (8 * n))
    return -(-n // step)


def _euclidean(data, min_n=2):
    n = data.draw(st.integers(min_n, 70), label="n")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    return np.array(random_point_space(n, dim=3, seed=seed).dist)


def _pair(data, n, distinct=True):
    i = data.draw(st.integers(0, n - 1), label="i")
    others = [k for k in range(n) if k != i] if distinct else list(range(n))
    k = data.draw(st.sampled_from(others), label="k")
    return min(i, k), max(i, k)


def _rejected(d) -> str:
    with _small_blocks(), pytest.raises(MetricError) as exc:
        FiniteMetricSpace(d)
    return str(exc.value)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_euclidean_matrices_validate(data):
    d = _euclidean(data)
    with _small_blocks():
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
    n = 101
    assert _blocks(n, SMALL_BUDGET) == 8  # of 13 rows
    d = np.array(random_point_space(n, dim=2, seed=4).dist)
    # a small violation in the first block, the worst one in the last
    for (i, k), excess in (((1, 7), 0.5), ((n - 9, n - 2), 3.0), ((40, n - 1), 1.0)):
        d[i, k] = d[k, i] = d[i, k] + 3.0 + excess
    message = _rejected(d)
    assert message == _unblocked_triangle_message(d)
    assert message.startswith(f"triangle inequality violated for ({n - 9},")


@given(st.data(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_blocked_oracle(data, cpus):
    d = _euclidean(data)
    if data.draw(st.booleans(), label="perturb"):
        # symmetric noise of up to 50% breaks many triangles
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="noise"))
        f = rng.uniform(0.5, 1.5, size=d.shape)
        d = d * (f + f.T) / 2.0
    with _small_blocks(), mock.patch("os.cpu_count", return_value=cpus):
        bad = metric._triangle_defects(d)
    assert bad.tobytes() == triangle_defects(d).tobytes()


def test_kernel_matches_blocked_oracle_at_full_budget():
    n = 400
    assert _blocks(n, metric.BUDGET) >= 3
    d = np.array(random_point_space(n, dim=3, seed=5).dist)
    d[3, 390] = d[390, 3] = d[3, 390] + 1.0
    assert metric._triangle_defects(d).tobytes() == triangle_defects(d).tobytes()


def test_kernel_raises_a_worker_error():
    d = np.array(random_point_space(70, dim=3, seed=1).dist)
    minimum = np.minimum

    def failing_off_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker failed")
        return minimum(*args, **kwargs)

    with _small_blocks(), mock.patch("os.cpu_count", return_value=2), \
            mock.patch.object(metric.np, "minimum", failing_off_main_thread):
        with pytest.raises(FloatingPointError, match="worker failed"):
            metric._triangle_defects(d)


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


def test_validation_memory_is_bounded_at_600_points():
    n = 600
    d = np.array(random_point_space(n, dim=3, seed=0).dist)
    tracemalloc.start()
    try:
        FiniteMetricSpace(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 32-row block of the broadcast check alone is 92 MB
    assert peak < 6 * 8 * n * n


# ---------------------------------------------------------------------------
# coordinate input: the triangle check is skipped where rounding cannot fail it
# ---------------------------------------------------------------------------


def _outcome(make):
    try:
        return make().dist.tobytes()
    except MetricError as exc:
        return str(exc)


@st.composite
def _clouds(draw):
    """Clouds of 1 to 8 points in R^1..R^6 at magnitudes 1e-6 to 1e8, with
    repeated points and points on the segment between two others."""
    m = draw(st.integers(1, 6), label="dim")
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    pts = draw(st.lists(st.lists(coord, min_size=m, max_size=m), min_size=1, max_size=8))
    c = np.array(pts) * 10.0 ** draw(st.integers(-6, 8), label="exponent")
    for _ in range(draw(st.integers(0, 3), label="extra")):
        a, b = (draw(st.integers(0, len(c) - 1)) for _ in range(2))
        t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        c = np.vstack([c, c[a] + t * (c[b] - c[a])])
    return c


@given(_clouds())
@settings(max_examples=200, deadline=None)
def test_coordinate_input_matches_the_full_check(c):
    assert _outcome(lambda: FiniteMetricSpace.from_coords(c)) == \
        _outcome(lambda: FiniteMetricSpace(coord_distances(c)))


@given(_clouds())
@settings(max_examples=200, deadline=None)
def test_rounding_bound_dominates_every_defect(c):
    d = coord_distances(c)
    assert triangle_defects(d).max() <= metric._rounding_bound(c.shape[1], d.max())


def test_rounding_alone_can_fail_the_check():
    # a Euclidean triangle whose computed defect is 1.4e-9 by rounding only
    c = np.array([[1431091.435, -124768.584], [-326749.579, 316561.148],
                  [-1968987.896, 728867.262]])
    d = coord_distances(c)
    assert metric._rounding_bound(2, d.max()) > METRIC_TOL
    message = _outcome(lambda: FiniteMetricSpace.from_coords(c))
    assert message.startswith("triangle inequality violated")
    assert message == _outcome(lambda: FiniteMetricSpace(d))


def _coord_matrix(c):
    """The matrix ``from_coords`` hands to the constructor, before validation."""
    seen = []

    class Spy(FiniteMetricSpace):
        def __post_init__(self):
            seen.append(np.array(self.dist))
            super().__post_init__()

    with contextlib.suppress(MetricError):
        Spy.from_coords(c)
    return seen[0]


@given(st.integers(3, 40), st.integers(1, 8), st.integers(-6, 7), st.data())
@settings(max_examples=100, deadline=None)
def test_coordinate_blocks_match_one_broadcast(n, m, exponent, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    c = rng.uniform(-1.0, 1.0, size=(n, m)) * 10.0**exponent
    c[rng.integers(n, size=n // 4)] = c[rng.integers(n, size=n // 4)]  # repeats
    rows = data.draw(st.integers(1, n // 3), label="rows")
    with mock.patch.object(metric, "BUDGET", 8 * n * m * rows):  # 3 or more blocks
        got = _coord_matrix(c)
    assert got.tobytes() == coord_distances(c).tobytes()


def test_coordinate_blocks_match_one_broadcast_at_full_budget():
    rng = np.random.default_rng(5)
    for n, m, scale in [(400, 8, 1.0), (300, 3, 1e7), (1000, 1, 1e-6)]:
        assert metric.BUDGET // (8 * n * m) < n // 2  # several blocks
        c = rng.normal(size=(n, m)) * scale
        assert _coord_matrix(c).tobytes() == coord_distances(c).tobytes()


def test_coordinate_distances_memory_is_bounded():
    n = 1000
    c = np.random.default_rng(0).uniform(size=(n, 3))
    tracemalloc.start()
    try:
        FiniteMetricSpace.from_coords(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one broadcast's (n, n, 3) difference array and its square are 48 MB
    assert peak < 4 * 8 * n * n


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = metric._triangle_defects

    def spy(d):
        calls.append(len(d))
        return kernel(d)

    monkeypatch.setattr(metric, "_triangle_defects", spy)
    return calls


def test_kernel_skipped_only_where_the_bound_allows(kernel_calls):
    c = np.random.default_rng(3).uniform(size=(60, 3))
    FiniteMetricSpace.from_coords(c)
    assert kernel_calls == []
    d = coord_distances(c * 1e8)
    assert metric._rounding_bound(3, d.max()) > METRIC_TOL
    assert _outcome(lambda: FiniteMetricSpace.from_coords(c * 1e8)) == \
        _outcome(lambda: FiniteMetricSpace(d))
    assert kernel_calls == [60, 60]


def test_distance_matrix_input_always_runs_the_kernel(tmp_path, kernel_calls):
    sp = circle_space(8)
    FiniteMetricSpace(np.array(sp.dist))
    (tmp_path / "d.json").write_text(json.dumps(sp.to_json()))
    FiniteMetricSpace.load(str(tmp_path / "d.json"))
    (tmp_path / "d.csv").write_text("0,1,2\n1,0,1\n2,1,0\n")
    FiniteMetricSpace.load(str(tmp_path / "d.csv"))
    assert kernel_calls == [8, 8, 3]
    (tmp_path / "c.json").write_text(json.dumps({"coords": [[0.0, 0.0], [3.0, 4.0]]}))
    assert FiniteMetricSpace.load(str(tmp_path / "c.json")).dist[0, 1] == 5.0
    assert kernel_calls == [8, 8, 3]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("coords, message", [
    ([[0.0], [1e200]], "non-finite distance at (0,1): inf"),
    ([[0.0, 0.0], [np.nan, 1.0]], "non-finite distance at (0,1): nan"),
])
def test_coordinate_overflow_fails_the_finiteness_check(coords, message):
    assert _outcome(lambda: FiniteMetricSpace.from_coords(coords)) == message


# ---------------------------------------------------------------------------
# malformed space files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, text, message", [
    ("empty.csv", "", "empty distance matrix"),
    ("header.csv", "a,b,c\n", "empty distance matrix"),
    ("ragged.csv", "0,1,2\n1,0\n2,1,0\n", "CSV row 1 has length 2, expected 3"),
    ("ragged_header.csv", "a,b,c\n0,1,2\n1,0,1\n2,1\n",
     "CSV row 2 has length 2, expected 3"),
    ("cell.csv", "0,1,2\n1,0,x\n2,1,0\n", "non-numeric entry at (1,2): 'x'"),
    ("dist.json", json.dumps({"dist": [[0, 1], [1]]}), "dist row 1 has length 1, expected 2"),
    ("coords.json", json.dumps({"coords": [[0, 0], [1, 0], [2]]}),
     "coords row 2 has length 1, expected 2"),
])
def test_malformed_space_file_is_named(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MetricError) as exc:
        FiniteMetricSpace.load(str(path))
    assert str(exc.value) == message


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
