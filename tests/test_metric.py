import contextlib
import itertools
import json
import math
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
from nervekit.samples import (circle_space, grid_with_strainers, line_space,
                              random_point_space, sphere_coords, tree_space)
from conftest import spaces
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


def test_rejects_a_pair_that_stores_below_half_the_tolerance():
    # the input passes the checks on d with its diagonal of -METRIC_TOL, but
    # the stored diagonal is 0, so the stored triangle (0,1,0) fails
    d = np.array([[-1e-9, -1e-9, 0.6], [-1e-9, -1e-9, 0.6], [0.6, 0.6, -1e-9]])
    with pytest.raises(MetricError) as exc:
        FiniteMetricSpace(d)
    assert str(exc.value) == "triangle inequality violated for (0,1,0): 0.0 > -1e-09 + -1e-09"


def test_a_skewed_matrix_is_checked_as_stored():
    # the defect of (0,1,2) is 1.2e-9 in d, but 0.8e-9 in the stored average
    d = np.array([[0.0, 1.0, 2.0 + 1.2e-9], [1.0, 0.0, 1.0], [2.0 + 0.4e-9, 1.0, 0.0]])
    assert FiniteMetricSpace(d).dist[0, 2] == (d[0, 2] + d[2, 0]) / 2.0


@st.composite
def _perturbed(draw):
    """A metric on up to 6 points with many exact (defect 0) triangles: all
    points equal, a line, or integer points of a 3 x 3 grid; plus, per
    entry, a perturbation within +-METRIC_TOL, symmetric or not, diagonal
    included or not."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["equal", "line", "grid"]))
    if kind == "equal":
        d = np.zeros((n, n))
    elif kind == "line":
        d = np.array(line_space(n, spacing=draw(st.sampled_from([1e-9, 0.5, 3.0]))).dist)
    else:
        cells = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
        d = coord_distances(np.stack([cells // 3, cells % 3], axis=1).astype(float))
    tol = st.floats(-METRIC_TOL, METRIC_TOL)
    noise = np.array(draw(st.lists(tol, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        noise = np.triu(noise) + np.triu(noise, 1).T
    if draw(st.booleans()):
        np.fill_diagonal(noise, 0.0)
    return d + noise


@given(_perturbed())
@settings(max_examples=400, deadline=None)
def test_every_accepted_matrix_is_accepted_again_as_stored(d):
    try:
        space = FiniteMetricSpace(d)
    except MetricError:
        return
    again = FiniteMetricSpace(space.dist)
    back = FiniteMetricSpace.from_json(json.loads(json.dumps(space.to_json())))
    assert again.dist.tobytes() == back.dist.tobytes() == space.dist.tobytes()


def _stored(d):
    s = (d + d.T) / 2.0
    np.fill_diagonal(s, 0.0)
    return s


@given(_perturbed())
@settings(max_examples=400, deadline=None)
def test_a_matrix_is_accepted_exactly_when_its_stored_matrix_is_a_metric(d):
    raw_ok = (np.all(d >= -METRIC_TOL) and np.all(np.abs(np.diag(d)) <= METRIC_TOL)
              and np.all(np.abs(d - d.T) <= METRIC_TOL))
    try:
        FiniteMetricSpace(d)
        accepted = True
    except MetricError:
        accepted = False
    assert accepted == (raw_ok and triangle_defects(_stored(d)).max() <= METRIC_TOL)


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


def test_spaces_are_equal_and_hash_alike_when_their_matrices_are():
    a, b = circle_space(8), circle_space(8)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != circle_space(9) and a != line_space(8) and a != a.dist
    assert len({a, b, line_space(8)}) == 2
    # -0.0 facing -0.0 is stored as -0.0, equal to 0.0
    z = FiniteMetricSpace(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    assert z == FiniteMetricSpace(np.zeros((2, 2)))
    assert hash(z) == hash(FiniteMetricSpace(np.zeros((2, 2))))


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
# _small_blocks a 70-point matrix spans 3 row blocks of the triangle check,
# so a witness in a later block must win; up to 37 points fit in one block.

SMALL_BUDGET = 8 * 70 * 20  # a first block of 20 rows at n = 70


def _small_blocks():
    return mock.patch.object(metric, "BUDGET", SMALL_BUDGET)


def _euclidean(data, min_n=2):
    n = data.draw(st.integers(min_n, 70), label="n")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    return np.array(random_point_space(n, dim=3, seed=seed).dist)


def _pair(data, n, distinct=True):
    i = data.draw(st.integers(0, n - 1), label="i")
    others = [k for k in range(n) if k != i] if distinct else list(range(n))
    k = data.draw(st.sampled_from(others), label="k")
    return min(i, k), max(i, k)


def _skewed(data, d, keep=()):
    """d, or, when the drawn flag is set, d plus an asymmetric perturbation
    of at most ``METRIC_TOL``/2 above the diagonal, outside the rows and
    columns ``keep``.  Validation accepts the asymmetry and checks the
    triangles of the stored average, equal to d in the rows ``keep``."""
    if not data.draw(st.booleans(), label="skew"):
        return d
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="skew seed"))
    noise = np.triu(rng.uniform(0.0, METRIC_TOL / 2.0, size=d.shape), 1)
    noise[list(keep)] = 0.0
    noise[:, list(keep)] = 0.0
    return d + noise


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
    d = _skewed(data, d, keep=(i, k))
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
    with _small_blocks():
        assert len(list(metric._row_blocks(n))) == 5  # the last one of 29 rows
    d = np.array(random_point_space(n, dim=2, seed=4).dist)
    # a small violation in the first block, the worst one in the last
    for (i, k), excess in (((1, 7), 0.5), ((n - 9, n - 2), 3.0), ((40, n - 1), 1.0)):
        d[i, k] = d[k, i] = d[i, k] + 3.0 + excess
    message = _rejected(d)
    assert message == _unblocked_triangle_message(d)
    assert message.startswith(f"triangle inequality violated for ({n - 9},")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_blocked_oracle(data):
    d = _euclidean(data)
    if data.draw(st.booleans(), label="perturb"):
        # symmetric noise of up to 50% breaks many triangles
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="noise"))
        f = rng.uniform(0.5, 1.5, size=d.shape)
        d = d * (f + f.T) / 2.0
    with _small_blocks():
        bad = metric._triangle_defects(d)
    assert bad.tobytes() == triangle_defects(d).tobytes()


@pytest.mark.parametrize("shrink", [1, 2])
def test_a_zero_facing_a_negative_zero_is_stored_symmetric(shrink):
    # a repeated point whose 0.0 faces a -0.0 across the diagonal: equal as
    # numbers, not as bits, but their stored average is 0.0 on both sides
    # (rows 3 and 38 fall in different blocks of 35 or 17 rows)
    c = np.random.default_rng(3).uniform(0.0, 1.0, size=(40, 2))
    c[38] = c[3]
    d = np.array(FiniteMetricSpace.from_coords(c).dist)
    d[38, 3] = -0.0
    with mock.patch.object(metric, "BUDGET", SMALL_BUDGET // shrink):
        stored = FiniteMetricSpace(d).dist
        bad = metric._triangle_defects(stored)
    assert stored.tobytes() == np.ascontiguousarray(stored.T).tobytes()
    assert bad.tobytes() == triangle_defects(stored).tobytes()


def test_kernel_matches_blocked_oracle_at_full_budget():
    n = 400
    assert len(list(metric._row_blocks(n))) >= 3
    d = np.array(random_point_space(n, dim=3, seed=5).dist)
    d[3, 390] = d[390, 3] = d[3, 390] + 1.0
    assert metric._triangle_defects(d).tobytes() == triangle_defects(d).tobytes()


@pytest.mark.parametrize("small", [True, False])
@pytest.mark.parametrize("shrink", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [150, 200, 291, 445])
def test_row_blocks_tile_the_rows(n, shrink, small):
    # budgets of 1/1 to 1/4 of BUDGET or SMALL_BUDGET: SMALL_BUDGET / 4 at
    # n = 445 holds less than one row, so the first blocks are one row each
    budget = (SMALL_BUDGET if small else metric.BUDGET) // shrink
    with mock.patch.object(metric, "BUDGET", budget):
        blocks = list(metric._row_blocks(n))
    assert [a for a, _h in blocks] == list(itertools.accumulate(
        (h for _a, h in blocks[:-1]), initial=0))
    assert sum(h for _a, h in blocks) == n
    assert all(h * (n - a) <= max(budget // 8, n) for a, h in blocks)


def test_validation_memory_is_bounded():
    d = np.array(tree_space(300).dist)  # not Euclidean, so the kernel runs
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
    # a 32-row block of the broadcast check alone is 92 MB; this Euclidean
    # matrix is validated by ``_embeds``, in blocks of BUDGET bytes too
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


def test_non_euclidean_matrix_input_runs_the_kernel(tmp_path, kernel_calls):
    # a tree metric and the 4-cycle's path metric: no points of any R^m have
    # these distances, so ``_embeds`` leaves them to the kernel
    sp = tree_space(8)
    kernel_calls.clear()  # tree_space validated its matrix already
    FiniteMetricSpace(np.array(sp.dist))
    (tmp_path / "d.json").write_text(json.dumps(sp.to_json()))
    FiniteMetricSpace.load(str(tmp_path / "d.json"))
    (tmp_path / "d.csv").write_text("0,1,2,1\n1,0,1,2\n2,1,0,1\n1,2,1,0\n")
    FiniteMetricSpace.load(str(tmp_path / "d.csv"))
    assert kernel_calls == [8, 8, 4]
    (tmp_path / "c.json").write_text(json.dumps({"coords": [[0.0, 0.0], [3.0, 4.0]]}))
    assert FiniteMetricSpace.load(str(tmp_path / "c.json")).dist[0, 1] == 5.0
    assert kernel_calls == [8, 8, 4]


def test_euclidean_matrix_input_skips_the_kernel(tmp_path, kernel_calls):
    sp = circle_space(8)
    FiniteMetricSpace(np.array(sp.dist))
    (tmp_path / "d.json").write_text(json.dumps(sp.to_json()))
    FiniteMetricSpace.load(str(tmp_path / "d.json"))
    (tmp_path / "d.csv").write_text("0,1,2\n1,0,1\n2,1,0\n")
    FiniteMetricSpace.load(str(tmp_path / "d.csv"))
    assert kernel_calls == []


def test_sample_matrices_are_certified():
    # the strained 21 x 21 grid, a jittered 200-point sphere by one
    # broadcast and the 2,000-point sphere are certified; a tree is not
    rng = np.random.default_rng(1)
    c = sphere_coords(200) + rng.normal(scale=0.01, size=(200, 3))
    c /= np.linalg.norm(c, axis=1)[:, None]
    for d in (grid_with_strainers(21)[0].dist, coord_distances(c),
              FiniteMetricSpace.from_coords(sphere_coords(2000)).dist):
        assert metric._embeds(np.array(d))
    assert not metric._embeds(np.array(tree_space(200).dist))


@st.composite
def _near_euclidean(draw):
    """Stored matrices (symmetric, zero diagonal) of 1 to 40 points of rank 0
    to 10 in R^10 at scales 1e-6 to 1e8, with repeated points, symmetric
    noise of up to ``METRIC_TOL`` and one pair of entries lengthened by up to
    twice ``METRIC_TOL``."""
    n = draw(st.sampled_from([1, 2]) | st.integers(3, 40), label="n")
    rank = draw(st.integers(0, 10), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    c = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, 10))
    c *= 10.0 ** draw(st.integers(-6, 8), label="exponent")
    for _ in range(draw(st.integers(0, 3), label="repeats")):
        c[rng.integers(n)] = c[rng.integers(n)]
    d = coord_distances(c)
    size = st.sampled_from([0.0, 1e-12, 1e-10, METRIC_TOL / 4, METRIC_TOL / 3, METRIC_TOL,
                            2.0 * METRIC_TOL])
    noise = draw(size, label="noise")
    d += rng.uniform(-noise, noise, size=d.shape)
    i, k = rng.integers(n, size=2)
    d[[i, k], [k, i]] += draw(size, label="lengthen")
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


@given(_near_euclidean())
@settings(max_examples=400, deadline=None)
def test_certificate_accepts_only_what_the_kernel_accepts(d):
    with _small_blocks():  # several blocks of recomputed distances
        certified = metric._embeds(d)
    if certified:
        assert triangle_defects(d).max() <= METRIC_TOL


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


@pytest.mark.parametrize("i", [-1, 4, True, 1.0])
def test_point_map_names_a_bad_point(i):
    # -1 used to give point 3's image, and 4 a bare IndexError
    sp = line_space(4)
    f = PointMap(sp, sp, np.arange(4)[::-1])
    assert [f(x) for x in range(4)] == [3, 2, 1, 0]
    with pytest.raises(MetricError) as exc:
        f(i)
    assert str(exc.value) == f"source point {i!r} is not a point index in [0, 4)"


@pytest.mark.parametrize("image, message", [
    ([1.5, 0.0, 2.0, 3.0], "image must hold integer point indices, got float64"),
    (np.arange(4.0), "image must hold integer point indices, got float64"),
    ([True, False, True, False], "image must hold integer point indices, got bool"),
    ([[0], [1], [2], [3]], "image must be 1-D of the source size 4, got shape (4, 1)"),
    (np.arange(8).reshape(2, 4), "image must be 1-D of the source size 4, got shape (2, 4)"),
    ([[0], 1, 2, 3], "image must be 1-D of the source size 4, got a ragged sequence"),
])
def test_point_map_rejects_an_image_that_is_no_index_vector(image, message):
    # float images used to be truncated to points, bools read as 0 and 1
    sp = line_space(4)
    with pytest.raises(MetricError) as exc:
        PointMap(sp, sp, image)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("args, bad", [
    ((-1, 1, 0), -1), ((0, 4, 1), 4), ((0, 1, 4), 4), ((0, 1.0, 2), 1.0)])
def test_comparison_angle_names_a_bad_point(args, bad):
    # -1 used to wrap round to point 3, and 4 to raise a bare IndexError
    with pytest.raises(MetricError) as exc:
        comparison_angle(line_space(4), *args)
    assert str(exc.value) == f"angle point {bad!r} is not a point index in [0, 4)"


def test_strainer_on_plane_grid():
    from nervekit.samples import grid_with_strainers

    space, pairs = grid_with_strainers(5, spacing=1.0, reach=200.0)
    p = 12  # the middle of the grid
    report = check_strainer(space, p, pairs, delta=0.1)
    assert report.ok
    assert report.length > 100.0


def test_strainer_needs_a_pair():
    sp = line_space(5)
    with pytest.raises(MetricError) as exc:
        check_strainer(sp, 2, [], delta=0.1)
    assert str(exc.value) == "a strainer needs at least one pair"


def test_strainer_fails_on_bad_pair():
    sp = line_space(5)
    # both "opposite" points on the same side of p
    report = check_strainer(sp, 0, [(1, 2)], delta=0.1)
    assert not report.ok
    assert report.worst_margin < 0.0


@given(spaces(), spaces(), st.data())
@settings(max_examples=150, deadline=None)
def test_distortion_matches_the_two_step_gather(X, Y, data):
    # square (X is Y) and non-square pairs; images repeat points
    target = data.draw(st.sampled_from([X, Y]))
    image = data.draw(st.lists(st.integers(0, target.n - 1), min_size=X.n, max_size=X.n))
    pmap = PointMap(X, target, image)
    f = pmap.image
    gap = np.abs(target.dist[f][:, f] - X.dist)
    i, j = np.unravel_index(np.argmax(gap), gap.shape)
    value, pair = pmap.distortion()
    assert np.float64(value).tobytes() == gap[i, j].tobytes()
    assert pair == (int(i), int(j))


def test_distortion_memory_is_one_gathered_matrix():
    # one n x n gather of the target's distances, subtracted from and made
    # absolute in place
    X = circle_space(1000)
    pmap = PointMap(X, X, (np.arange(1000) * 7) % 1000)
    tracemalloc.start()
    try:
        pmap.distortion()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 1000 * 1000 + 2**20
