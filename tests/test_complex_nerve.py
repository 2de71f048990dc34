import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import octahedral_cover, ten_line_sets_cover, three_arc_cover
from nervekit.complex import (BarycentricPoint, ComplexError,
                              SimplicialComplex, combine,
                              realization_distance)
from nervekit.nerve import nerve_of


def test_downward_closure_enforced():
    with pytest.raises(ComplexError, match="downward"):
        SimplicialComplex(3, frozenset({frozenset({0, 1})}))


def test_from_maximal_closes():
    K = SimplicialComplex.from_maximal(3, [(0, 1, 2)])
    assert len(K.simplices) == 7
    assert K.dim == 2


def test_skeleton():
    K = SimplicialComplex.from_maximal(4, [(0, 1, 2), (2, 3)])
    sk = K.skeleton(1)
    assert sk.dim == 1
    assert sk.contains({0, 1}) and not sk.contains({0, 1, 2})


def test_relabel_isomorphism():
    K = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2)])
    perm = {0: 2, 1: 0, 2: 1}
    L = K.relabel(perm)
    assert K.is_isomorphic_under(perm, L)
    assert L.contains({0, 2})


def test_complex_json_roundtrip(tmp_path):
    K = SimplicialComplex.from_maximal(5, [(0, 1, 2), (2, 3), (4,)])
    path = tmp_path / "complex.json"
    K.save(str(path))
    assert SimplicialComplex.load(str(path)).simplices == K.simplices


def test_barycentric_drops_tiny_weights():
    p = BarycentricPoint({0: 1.0, 1: 1e-17})
    assert p.support == frozenset({0})
    assert p[0] == 1.0


def test_barycentric_renormalizes():
    p = BarycentricPoint({0: 2.0, 1: 2.0})
    assert p[0] == pytest.approx(0.5)
    assert abs(sum(p.weights.values()) - 1.0) <= 1e-12


def test_barycentric_needs_positive_weight():
    with pytest.raises(ComplexError):
        BarycentricPoint({0: 0.0})


def test_realization_distance_is_sup_norm():
    a = BarycentricPoint({0: 0.5, 1: 0.5})
    b = BarycentricPoint({1: 0.25, 2: 0.75})
    assert realization_distance(a, b) == 0.75
    assert realization_distance(a, a) == 0.0


def test_combine_exact_endpoints():
    a = BarycentricPoint({0: 0.3, 1: 0.7})
    b = BarycentricPoint({1: 0.4, 2: 0.6})
    assert combine(a, b, 0.0) is a
    assert combine(a, b, 1.0) is b
    mid = combine(a, b, 0.5)
    assert mid[1] == pytest.approx(0.55)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_combine_fixed_point_when_equal(s):
    a = BarycentricPoint({0: 0.25, 3: 0.75})
    b = BarycentricPoint({0: 0.25, 3: 0.75})
    assert combine(a, b, s) == a


# ---------------------------------------------------------------------------
# nerves
# ---------------------------------------------------------------------------


def test_three_arc_nerve_is_hollow_triangle():
    K = nerve_of(three_arc_cover())
    assert sorted(K.maximal_simplices()) == [(0, 1), (0, 2), (1, 2)]


def test_octahedral_nerve_is_octahedron_boundary():
    K = nerve_of(octahedral_cover())
    expected = sorted(
        (a, b, c)
        for a in (0, 1)
        for b in (2, 3)
        for c in (4, 5)
    )
    assert sorted(tuple(sorted(s)) for s in K.maximal_simplices()) == expected


def test_nerve_truncation_matches_skeleton():
    cov = octahedral_cover()
    full = nerve_of(cov, max_dim=3)
    assert nerve_of(cov, max_dim=1).simplices == full.skeleton(1).simplices


def test_nerve_of_ten_sets_that_all_meet_is_the_whole_9_simplex():
    cov = ten_line_sets_cover()
    K = nerve_of(cov)
    assert K.dim == 9
    assert K.maximal_simplices() == [tuple(range(10))]
    skeleton = nerve_of(cov, max_dim=8)
    assert skeleton.dim == 8
    assert len(skeleton.maximal_simplices()) == 10


def test_nerve_vertices_match_sets():
    cov = three_arc_cover()
    K = nerve_of(cov)
    assert K.vertices == frozenset(range(cov.n_sets))


# ---------------------------------------------------------------------------
# vertex and empty-complex input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family, shown", [
    ([[0.5]], "[0.5]"),
    ([[0, 1.0], [0], [1]], "[0, 1.0]"),
    ([["a"]], "['a']"),
    ([[0], [None]], "[None]"),
    ([[-1, "a"]], "[-1, 'a']"),
])
def test_non_integer_vertex_names_the_simplex(family, shown):
    with pytest.raises(ComplexError) as err:
        SimplicialComplex(3, family)
    assert str(err.value) == f"non-integer vertex in simplex {shown}"
    with pytest.raises(ComplexError, match="non-integer vertex"):
        SimplicialComplex.from_maximal(3, family)


def test_from_json_rejects_float_vertex():
    with pytest.raises(ComplexError, match=r"non-integer vertex in simplex \[0, 1\.0\]"):
        SimplicialComplex.from_json({"n": 3, "simplices": [[0, 1.0], [2]]})


def test_numpy_integer_vertices_past_bit_63():
    K = SimplicialComplex.from_maximal(70, [np.array([3, 66]), (np.uint8(5),)])
    assert K.simplices == {frozenset({3}), frozenset({5}), frozenset({66}),
                           frozenset({3, 66})}
    assert K.to_json() == {"n": 70, "simplices": [[3, 66], [5]]}
    assert K.contains([np.int64(66), 3]) and not K.contains([np.int64(2)])
    assert not K.contains([0.5]) and not K.contains([-1])


@pytest.mark.parametrize("family, message", [
    ([[0, 5]], "vertex out of range in [0, 5]"),
    ([[3]], "vertex out of range in [3]"),
    ([[-1, 0]], "vertex out of range in [-1, 0]"),
    ([[]], "empty simplex not allowed"),
    ([[0, 1]], "complex is not downward closed"),
])
def test_invalid_family_messages(family, message):
    with pytest.raises(ComplexError) as err:
        SimplicialComplex(3, family)
    assert str(err.value) == message


def test_empty_complex_has_dimension_minus_one():
    K = SimplicialComplex(0, [])
    assert K.dim == -1
    assert K.vertices == frozenset() and K.simplices == frozenset()
    assert K.to_json() == {"n": 0, "simplices": []}
