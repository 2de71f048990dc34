"""The bitset ``SimplicialComplex`` against the frozenset oracles in
``oracles.py`` and an ``itertools.combinations`` closure: the closure check,
maximal simplices, JSON, membership, skeleta and ``from_maximal``."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import octahedral_cover, three_arc_cover
from nervekit import stability
from nervekit.complex import ComplexError, SimplicialComplex
from nervekit.homology import betti, vr_complex
from nervekit.metric import MetricError, PointMap, check_approximation
from nervekit.nerve import nerve_of


def closure(maximal):
    """Every nonempty face of every given simplex."""
    return frozenset(
        frozenset(face)
        for s in maximal
        for k in range(1, len(s) + 1)
        for face in itertools.combinations(sorted(s), k)
    )


@st.composite
def families(draw):
    """The closure of up to 8 random simplices on up to 12 vertices; in about
    half the cases one of its simplices is removed, which leaves the family
    closed only when that simplex was maximal."""
    n = draw(st.integers(1, 12))
    simplex = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(6, n))
    maximal = draw(st.lists(simplex, max_size=8))
    family = closure(maximal)
    if family and draw(st.booleans()):
        family = family - {draw(st.sampled_from(sorted(family, key=sorted)))}
    return n, maximal, family


@given(families(), st.data())
@settings(max_examples=200, deadline=None)
def test_complex_matches_oracles(case, data):
    n, maximal, family = case
    try:
        oracles.check_closed(n, family)
    except ComplexError as exc:
        with pytest.raises(ComplexError) as got:
            SimplicialComplex(n, family)
        assert str(got.value) == str(exc)
        return
    K = SimplicialComplex(n, family)
    assert K.simplices == family
    want = oracles.maximal_simplices(family)
    assert K.maximal_simplices() == want
    assert K.to_json() == {"n": n, "simplices": [list(s) for s in want]}
    assert K.dim == max(map(len, family), default=0) - 1
    assert K.vertices == frozenset().union(*family)
    for k in range(K.dim + 2):
        assert K.skeleton(k).simplices == {s for s in family if len(s) <= k + 1}
    probes = data.draw(st.lists(st.frozensets(st.integers(-1, n), max_size=4), max_size=10))
    for s in list(family)[:10] + probes:
        assert K.contains(s) == (s in family)
        assert K.contains(sorted(s)) == (s in family)
    assert SimplicialComplex.from_maximal(n, maximal).simplices == closure(maximal)


def test_maximal_simplices_in_lexicographic_not_mask_order():
    # {0, 3} has the larger bitset (9 > 6) but sorts first
    K = SimplicialComplex.from_maximal(4, [(1, 2), (0, 3)])
    assert K.maximal_simplices() == [(0, 3), (1, 2)]
    assert K.to_json() == {"n": 4, "simplices": [[0, 3], [1, 2]]}


def test_lift_names_the_lexicographically_first_differing_simplex(monkeypatch):
    cov = three_arc_cover(16)
    nerves = iter([SimplicialComplex.from_maximal(4, [(0, 3), (1,), (2,)]),
                   SimplicialComplex.from_maximal(4, [(1, 2), (0,), (3,)])])
    monkeypatch.setattr(stability, "nerve_of", lambda cover, max_dim=None: next(nerves))
    cert = check_approximation(PointMap(cov.space, cov.space, range(16)), cov.mesh() / 8)
    with pytest.raises(MetricError, match=r"simplex \[0, 3\] differs$"):
        stability.lift_cover(cov, cert)


def test_nerve_and_vr_paths_leave_the_frozenset_view_unbuilt():
    cov = octahedral_cover()
    for K in (nerve_of(cov), vr_complex(cov.space, 0.5, max_dim=3)):
        betti(K)
        K.maximal_simplices()
        K.to_json()
        K.contains({0, 2})
        K.skeleton(1)
        assert "simplices" not in vars(K)
