"""The bitset cover core and the linear complex checks against the oracles
in ``oracles.py``, on hypothesis covers and the conftest covers."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (line_pair_cover, octahedral_cover, three_arc_cover,
                      tree_ball_cover)
from nervekit.complex import ComplexError, SimplicialComplex
from nervekit.cover import Cover, intersections
from nervekit.metric import FiniteMetricSpace
from nervekit.nerve import nerve_of
from nervekit.partition import PartitionOfUnity, f_weight

FIXED_COVERS = {
    "three_arc": three_arc_cover,
    "octahedral": octahedral_cover,
    "line_pair": line_pair_cover,
    "tree_ball": tree_ball_cover,
}


@st.composite
def covers(draw):
    """Up to 10 sets on up to 30 points: balls or random subsets around
    random centers, on a random cloud or on a small integer grid whose
    distances tie often; uncovered points join a random set."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cells = rng.choice(36, size=n, replace=False)
        coords = np.stack([cells // 6, cells % 6], axis=1).astype(float)
    else:
        coords = rng.uniform(0.0, 5.0, size=(n, 2))
    space = FiniteMetricSpace.from_coords(coords)
    centers = rng.integers(0, n, size=m).tolist()
    if draw(st.booleans()):
        radius = draw(st.floats(0.5, 8.0))
        sets = [set(space.ball(c, radius)) for c in centers]
    else:
        density = draw(st.floats(0.0, 1.0))
        sets = [set(np.flatnonzero(rng.random(n) < density).tolist()) | {c}
                for c in centers]
    for x in range(n):
        if not any(x in s for s in sets):
            sets[int(rng.integers(m))].add(x)
    return Cover(space, tuple(sets), tuple(centers))


def _check_records(cov, max_order):
    got = intersections(cov, max_order)
    assert got == oracles.intersections(cov, max_order)
    assert got == oracles.brute_force_intersections(cov, max_order)


def _check_nerve(cov, max_dim):
    K = nerve_of(cov, max_dim=max_dim)
    expected = oracles.intersections(cov, max_dim + 1)
    assert K.simplices == frozenset(rec.indices for rec in expected)
    assert K.maximal_simplices() == oracles.maximal_simplices(K.simplices)


@given(covers(), st.integers(1, 11))
@settings(max_examples=60, deadline=None)
def test_records_match_oracle_and_brute_force(cov, max_order):
    _check_records(cov, max_order)


@given(covers(), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_nerve_and_maximal_simplices_match_oracle(cov, max_dim):
    _check_nerve(cov, max_dim)


@pytest.mark.parametrize("name", sorted(FIXED_COVERS))
def test_fixed_covers_match_oracle(name):
    cov = FIXED_COVERS[name]()
    multiplicity = int(cov.multiplicities().max())
    for order in sorted({1, 2, 3, multiplicity, multiplicity + 1}):
        _check_records(cov, order)
        _check_nerve(cov, order - 1)
    assert np.asarray(PartitionOfUnity(cov).values).tobytes() == \
        oracles.pou_values(cov, f_weight).tobytes()


def test_numpy_integer_members_past_bit_63():
    cov = octahedral_cover()
    as_numpy = Cover(cov.space, tuple(frozenset(np.array(sorted(s))) for s in cov.sets),
                     cov.centers)
    assert intersections(as_numpy, 3) == intersections(cov, 3)
    assert nerve_of(as_numpy).simplices == nerve_of(cov).simplices


@given(covers(), st.data())
@settings(max_examples=60, deadline=None)
def test_family_missing_a_face_is_rejected(cov, data):
    K = nerve_of(cov, max_dim=cov.n_sets)
    maximal = {frozenset(s) for s in K.maximal_simplices()}
    faces = sorted((s for s in K.simplices if s not in maximal),
                   key=lambda s: (len(s), sorted(s)))
    assume(faces)
    face = data.draw(st.sampled_from(faces))
    broken = K.simplices - {face}
    with pytest.raises(ComplexError, match="downward"):
        oracles.check_closed(K.n_vertices, broken)
    with pytest.raises(ComplexError, match="downward"):
        SimplicialComplex(K.n_vertices, broken)


@given(covers())
@settings(max_examples=60, deadline=None)
def test_partition_values_bit_equal_to_f_weight_loop(cov):
    assume(all(len(cov.sets[j]) == cov.space.n for j in cov.boundary_flagged()))
    got = PartitionOfUnity(cov).values
    assert got.tobytes() == oracles.pou_values(cov, f_weight).tobytes()
