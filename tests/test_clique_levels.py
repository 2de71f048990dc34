"""The one clique enumerator behind the nerve, the intersection records and
the Vietoris-Rips complexes: its levels against ``itertools.combinations``,
and its cap on the number of cliques per enumeration."""
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_arc_cover
from nervekit import complex as cx
from nervekit.cli import main
from nervekit.complex import ComplexError, _clique_levels
from nervekit.cover import Cover, intersections
from nervekit.homology import vr_complex
from nervekit.nerve import nerve_of
from nervekit.samples import line_space


@st.composite
def graphs_with_masks(draw):
    """A random graph on up to 9 vertices as larger-neighbour bitsets, a
    random 5-bit mask per vertex (0 at times) and a size bound."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = {p for p, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                         max_size=len(pairs)))) if keep}
    later = [sum(1 << w for w in range(v + 1, n) if (v, w) in edges) for v in range(n)]
    masks = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    return n, edges, later, masks, draw(st.integers(0, n + 2))


@given(graphs_with_masks())
@settings(max_examples=300, deadline=None)
def test_levels_are_the_lexicographic_cliques_with_a_nonzero_meet(graph):
    n, edges, later, masks, max_size = graph
    expected = []
    for k in range(1, max_size + 1):
        level = []
        for clique in itertools.combinations(range(n), k):
            meet = 31
            for v in clique:
                meet &= masks[v]
            if meet and all(p in edges for p in itertools.combinations(clique, 2)):
                common = [w for w in range(clique[-1] + 1, n)
                          if all((v, w) in edges for v in clique)]
                level.append((sum(1 << v for v in clique), meet,
                              sum(1 << w for w in common)))
        if not level:
            break
        expected.append(level)
    assert list(_clique_levels(later, masks, max_size)) == expected


def _whole_space_cover(m):
    """m sets of every point of a 12-point line: 2^m - 1 intersections."""
    space = line_space(12)
    return Cover(space, (range(12),) * m, (0,) * m)


def test_cap_is_the_largest_enumeration_allowed(monkeypatch):
    cover = _whole_space_cover(6)
    monkeypatch.setattr(cx, "_CLIQUE_CAP", 63)
    assert len(intersections(cover, 6)) == 63
    assert len(nerve_of(cover, 5).simplices) == 63
    monkeypatch.setattr(cx, "_CLIQUE_CAP", 62)
    message = "clique enumeration reached 63 cliques at size 6, past its cap of 62"
    with pytest.raises(ComplexError, match=message):
        intersections(cover, 6)
    with pytest.raises(ComplexError, match=message):
        nerve_of(cover, 5)
    assert len(intersections(cover, 5)) == 62  # the levels asked for fit


def test_cap_bounds_the_vietoris_rips_cliques(monkeypatch):
    """At a scale above its diameter, a 12-point line is one 12-clique."""
    monkeypatch.setattr(cx, "_CLIQUE_CAP", 12 + 66 + 220 + 495)
    assert len(vr_complex(line_space(12), 20.0, 3).simplices) == 793
    monkeypatch.setattr(cx, "_CLIQUE_CAP", 792)
    with pytest.raises(ComplexError, match="reached 793 cliques at size 4, past its cap of 792"):
        vr_complex(line_space(12), 20.0, 3)


def test_cap_stops_a_level_before_it_is_built(monkeypatch):
    """40 sets that all meet have 2^40 - 1 intersections, 9,880 of them of
    three sets; that level is built only one past the cap."""
    monkeypatch.setattr(cx, "_CLIQUE_CAP", 1000)
    with pytest.raises(ComplexError, match="reached 1001 cliques at size 3"):
        nerve_of(_whole_space_cover(40), 39)


def test_cap_is_a_value_error_for_the_cli(tmp_path, capsys, monkeypatch):
    cov = three_arc_cover(24)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(cov.space.to_json()))
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cov.to_json()))
    monkeypatch.setattr(cx, "_CLIQUE_CAP", 5)
    code = main(["nerve", str(space_path), str(cover_path),
                 "--out", str(tmp_path / "nerve.json")])
    assert code == 2
    assert capsys.readouterr().err == \
        "clique enumeration reached 6 cliques at size 2, past its cap of 5\n"
    assert not (tmp_path / "nerve.json").exists()
