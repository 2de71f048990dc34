import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ten_line_sets_cover, three_arc_cover
from nervekit.cli import _dumps, main
from nervekit.cover import build_ball_cover
from nervekit.metric import FiniteMetricSpace
from nervekit.samples import circle_space, grid_with_strainers, line_space


@pytest.fixture
def circle_files(tmp_path):
    sp = circle_space(24)
    space_path = tmp_path / "circle.json"
    space_path.write_text(json.dumps(sp.to_json()))
    return sp, str(space_path)


def _write_cover(tmp_path, cov, name="cover.json"):
    path = tmp_path / name
    cov.save(str(path))
    return str(path)


def test_cover_subcommand_writes_files(tmp_path, circle_files):
    _, space_path = circle_files
    out = tmp_path / "cover.json"
    report = tmp_path / "report.json"
    code = main([
        "cover", space_path, "--radius", "0.9", "--seed", "1",
        "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    cov = json.loads(out.read_text())
    assert cov["sets"] and cov["centers"]
    rep = json.loads(report.read_text())
    assert rep["advisory"] is True
    assert rep["version"]
    assert rep["config"]["radius"] == 0.9


def test_cover_report_is_json_dumps_indent_2(tmp_path, circle_files):
    _, space_path = circle_files
    report = tmp_path / "report.json"
    assert main(["cover", space_path, "--radius", "0.9", "--seed", "1",
                 "--out", str(tmp_path / "cover.json"), "--report", str(report)]) == 0
    text = report.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
    st.floats(), st.floats().map(np.float64), st.just(-0.0),
    st.text(), st.sampled_from(['"q"', "back\\slash", "\x00\x1f\n\t", "\u00e9\u2028\U0001f600"]),
)
KEYS = (st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()))
REJECTED = st.sampled_from([np.int64(3), {1}, b"x", 1j, object()])


ROW_KEYS = st.one_of(st.text(max_size=3), st.sampled_from(["%s", "%", "a%%b", "%(x)s"]))


@st.composite
def _rows(draw, kids):
    """Lists of dicts with one set of str keys, the report's shape, whose
    values are kids, nan, inf, numpy floats or lists or tuples of ints and
    bools, in columns of one kind or mixed; some rows deviate: a key
    missing, an extra str or non-str key, or an item that is no dict."""
    keys = draw(st.lists(ROW_KEYS, min_size=1, max_size=5, unique=True))
    cell = st.one_of(kids, st.sampled_from([math.nan, math.inf, -math.inf]),
                     st.floats().map(np.float64), st.lists(st.integers(-2**70, 2**70)),
                     st.lists(st.one_of(st.integers(), st.booleans())))
    # a column of one kind of value, or of any
    column = {k: draw(st.sampled_from([
        cell, st.booleans(), st.integers(), st.floats(), st.text(), st.none(),
        st.floats().map(np.float64), st.lists(st.integers()),
        st.lists(st.integers(), min_size=1), st.lists(st.integers(), min_size=1).map(tuple),
        st.one_of(st.lists(st.integers(), min_size=1), st.lists(st.integers()).map(tuple)),
        st.lists(st.one_of(st.integers(), st.booleans()), min_size=1)])) for k in keys}
    rows = draw(st.lists(st.fixed_dictionaries(column), min_size=1, max_size=6))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3, unique=True)):
        row = dict(rows[i])
        kind = draw(st.sampled_from(["missing", "extra", "non-str", "item"]))
        if kind == "missing":
            del row[draw(st.sampled_from(keys))]
        elif kind == "extra":
            row[draw(ROW_KEYS)] = draw(cell)
        elif kind == "non-str":
            row[draw(st.one_of(*KEYS[1:]))] = draw(cell)
        else:
            row = draw(cell)
        rows[i] = row
    return rows


def _values(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids), st.lists(kids).map(tuple),
        *(st.dictionaries(k, kids) for k in KEYS),
        st.dictionaries(st.one_of(*KEYS), kids),
        st.dictionaries(st.tuples(st.integers()), kids, max_size=1),
        _rows(kids), _rows(kids).map(tuple),
    ), max_leaves=25)


def _same_as_json(value):
    try:
        want = json.dumps(value, sort_keys=True, indent=2)
    except TypeError as exc:
        with pytest.raises(TypeError) as got:
            _dumps(value)
        assert str(got.value) == str(exc)
    else:
        assert _dumps(value) == want


@given(_values(SCALARS))
@settings(max_examples=300, deadline=None)
def test_dumps_equals_json_dumps(value):
    _same_as_json(value)


@given(_values(st.one_of(SCALARS, REJECTED)))
@settings(max_examples=150, deadline=None)
def test_dumps_rejects_what_json_rejects(value):
    _same_as_json(value)


# 4096 copies of the drawn rows: a report as long as a large cover's
@pytest.mark.parametrize("copies", [1, 4096])
@given(_rows(_values(SCALARS)))
@settings(max_examples=100, deadline=None)
def test_dumps_writes_rows_as_json_dumps(copies, value):
    _same_as_json(value * copies)


@given(_rows(_values(st.one_of(SCALARS, REJECTED))))
@example([{"a": 1, "b": b"x"}, {"a": 1j, "b": 2}])  # json names the bytes in row 0
@settings(max_examples=100, deadline=None)
def test_dumps_rejects_in_rows_what_json_rejects(value):
    _same_as_json(value)


def test_cover_subcommand_rejects_bad_radius(tmp_path, circle_files):
    _, space_path = circle_files
    code = main([
        "cover", space_path, "--radius", "-1",
        "--out", str(tmp_path / "c.json"),
    ])
    assert code == 2


def test_cover_rejects_invalid_matrix(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dist": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}))
    code = main([
        "cover", str(bad), "--radius", "1.0", "--out", str(tmp_path / "c.json"),
    ])
    assert code == 2


@pytest.mark.parametrize("name, text, message", [
    ("empty.csv", "", "empty distance matrix"),
    ("cell.csv", "d0,d1\n0,1\n1,x\n", "non-numeric entry at (1,1): 'x'"),
    ("ragged.json", json.dumps({"dist": [[0, 1], [1, 0, 2]]}),
     "dist row 1 has length 3, expected 2"),
])
def test_cover_rejects_malformed_space_file(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    code = main([
        "cover", str(path), "--radius", "1.0", "--out", str(tmp_path / "c.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == message + "\n"


def test_nerve_and_verify_subcommands(tmp_path):
    cov = three_arc_cover(24)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(cov.space.to_json()))
    cover_path = _write_cover(tmp_path, cov)
    nerve_path = tmp_path / "nerve.json"
    assert main(["nerve", str(space_path), cover_path,
                 "--out", str(nerve_path)]) == 0
    obj = json.loads(nerve_path.read_text())
    assert sorted(map(sorted, obj["simplices"])) == [[0, 1], [0, 2], [1, 2]]

    report_path = tmp_path / "verify.json"
    code = main([
        "verify", str(space_path), cover_path,
        "--vr-scale", "0.6", "--max-dim", "2", "--out", str(report_path),
    ])
    assert code == 0
    rep = json.loads(report_path.read_text())
    assert rep["pass"] is True


def test_nerve_subcommand_is_whole_unless_given_a_max_dim(tmp_path):
    cov = ten_line_sets_cover()
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(cov.space.to_json()))
    cover_path = _write_cover(tmp_path, cov)
    nerve_path = tmp_path / "nerve.json"
    assert main(["nerve", str(space_path), cover_path, "--out", str(nerve_path)]) == 0
    assert json.loads(nerve_path.read_text())["simplices"] == [list(range(10))]
    assert main(["nerve", str(space_path), cover_path, "--max-dim", "8",
                 "--out", str(nerve_path)]) == 0
    assert len(json.loads(nerve_path.read_text())["simplices"]) == 10


def test_gh_subcommand_small_spaces(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"dist": [[0.0, 1.0], [1.0, 0.0]]}))
    b.write_text(json.dumps({"dist": [[0.0, 2.0], [2.0, 0.0]]}))
    out = tmp_path / "gh.json"
    assert main(["gh", str(a), str(b), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["exact"] == 1.0
    assert rep["lower"] <= rep["exact"] <= rep["upper"]


def test_stability_subcommand(tmp_path):
    cov = three_arc_cover(32)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(cov.space.to_json()))
    cover_path = _write_cover(tmp_path, cov)
    out = tmp_path / "stab.json"
    code = main([
        "stability", str(space_path), str(space_path), cover_path,
        "--epsilon", str(cov.mesh() / 8.0), "--out", str(out),
    ])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["within_10_mesh"] and rep["within_100_mesh"]


def test_glue_subcommand(tmp_path):
    m = 9
    space, pairs = grid_with_strainers(m)
    space_path = tmp_path / "patch.json"
    space_path.write_text(json.dumps(space.to_json()))
    D = [i * m + j for i in range(3, 6) for j in range(3, 6)]
    mu = 2.0
    d_arr = space.dist[:, D].min(axis=1)
    D1 = [int(x) for x in np.flatnonzero(d_arr <= 2.0 * mu)]
    region = {
        "D": D,
        "mu": mu,
        "deltaR": 3.0,
        "g": {str(x): x for x in D1},
        "source_pairs": [list(p) for p in pairs],
        "target_pairs": [list(p) for p in pairs],
        "delta": 0.3,
    }
    region_path = tmp_path / "region.json"
    region_path.write_text(json.dumps(region))
    out = tmp_path / "glue.json"
    code = main([
        "glue", str(space_path), str(space_path),
        "--region", str(region_path), "--out", str(out),
    ])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["exact_on_D"] and rep["exact_outside_D0"]


def test_reports_are_deterministic(tmp_path, circle_files):
    _, space_path = circle_files
    out = tmp_path / "cover.json"
    report = tmp_path / "report.json"
    outs = []
    for _ in range(2):
        main([
            "cover", space_path, "--radius", "0.9", "--seed", "3",
            "--out", str(out), "--report", str(report),
        ])
        outs.append((out.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("bad", [8, -1])
def test_nerve_rejects_cover_member_outside_the_space(tmp_path, capsys, bad):
    sp = circle_space(8)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(sp.to_json()))
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(
        {"sets": [list(range(8)), [0, bad]], "centers": [0, 0]}))
    code = main(["nerve", str(space_path), str(cover_path),
                 "--out", str(tmp_path / "nerve.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"set 1 member {bad} is not a point index in [0, 8)\n")


def test_stability_rejects_radius_hint_of_wrong_length(tmp_path, capsys):
    cov = three_arc_cover(32)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(cov.space.to_json()))
    obj = cov.to_json()
    obj["radius_hint"] = obj["radius_hint"][:2]
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(obj))
    code = main(["stability", str(space_path), str(space_path), str(cover_path),
                 "--epsilon", str(cov.mesh() / 8.0)])
    assert code == 2
    assert capsys.readouterr().err == "3 sets but 2 radius hints\n"


@pytest.mark.parametrize("change, message", [
    ({"D": [40, 85]}, "D point 85 is not a point index in [0, 85)"),
    ({"D": [40, -1]}, "D point -1 is not a point index in [0, 85)"),
    ({"mu": 0}, "mu must be positive and finite, got 0.0"),
    ({"mu": -1}, "mu must be positive and finite, got -1.0"),
    ({"source_pairs": [[81, 82], [83, 85]]},
     "strainer point 85 is not a point index in [0, 85)"),
    ({"source_pairs": []}, "a strainer needs at least one pair"),
    ({"source_pairs": [[81, 82], [83]]}, "strainer pair [83] must hold exactly two points"),
    ({"g": {**{str(x): x for x in range(85)}, "-1": 0}},
     "region JSON 'g' key '-1' is not a point index in [0, 85)"),
    ({"g": {"x": 0}}, "region JSON 'g' key 'x' is not a point index in [0, 85)"),
    ({"f": [1.5] * 85}, "image must hold integer point indices, got float64"),
    ({"f": [[0]] * 85}, "image must be 1-D of the source size 85, got shape (85, 1)"),
    ({"f": [[0]] + list(range(1, 85))},
     "image must be 1-D of the source size 85, got a ragged sequence"),
    ({"g": {str(x): x for x in range(85) if x != 20}},
     "partial map g is undefined at chart center 20"),
    ({"deltaR": 0}, "gluing deltaR must be positive, got 0.0"),
])
def test_glue_rejects_malformed_region(tmp_path, capsys, change, message):
    space, pairs = grid_with_strainers(9)
    space_path = tmp_path / "patch.json"
    space_path.write_text(json.dumps(space.to_json()))
    region = {"D": [30, 31, 39, 40, 41, 49, 50], "mu": 2.0, "deltaR": 3.0,
              "g": {str(x): x for x in range(space.n)},
              "source_pairs": [list(p) for p in pairs],
              "target_pairs": [list(p) for p in pairs], "delta": 0.3}
    region.update(change)
    region_path = tmp_path / "region.json"
    region_path.write_text(json.dumps(region))
    code = main(["glue", str(space_path), str(space_path),
                 "--region", str(region_path)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_cover_rejects_a_radius_that_is_not_positive(tmp_path, capsys, circle_files, value):
    _, space_path = circle_files
    code = main(["cover", space_path, "--radius", value,
                 "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert capsys.readouterr().err == "radius must be positive\n"
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("value", ["0", "nan"])
def test_verify_rejects_a_scale_that_is_not_positive(tmp_path, capsys, value):
    cov = three_arc_cover(24)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(cov.space.to_json()))
    report_path = tmp_path / "verify.json"
    code = main(["verify", str(space_path), _write_cover(tmp_path, cov),
                 "--vr-scale", value, "--out", str(report_path)])
    assert code == 2
    assert capsys.readouterr().err == "scale must be positive\n"
    assert not report_path.exists()


def test_verify_rejects_a_dimension_that_compares_nothing(tmp_path, capsys):
    """At --max-dim 0 no Betti number is compared; at 1, b0 is 1 against 12."""
    space = circle_space(12)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(space.to_json()))
    cover_path = _write_cover(tmp_path, build_ball_cover(space, 1.2))
    report_path = tmp_path / "verify.json"
    argv = ["verify", str(space_path), cover_path, "--vr-scale", "0.01",
            "--out", str(report_path)]
    assert main(argv + ["--max-dim", "0"]) == 2
    assert capsys.readouterr().err == \
        "max_dim must be >= 1 to compare any Betti number, got 0\n"
    assert not report_path.exists()
    assert main(argv + ["--max-dim", "1"]) == 1
    rep = json.loads(report_path.read_text())
    assert (rep["nerve_betti"], rep["space_betti"], rep["pass"]) == ([1], [12], False)


def test_cover_names_an_intersection_of_coincident_points(tmp_path, capsys):
    # points 0 and 1 coincide, and no other point is within the radius of
    # them, so their set has nearest-neighbour spacing 0 and no proxy scale
    space_path = tmp_path / "s.json"
    space_path.write_text(json.dumps({"coords": [[0, 0], [0, 0], [5, 0], [10, 0]]}))
    report_path = tmp_path / "r.json"
    code = main(["cover", str(space_path), "--radius", "1",
                 "--out", str(tmp_path / "c.json"), "--report", str(report_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "intersection of sets [1] has no goodness proxy scale: each of its members "
        "coincides with another, as points 0 and 1 do (distance 0.0)\n")
    assert not report_path.exists() and not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("name, text, argv, message", [
    ("c.json", '{"sets": 5, "centers": [0]}', ["nerve", "s.json", "c.json", "--out", "n.json"],
     "cover JSON 'sets' must be an array of arrays"),
    ("c.json", '{"sets": 5, "centers": [0]}', ["verify", "s.json", "c.json", "--vr-scale", "1"],
     "cover JSON 'sets' must be an array of arrays"),
    ("c.json", '{"sets": 5, "centers": [0]}',
     ["stability", "s.json", "s.json", "c.json", "--epsilon", "0.1"],
     "cover JSON 'sets' must be an array of arrays"),
    ("c.json", '{"sets": [[0]], "centers": [0], "radius_hint": [[1]]}',
     ["nerve", "s.json", "c.json", "--out", "n.json"],
     "cover JSON 'radius_hint' must be an array of numbers"),
    ("r.json", '{"D": 5}', ["glue", "s.json", "s.json", "--region", "r.json"],
     "region JSON needs 'D', an array"),
    ("r.json", "[1, 2]", ["glue", "s.json", "s.json", "--region", "r.json"],
     "region JSON needs 'D', an array"),
    ("s.json", "5", ["cover", "s.json", "--radius", "1", "--out", "c.json"],
     "space JSON must be an object with 'dist' or 'coords'"),
    ("c.json", '{"centers": [0]}', ["nerve", "s.json", "c.json", "--out", "n.json"],
     "cover JSON 'sets' must be an array of arrays"),
    ("c.json", '{"sets": [[0, 1, 2, 3, 4, 5, 6, 7]]}',
     ["nerve", "s.json", "c.json", "--out", "n.json"], "cover JSON 'centers' must be an array"),
], ids=["nerve", "verify", "stability", "radius-hint", "region-D", "region-list", "space",
        "no-sets", "no-centers"])
def test_malformed_json_input_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                               name, text, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps(circle_space(8).to_json()))
    (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"


REGION = {"D": [0], "mu": 1.0, "deltaR": 1.0, "g": {"0": 0},
          "source_pairs": [[3, 5]], "target_pairs": [[3, 5]]}
GLUE = ["glue", "s.json", "s.json", "--region", "r.json"]


@pytest.mark.parametrize("name, obj, argv, message", [
    ("c.json", {"sets": [[[0]]], "centers": [0]}, ["nerve", "s.json", "c.json", "--out", "n.json"],
     "set 0 member [0] is not a point index in [0, 8)"),
    ("r.json", dict(REGION, D=[[0]]), GLUE, "D point [0] is not a point index in [0, 8)"),
    ("r.json", dict(REGION, g={"0": [0]}), GLUE,
     "region JSON 'g' value [0] is not a point index in [0, 8)"),
    ("r.json", dict(REGION, source_pairs=[5]), GLUE,
     "region JSON 'source_pairs' must be an array of arrays"),
    ("r.json", dict(REGION, delta="x"), GLUE, "region JSON 'delta' must be a number"),
], ids=["cover-member", "region-D-item", "region-g-value", "region-pair", "region-delta"])
def test_nested_malformed_json_input_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                      name, obj, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps(circle_space(8).to_json()))
    (tmp_path / name).write_text(json.dumps(obj))
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("argv, message", [
    (["stability", "a.json", "b.json", "c.json", "--epsilon", "0.5"],
     "map is not an 0.5-approximation: distortion 3.0, defect 0.0; both must be below epsilon"),
    (["stability", "a.json", "five.json", "c.json", "--epsilon", "0.5"],
     "stability pipeline needs equal sample sizes (identity map)"),
    (["glue", "a.json", "five.json", "--region", "r.json"],
     "need an explicit f when sample sizes differ"),
    (["glue", "s.json", "s.json", "--region", "all.json"],
     "strainer check failed at 1: worst margin -2.2562"),
], ids=["stability-approximation", "stability-sizes", "glue-sizes", "glue-library"])
def test_commands_raise_and_main_alone_reports(tmp_path, monkeypatch, capsys, argv, message):
    # a failed approximation is lift_cover's to reject, and a rejection from
    # the gluing library reaches stderr as it is
    monkeypatch.chdir(tmp_path)
    line = line_space(4)
    files = {"a.json": line.to_json(), "b.json": FiniteMetricSpace(2.0 * line.dist).to_json(),
             "five.json": line_space(5).to_json(), "s.json": circle_space(8).to_json(),
             "c.json": {"sets": [[0, 1, 2, 3]], "centers": [0]}, "r.json": REGION,
             "all.json": dict(REGION, g={str(x): x for x in range(8)})}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"
