import json
import math

import numpy as np
import pytest

from conftest import three_arc_cover
from nervekit.cli import main
from nervekit.samples import circle_space, grid_with_strainers


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
