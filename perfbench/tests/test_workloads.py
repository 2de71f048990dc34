"""Seeded inputs and output checks of the three workloads, at reduced sizes."""
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from nervekit.cover import build_ball_cover, intersections  # noqa: E402
from nervekit.homology import BettiVector, NerveMatchReport  # noqa: E402
from nervekit.metric import FiniteMetricSpace  # noqa: E402
from workloads import (Maps, SphereGoodness, SphereNerve,  # noqa: E402
                       count_intersections, jittered_sphere)

SMALL_MAPS = {"traces": 40, "circle_n": 64, "grid_m": 17}


def _same(a, b) -> bool:
    """Deep equality of generated inputs (arrays, scalars, cylinder points)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _space_bytes(inp):
    with open(inp["space"], "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def maps_pass(tmp_path_factory):
    wl = Maps(3, str(tmp_path_factory.mktemp("maps")), **SMALL_MAPS)
    return wl, wl.run(wl.first)


def test_seed_fixes_sphere_nerve_inputs(tmp_path):
    a = SphereNerve(5, str(tmp_path))
    b = SphereNerve(5, str(tmp_path))
    c = SphereNerve(6, str(tmp_path))
    assert _same(a.inputs(3), b.inputs(3))
    assert not _same(a.inputs(3), c.inputs(3))
    assert not _same(a.inputs(3), a.inputs(4))


def test_seed_fixes_sphere_goodness_inputs(tmp_path):
    def made(seed, i, tag):
        (tmp_path / tag).mkdir(exist_ok=True)
        inp = SphereGoodness(seed, str(tmp_path / tag)).inputs(i)
        return _space_bytes(inp), inp["cover_seed"]

    first = made(5, 2, "a")
    assert first == made(5, 2, "b")
    assert first != made(5, 3, "b")
    assert first != made(6, 2, "b")


def test_seed_fixes_maps_inputs(tmp_path):
    a = Maps(5, str(tmp_path), **SMALL_MAPS)
    b = Maps(5, str(tmp_path), **SMALL_MAPS)
    c = Maps(6, str(tmp_path), **SMALL_MAPS)
    assert _same(a.first, b.first)
    assert not _same(a.first, c.first)


def test_sphere_nerve_check_flags_corruption(tmp_path):
    wl = SphereNerve(2, str(tmp_path))
    out = wl.run(wl.first)
    assert wl.check(wl.first, out).failed == 0

    v = out["verify"]
    wrong = NerveMatchReport(BettiVector((1, 1, 1), 2), v.space_betti, matches=False)
    assert wl.check(wl.first, dict(out, verify=wrong)).failed == 1
    wrong = NerveMatchReport(v.nerve_betti, BettiVector((2, 0, 1), 2), matches=False)
    assert wl.check(wl.first, dict(out, verify=wrong)).failed == 1

    pou = np.array(out["pou"])
    pou[7, np.flatnonzero(pou[7])[0]] += 1e-9
    assert wl.check(wl.first, dict(out, pou=pou)).failed == 1
    assert wl.check(wl.first, dict(out, maximal=out["maximal"][1:] + [(0, 1000)])).failed == 1


def test_sphere_goodness_check_flags_corruption(tmp_path):
    wl = SphereGoodness(1, str(tmp_path))
    out = wl.run(wl.first)
    checked = wl.check(wl.first, out)
    assert (checked.attempted, checked.failed) == (1, 0)
    assert wl.final_check().failed == 0

    assert wl.check(wl.first, dict(out, code=1)).failed == 1
    with open(out["report"]) as fh:
        report = json.load(fh)
    broken = dict(report, entries=report["entries"][:-1])
    with open(out["report"], "w") as fh:
        json.dump(broken, fh)
    assert wl.check(wl.first, out).failed == 1
    with open(out["report"], "w") as fh:
        json.dump(dict(report, **{"pass": False}), fh)
    assert wl.check(wl.first, out).failed == 1

    wl.first_report += b" "
    assert wl.final_check().failed == 1


def test_maps_check_flags_corruption(maps_pass):
    wl, out = maps_pass
    checked = wl.check(wl.first, out)
    assert (checked.attempted, checked.failed) == (SMALL_MAPS["traces"] + 1, 0)

    traces = list(out["traces"])
    traces[3] = (True, False, traces[3][2])
    assert wl.check(wl.first, dict(out, traces=traces)).failed == 1

    assert wl.check(wl.first, dict(out, gh=(1.0, 0.5))).failed == 1

    x = min(wl.first["D"])
    glued = out["glued"].copy()
    glued[x] = out["g"][x] + 1
    assert wl.check(wl.first, dict(out, glued=glued)).failed == 1
    glued = out["glued"].copy()
    glued[-1] = 0  # a far strainer point, outside D0
    assert wl.check(wl.first, dict(out, glued=glued)).failed == 1

    hom = out["homotopy"].copy()
    hom[x, 2] = x
    assert wl.check(wl.first, dict(out, homotopy=hom)).failed == 1
    hom = out["homotopy"].copy()
    hom[-1, 1] = 0
    assert wl.check(wl.first, dict(out, homotopy=hom)).failed == 1


def test_count_intersections_matches_nervekit():
    rng = np.random.default_rng(0)
    space = FiniteMetricSpace.from_coords(jittered_sphere(50, rng))
    cov = build_ball_cover(space, 0.9, seed=4)
    for order in (1, 2, 5, 8):
        assert count_intersections(cov.sets, order) == len(intersections(cov, order))
    assert count_intersections([{0, 1}, {2}], 2) == 2
    assert math.comb(4, 1) + math.comb(4, 2) == count_intersections([{0}] * 4, 2)
