"""Time the north-star chain on a 2,000-point Fibonacci sphere, stage by stage.

Library stages: validation (``FiniteMetricSpace.from_coords``, or the
constructor on a distance matrix), ``build_ball_cover(r=0.7, seed=1)``,
``intersections(max_order=8)`` (which computes the cover's cached
``clearance``, so the later stages do not), ``goodness_report(max_order=8)``, the report
write (``cli._emit`` of the goodness report, as the ``cover`` command writes
it), ``nerve_of`` (the whole nerve: it had the 8-skeleton as default before,
so at n=2,000, where the multiplicity is 10, ``nerve_simplices`` and the
sha256 of the CLI ``nerve`` output differ from runs of such older trees),
``PartitionOfUnity`` and ``nerve_matches_space(scale=0.12, max_dim=3)``.
Each stage reports its wall time (``time.perf_counter``) and the process's
peak RSS after it (``getrusage``); the goodness report also its entry
count and the sha256 of its sorted, indent-2 JSON.  A CLI chain writes its
input file and runs ``cover``, ``nerve`` and ``verify`` on it, each in a
fresh process, with its wall time, exit code, the peak RSS of the commands
so far and the sha256 of every file it writes.  Its inputs are the
coordinates as JSON (``cli-coords``) and the ``from_coords`` distance
matrix as JSON (``cli-json``) and as CSV with ``%.17g`` cells
(``cli-csv``); the library inputs are ``coords`` and ``dist``.

    python3 tools/bench_validation.py --parent-src PARENT/src --out BENCH_validation.json

measures the nervekit under PARENT/src against this checkout's ``src/`` on
every input in ``ROUNDS`` rounds, the trees taking turns to go first, so
that the machine's drift over the rounds falls on both.  Every run of a
tree on an input is a fresh process.  ``--out`` gets every run and, per
input and side, the median and quartiles of each stage's or command's time,
of the total and of the peak RSS.  ``--stage SRC INPUT`` runs one side once
(INPUT is one of ``INPUTS``) and prints its JSON line.
"""
import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
N = 2000
RADIUS, SEED, VR_SCALE, MAX_ORDER = 0.7, 1, 0.12, 8
ROUNDS = 3
INPUTS = ("coords", "dist", "cli-coords", "cli-json", "cli-csv")
CLI = (  # each command reads the space file first
    ("cover", ["--radius", str(RADIUS), "--seed", str(SEED), "--max-order", str(MAX_ORDER),
               "--out", "cover.json", "--report", "report.json"]),
    ("nerve", ["cover.json", "--out", "nerve.json"]),
    ("verify", ["cover.json", "--vr-scale", str(VR_SCALE), "--out", "verify.json"]),
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_chain(src: str, kind: str) -> dict:
    """The CLI commands in turn on one input file, in a temporary directory
    with relative paths, so that the reports' bytes compare."""
    sys.path.insert(0, src)
    from nervekit.metric import FiniteMetricSpace
    from nervekit.samples import sphere_coords

    out = {"commands": {}, "sha256": {}}
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    space = "space.csv" if kind == "cli-csv" else "space.json"
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, space), "w") as fh:
            coords = sphere_coords(N)
            if kind == "cli-coords":
                json.dump({"coords": coords.tolist()}, fh)
            elif kind == "cli-json":
                json.dump({"dist": FiniteMetricSpace.from_coords(coords).dist.tolist()}, fh)
            else:
                fh.writelines(",".join("%.17g" % v for v in row) + "\n"
                              for row in FiniteMetricSpace.from_coords(coords).dist.tolist())
        for name, argv in CLI:
            t0 = time.perf_counter()
            run = subprocess.run([sys.executable, "-m", "nervekit.cli", name, space, *argv],
                                 cwd=tmp, env=env, capture_output=True)
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            out["commands"][name] = {"s": round(time.perf_counter() - t0, 3),
                                     "exit": run.returncode, "peak_rss_mb": round(rss, 1)}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                out["sha256"][name] = _sha(fh.read())
    out["total_s"] = round(sum(c["s"] for c in out["commands"].values()), 3)
    out["peak_rss_mb"] = out["commands"][CLI[-1][0]]["peak_rss_mb"]
    return out


def stage(src: str, kind: str) -> dict:
    if kind.startswith("cli"):
        return cli_chain(src, kind)
    sys.path.insert(0, src)
    import numpy as np

    from nervekit import cli
    from nervekit.cover import build_ball_cover, goodness_report, intersections
    from nervekit.homology import nerve_matches_space
    from nervekit.metric import FiniteMetricSpace
    from nervekit.nerve import nerve_of
    from nervekit.partition import PartitionOfUnity
    from nervekit.samples import sphere_coords

    coords = sphere_coords(N)
    if kind == "dist":  # row by row, so the input costs n^2 floats, not n^2 * 3
        dist = np.array([np.sqrt(((coords - p) ** 2).sum(axis=1)) for p in coords])
        dist = (dist + dist.T) / 2.0
        np.fill_diagonal(dist, 0.0)
    out = {"input_rss_mb": round(_rss_mb(), 1), "stages": {}}

    def timed(name, fn):
        t0 = time.perf_counter()
        value = fn()
        out["stages"][name] = {"s": round(time.perf_counter() - t0, 3),
                               "peak_rss_mb": round(_rss_mb(), 1)}
        return value

    space = timed("validation", lambda: FiniteMetricSpace.from_coords(coords)
                  if kind == "coords" else FiniteMetricSpace(dist))
    cover = timed("build_ball_cover", lambda: build_ball_cover(space, RADIUS, seed=SEED))
    timed("intersections", lambda: intersections(cover, MAX_ORDER))
    goodness = timed("goodness_report", lambda: goodness_report(cover, max_order=MAX_ORDER))
    args = cli.build_parser().parse_args([CLI[0][0], "space.json", *CLI[0][1]])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        timed("report_write", lambda: cli._emit(goodness.to_json(), path, args))
    nerve = timed("nerve_of", lambda: nerve_of(cover))
    timed("PartitionOfUnity", lambda: PartitionOfUnity(cover))
    report = timed("nerve_matches_space",
                   lambda: nerve_matches_space(cover, VR_SCALE, max_dim=3))
    out["total_s"] = round(sum(s["s"] for s in out["stages"].values()), 3)
    out["peak_rss_mb"] = round(_rss_mb(), 1)
    out["sets"] = cover.n_sets
    out["nerve_simplices"] = len(nerve.simplices)
    out["goodness"] = {  # the report as ``cli._emit`` writes it, without its config
        "entries": len(goodness.entries), "pass": goodness.ok,
        "sha256": _sha(json.dumps(goodness.to_json(), sort_keys=True, indent=2).encode())}
    out["betti"] = {"nerve": list(report.nerve_betti.ranks),
                    "space": list(report.space_betti.ranks)}
    return out


def _run(src: str, kind: str) -> dict:
    """One side of one input, in a fresh process."""
    run = subprocess.run([sys.executable, __file__, "--stage", src, kind],
                         check=True, capture_output=True, text=True)
    return json.loads(run.stdout.splitlines()[-1])


def summary(values) -> dict:
    """Median and inclusive quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _summaries(runs: list) -> dict:
    """Over the runs of one side on one input: the median and quartiles of
    each stage's or command's time, of the total and of the peak RSS."""
    parts = "stages" if "stages" in runs[0] else "commands"
    out = {name: summary([r[parts][name]["s"] for r in runs]) for name in runs[0][parts]}
    out["total_s"] = summary([r["total_s"] for r in runs])
    out["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in runs])
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-src", help="src/ directory of the parent checkout")
    p.add_argument("--out", help="JSON file to write")
    p.add_argument("--stage", nargs=2, metavar=("SRC", "INPUT"), help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.stage:
        print(json.dumps(stage(*args.stage)))
        return 0
    if not (args.parent_src and args.out):
        p.error("--parent-src and --out are required")
    sides = {"parent": args.parent_src, "change": os.path.join(HERE, os.pardir, "src")}
    runs = {kind: {side: [] for side in sides} for kind in INPUTS}
    order = list(sides)
    for i in range(ROUNDS):
        for kind in INPUTS:
            for side in order[::-1] if i % 2 else order:
                runs[kind][side].append(_run(sides[side], kind))
    result = {kind: {side: {"summary": _summaries(r), "runs": r} for side, r in by_side.items()}
              for kind, by_side in runs.items()}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
