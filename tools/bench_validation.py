"""Time the north-star chain on a 2,000-point Fibonacci sphere, stage by stage.

Library stages: validation (``FiniteMetricSpace.from_coords``, or the
constructor on a distance matrix), ``build_ball_cover(r=0.7, seed=1)``,
``goodness_report(max_order=8)``, ``nerve_of`` at its default ``max_dim``,
``PartitionOfUnity`` and ``nerve_matches_space(scale=0.12, max_dim=3)``.
Each stage reports its wall time (``time.perf_counter``) and the process's
peak RSS after it (``getrusage``); the goodness report also its entry
count and the sha256 of its sorted, indent-2 JSON.  The CLI chain writes the coordinates as JSON and runs
``cover``, ``nerve`` and ``verify`` on them, each in a fresh process, with
its wall time, exit code, the peak RSS of the commands so far and the
sha256 of every file it writes.  Every (tree, input) pair runs in a fresh
process.

    python3 tools/bench_validation.py --parent-src PARENT/src --out BENCH_goodness.json

measures the nervekit under PARENT/src against this checkout's ``src/`` and
writes both into ``--out``.  ``--stage SRC INPUT`` runs one side (INPUT is
coords, dist or cli) and prints its JSON line.
"""
import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
N = 2000
RADIUS, SEED, VR_SCALE, MAX_ORDER = 0.7, 1, 0.12, 8
CLI = (
    ("cover", ["space.json", "--radius", str(RADIUS), "--seed", str(SEED),
               "--max-order", str(MAX_ORDER), "--out", "cover.json", "--report", "report.json"]),
    ("nerve", ["space.json", "cover.json", "--out", "nerve.json"]),
    ("verify", ["space.json", "cover.json", "--vr-scale", str(VR_SCALE), "--out", "verify.json"]),
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_chain(src: str) -> dict:
    """The CLI commands in turn on the coordinates JSON, in a temporary
    directory with relative paths, so that the reports' bytes compare."""
    sys.path.insert(0, src)
    from nervekit.samples import sphere_coords

    out = {"commands": {}, "sha256": {}}
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "space.json"), "w") as fh:
            json.dump({"coords": sphere_coords(N).tolist()}, fh)
        for name, argv in CLI:
            t0 = time.perf_counter()
            run = subprocess.run([sys.executable, "-m", "nervekit.cli", name, *argv],
                                 cwd=tmp, env=env, capture_output=True)
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            out["commands"][name] = {"s": round(time.perf_counter() - t0, 3),
                                     "exit": run.returncode, "peak_rss_mb": round(rss, 1)}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                out["sha256"][name] = _sha(fh.read())
    out["total_s"] = round(sum(c["s"] for c in out["commands"].values()), 3)
    return out


def stage(src: str, kind: str) -> dict:
    if kind == "cli":
        return cli_chain(src)
    sys.path.insert(0, src)
    import numpy as np

    from nervekit.cover import build_ball_cover, goodness_report
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
    goodness = timed("goodness_report", lambda: goodness_report(cover, max_order=MAX_ORDER))
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
    result = {}
    for kind in ("coords", "dist", "cli"):
        for side, src in sides.items():
            run = subprocess.run([sys.executable, __file__, "--stage", src, kind],
                                 check=True, capture_output=True, text=True)
            result.setdefault(kind, {})[side] = json.loads(run.stdout.splitlines()[-1])
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
