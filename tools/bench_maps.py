"""Time the benchmark's ``maps`` pass on its seed-1 inputs, stage by stage.

Stages, as ``perfbench/workloads.py`` runs them: the cylinder build (space,
octahedral cover, ``CylinderSpace``, ``build_contractions``), the 3,000
``full_cylinder_retraction`` traces, ``gh_distance_bound`` on the 256-point
circle pair, the cover lift plus ``homotopy_equivalence_via_nerves``, the
validation of the strained grid's 445 x 445 distance matrix
(``FiniteMetricSpace``, whose triangle check is the cubic part) and the
chart gluing on it (atlas, ``glue_maps``, ``glue_homotopies``).  A run
times each stage (``time.perf_counter``) in each of ``PASSES`` passes and
reads the process's peak RSS after its first pass (``getrusage``).  The
workload's own set-up, which builds the retraction blend grids, runs before
any timing.  Every run is a fresh process.

    python3 tools/bench_maps.py --parent-src PARENT/src --out BENCH_maps.json

measures the nervekit under PARENT/src against this checkout's ``src/`` in
``ROUNDS`` rounds, the trees taking turns to go first, so that the
machine's drift over the rounds falls on both.  ``--out`` gets every run
and, per side and stage, the median and quartiles of all its pass times and
of its peak RSS.  ``--stage SRC`` runs one side once and prints its JSON
line.
"""
import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
SEED, PASSES, ROUNDS = 1, 5, 6


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage(src: str) -> dict:
    sys.path.insert(0, ROOT)
    sys.path.insert(0, src)
    import numpy as np

    import nervekit as nk
    from perfbench.workloads import Maps

    with tempfile.TemporaryDirectory() as workdir:
        workload = Maps(SEED, workdir)
    inp = workload.first

    def cylinder():
        return workload._cylinder(inp["octa"])

    def traces(built):  # keeps what the workload keeps of each trace
        _cover, cyl, cons = built
        return [(tr.membership_ok, tr.ends_in_base, len(tr.stages)) for tr in
                (nk.retraction.full_cylinder_retraction(cyl, cons, p) for p in inp["points"])]

    def gh():
        src_space = nk.metric.FiniteMetricSpace.from_coords(inp["circle"])
        tgt = nk.metric.FiniteMetricSpace.from_coords(inp["circle_target"])
        return nk.metric.gh_distance_bound(src_space, tgt, trials=16, seed=inp["gh_seed"])

    def lift():
        src_space = nk.metric.FiniteMetricSpace.from_coords(inp["circle"])
        r = inp["arc_radius"]
        arcs = nk.cover.Cover(src_space, tuple(src_space.ball(c, r) for c in inp["arc_centers"]),
                              inp["arc_centers"], radius_hint=(r, r, r))
        tgt = nk.metric.FiniteMetricSpace.from_coords(inp["circle_target"])
        cert = nk.metric.check_approximation(
            nk.metric.PointMap(src_space, tgt, inp["relabel"]), inp["epsilon"])
        return nk.stability.homotopy_equivalence_via_nerves(nk.stability.lift_cover(arcs, cert))

    def grid_validation():
        return nk.metric.FiniteMetricSpace(inp["grid"])

    def gluing(grid):
        m, step = inp["grid_m"], inp["step"]
        config = nk.stability.GluingConfig(grid, inp["D"], mu=inp["mu"])
        g = {x: Maps.shift(x, m, step) for x in config.D1}
        f = nk.metric.PointMap(grid, grid, np.arange(grid.n))
        blend = [x for x in range(grid.n) if 0.0 < config.d(x) < config.mu]
        atlas = nk.stability.build_gluing_atlas(grid, grid, blend, inp["deltaR"],
                                                inp["pairs"], inp["pairs"], g, delta=0.3)
        glued, _report = nk.stability.glue_maps(f, g, config, atlas)
        nk.stability.glue_homotopies(lambda x, k: x, lambda x, k: x if k == 0 else g[x],
                                     config, atlas, inp["t_grid"])
        return glued

    times, rss = {}, {}

    def timed(name, fn):
        t0 = time.perf_counter()
        value = fn()
        times.setdefault(name, []).append(time.perf_counter() - t0)
        rss.setdefault(name, round(_rss_mb(), 1))
        return value

    for _ in range(PASSES):
        built = timed("cylinder", cylinder)
        timed("traces", lambda: traces(built))
        bracket = timed("gh_distance_bound", gh)
        timed("lift_equivalence", lift)
        grid = timed("grid_validation", grid_validation)
        timed("gluing", lambda: gluing(grid))
    stages = {name: {"s": round(statistics.median(ts), 3),
                     "s_all": [round(t, 3) for t in ts],
                     "peak_rss_mb": rss[name]} for name, ts in times.items()}
    return {"stages": stages,
            "total_s": round(sum(st["s"] for st in stages.values()), 3),
            "peak_rss_mb": round(_rss_mb(), 1),
            "gh_bracket": list(bracket)}


def summary(values) -> dict:
    """Median and inclusive quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-src", help="src/ directory of the parent checkout")
    p.add_argument("--out", help="JSON file to write")
    p.add_argument("--stage", metavar="SRC", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.stage:
        print(json.dumps(stage(args.stage)))
        return 0
    if not (args.parent_src and args.out):
        p.error("--parent-src and --out are required")
    sides = {"parent": args.parent_src, "change": os.path.join(ROOT, "src")}
    runs = {side: [] for side in sides}
    order = list(sides)
    for i in range(ROUNDS):
        for side in order[::-1] if i % 2 else order:
            src = os.path.abspath(sides[side])
            run = subprocess.run([sys.executable, __file__, "--stage", src],
                                 check=True, capture_output=True, text=True)
            runs[side].append(json.loads(run.stdout.splitlines()[-1]))
    result = {}
    for side, rs in runs.items():
        stages = {name: {"s": summary([t for r in rs for t in r["stages"][name]["s_all"]]),
                         "peak_rss_mb": summary([r["stages"][name]["peak_rss_mb"] for r in rs])}
                  for name in rs[0]["stages"]}
        result[side] = {"stages": stages, "peak_rss_mb": summary([r["peak_rss_mb"] for r in rs]),
                        "runs": rs}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
