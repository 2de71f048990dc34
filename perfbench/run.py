"""nervekit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sphere-nerve --seed 1 --seconds 33 --trace 0

Run from the root of a checkout; nervekit is imported from ``src/`` there.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``setup_s``, ``pass_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics of a traced run instead, and the
spans are written to ``.bench_out/``.  See README.md for the workloads and
the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("sphere-nerve", "sphere-goodness", "maps")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once in a fresh process, spawned at this time.time()
    p.add_argument("--setup-only", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def trace_percentiles(latency) -> tuple:
    """p50 and p99 of the per-trace latencies, in ms; zeros without traces."""
    if not latency:
        return 0.0, 0.0
    p50, p99 = np.percentile(np.asarray(latency) * 1000.0, [50, 99])
    return float(p50), float(p99)


def setup_samples(args) -> list:
    """Set-up time of SETUP_SAMPLES fresh processes: from spawning the
    interpreter until the workload is ready for its first timed pass."""
    out = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-only", repr(spawned)],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        out.append(float(proc.stdout.split()[-1]))
    return out


class Run:
    """Passes of one workload, their checks, and their timings."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.latency = []  # per-trace latencies, in seconds

    def tally(self, checked):
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.notes.extend(checked.notes[: 5 - len(self.notes)])

    def fail(self, note: str):
        """One operation that raised instead of producing an output."""
        self.attempted += 1
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)

    def timed_pass(self, inp):
        """Run and check one pass; returns (seconds, output or None)."""
        t0 = time.perf_counter()
        try:
            out = self.workload.run(inp)
        except Exception as exc:  # a pass that raises is a failed operation
            self.fail(f"pass raised {exc!r}")
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        try:
            self.tally(self.workload.check(inp, out))
        except Exception as exc:
            self.fail(f"check raised {exc!r}")
        return elapsed, out

    def finish(self):
        try:
            self.tally(self.workload.final_check())
        except Exception as exc:
            self.fail(f"final check raised {exc!r}")


def pass_inputs(workload, seconds: float):
    """The inputs of each pass until ``seconds`` have gone by; at least one."""
    start = time.perf_counter()
    yield workload.first
    i = 1
    while time.perf_counter() - start < seconds:
        yield workload.inputs(i)
        i += 1


def measure(run: Run, seconds: float) -> list:
    """Untraced passes for ``seconds``; returns the pass times."""
    durations = []
    for inp in pass_inputs(run.workload, seconds):
        elapsed, out = run.timed_pass(inp)
        durations.append(elapsed)
        if out is not None:
            run.latency.extend(out.get("latency", ()))
    run.finish()
    return durations


def measure_traced(run: Run, seconds: float, spans_path: str) -> dict:
    """Each instance runs untraced, then traced; returns per-layer metrics."""
    from tracing import Tracer, instrument, layer_metrics

    tracer = Tracer()
    plain, traced = [], []
    for inp in pass_inputs(run.workload, seconds):
        elapsed, out = run.timed_pass(inp)
        plain.append(elapsed)
        if out is not None:
            run.latency.extend(out.get("latency", ()))
        with instrument(tracer):
            elapsed, out = run.timed_pass(inp)
        traced.append(elapsed)
        if out is not None:
            for name, value in run.workload.layer_counts(out).items():
                tracer.count(name, value)
    run.finish()
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, len(traced))
    p50, p99 = trace_percentiles(run.latency)
    metrics.update({
        "retraction.trace_p50_ms": {"value": p50, "unit": "ms"},
        "retraction.trace_p99_ms": {"value": p99, "unit": "ms"},
        "bench.trace_overhead_s": {
            "value": statistics.median(t - p for t, p in zip(traced, plain)), "unit": "s"},
        "bench.traced_passes": {"value": len(traced), "unit": "count"},
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nervekit", "__init__.py")):
        print(f"nervekit sources not found under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only is not None:
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.seed, workdir)
            print(repr(time.time() - args.setup_only))
            return 0
        # set up in fresh processes before this one imports anything heavy
        setup = [] if args.trace else setup_samples(args)

        from workloads import WORKLOADS

        run = Run(WORKLOADS[args.workload](args.seed, workdir))
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = measure_traced(run, args.seconds, spans)
            print(f"{args.workload} seed {args.seed}: "
                  f"{metrics['bench.traced_passes']['value']} traced passes, "
                  f"spans in {os.path.relpath(spans, ROOT)}")
        else:
            durations = measure(run, args.seconds)
            q1, _, q3 = statistics.quantiles(durations, n=4) if len(durations) > 1 \
                else durations * 3
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "pass_s": {"value": statistics.median(durations), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB"},
            }
            print(f"{args.workload} seed {args.seed}: pass_s median "
                  f"{metrics['pass_s']['value']:.4f} s over {len(durations)} passes "
                  f"(quartiles {q1:.4f}, {q3:.4f}); setup_s median "
                  f"{metrics['setup_s']['value']:.4f} s over {len(setup)} processes; "
                  f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f}")
            if run.latency:
                p50, p99 = trace_percentiles(run.latency)
                print(f"{args.workload}: trace_p50_ms {p50:.4f}, trace_p99_ms {p99:.4f} "
                      f"over {len(run.latency)} traces")
        print(f"{args.workload}: fail_ratio {run.failed}/{run.attempted}"
              + "".join(f"\n  failed: {note}" for note in run.notes))
        print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                          "failed": run.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
