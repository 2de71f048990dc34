"""The command line of run.py against BENCHMARK.json's metric lists."""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "sphere-nerve",
         "--seed", "4", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_untraced_run_reports_every_end_to_end_metric():
    assert _result(_run(ROOT, "--trace", "0")) == _declared("end_to_end")


def test_traced_run_reports_every_per_layer_metric():
    assert _result(_run(ROOT, "--trace", "1")) == _declared("per_layer")


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
