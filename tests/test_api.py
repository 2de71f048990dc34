"""The public surface: every exported name resolves, every name the
benchmark's tracer patches exists, and every demo runs."""
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import nervekit

SRC = pathlib.Path(nervekit.__file__).resolve().parent.parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_names_resolve_without_duplicates():
    assert len(nervekit.__all__) == len(set(nervekit.__all__))
    for name in nervekit.__all__:
        assert getattr(nervekit, name, None) is not None, name


def test_traced_names_resolve(monkeypatch):
    """perfbench/tracing.py patches these names from outside the package, so
    a refactor that drops one must fail here, not only in a traced run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for span, mod_name, attr, cls_name, _hook in tracing.TRACED:
        home = importlib.import_module("nervekit." + mod_name)
        if cls_name is None:
            assert callable(getattr(home, attr, None)), span
        else:
            assert attr in vars(getattr(home, cls_name)), span


def test_four_demos_found():
    assert len(DEMOS) == 4


def _run_python(*args):
    """Run the interpreter in a subprocess that imports nervekit from this
    checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_networkx():
    proc = _run_python("-c", "import sys, nervekit, nervekit.cli, nervekit.samples; "
                       "assert 'networkx' not in sys.modules, 'networkx imported'")
    assert proc.returncode == 0, proc.stderr
