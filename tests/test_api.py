"""The public surface: every exported name resolves, and every demo runs."""
import os
import pathlib
import subprocess
import sys

import pytest

import nervekit

SRC = pathlib.Path(nervekit.__file__).resolve().parent.parent
DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_names_resolve_without_duplicates():
    assert len(nervekit.__all__) == len(set(nervekit.__all__))
    for name in nervekit.__all__:
        assert getattr(nervekit, name, None) is not None, name


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
