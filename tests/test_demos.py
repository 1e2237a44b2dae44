"""Each demo script runs to completion in a fresh interpreter and prints something.

The demos import the ``envelope`` names from the package top level, which
serves them lazily, so this also covers that path as a user script meets it.
Demo 05's output is deterministic and is pinned byte for byte in
``tests/expected``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leakystage

SRC = str(Path(leakystage.__file__).resolve().parent.parent)
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))
EXPECTED = Path(__file__).resolve().parent / "expected"


def _run(demo: Path) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, str(demo)], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    assert _run(demo).strip()


def test_envelope_demo_prints_its_pinned_output():
    demo = next(path for path in DEMOS if path.name == "05_envelope_verification.py")
    expected = (EXPECTED / "05_envelope_verification.txt").read_text(encoding="utf-8")
    assert _run(demo) == expected
