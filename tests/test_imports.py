"""The production path imports neither scipy nor PyYAML.

scipy serves only the quadrature oracles in ``util`` and PyYAML only
``--config`` files, so importing the package and running a preset must load
neither.  Each check runs in a fresh interpreter, since this test process has
imported both already.
"""
import os
import subprocess
import sys
from pathlib import Path

import leakystage

SRC = str(Path(leakystage.__file__).resolve().parent.parent)


def run_child(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_neither_scipy_nor_yaml():
    child = run_child(
        "import sys, leakystage, leakystage.cli\n"
        "print(sorted(name for name in ('scipy', 'yaml') if name in sys.modules))\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_preset_runs_with_scipy_and_yaml_blocked():
    # a None entry in sys.modules makes any import of that name fail
    child = run_child(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['yaml'] = None\n"
        "from leakystage.cli import main\n"
        "raise SystemExit(main(['peak', '--preset', 'peak-c', '--no-meta-time']))\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("# tool=leakystage")
