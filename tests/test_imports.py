"""The production path imports neither scipy nor PyYAML, and numpy only for arrays.

scipy serves only the quadrature oracles in ``util`` and PyYAML only YAML
``--config`` files, so importing the package and running a preset or a ``.json``
config file must load neither; jsonschema serves only the tests (``cli.schema()`` builds its dict
without it), so neither loads anything beyond the standard-library modules
the package imports itself.  numpy is loaded only by ``simulate`` (through
``envelope``), ``exposure_batch`` and ``unequal_spacing_capacity``; the
package serves the ``envelope`` names lazily, so every other command runs
without it.  Each check runs in a fresh interpreter, since this test process
has imported all three already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leakystage

SRC = str(Path(leakystage.__file__).resolve().parent.parent)

# a None entry in sys.modules makes any import of that name fail
BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"

RATES = ["--beta", "0.6", "--mu", "1.0", "--delta", "1.8", "--rho", "0.5"]

SCALAR_RUNS = [
    [cmd, "--preset", name, "--format", fmt]
    for cmd, name in [("peak", "peak-c"), ("horizon", "horizon-c"), ("phase", "panel-a"),
                      ("phase", "panel-b"), ("phase", "panel-c")]
    for fmt in ("csv", "json")
] + [
    ["exposure", "--q", "0.2", "--q", "0.5", *RATES],
    ["split", "--Q", "1.0", "--n", "3", *RATES],
    ["overhead", "--r", "4.5", "--k", "0.3", *RATES],
]


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


#: The standard-library modules the package imports itself (``locale`` comes
#: with argparse's message lookup during a run).  Importing the package and
#: running a scalar preset may load these and whatever they load, and nothing else.
STDLIB_IMPORTS = ("__future__", "argparse", "copy", "enum", "json", "locale", "math", "os",
                  "pathlib", "sys", "typing")


def test_import_and_preset_run_load_nothing_else():
    child = run_child(
        f"import {', '.join(STDLIB_IMPORTS)}\n"
        "baseline = set(sys.modules)\n"
        "def extra():\n"
        "    return sorted(name for name in set(sys.modules) - baseline\n"
        "                  if name.partition('.')[0] != 'leakystage')\n"
        "import leakystage, leakystage.cli\n"
        "after_import = extra()\n"
        "code = leakystage.cli.main(['peak', '--preset', 'peak-c', '--no-meta-time',"
        " '--out', os.devnull])\n"
        "print(json.dumps([code, after_import, extra()]))\n"
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [0, [], []]


def test_reproducible_run_loads_no_dataclasses_inspect_or_datetime():
    # the records are not dataclasses, and only the timestamp needs datetime
    child = run_child(
        "import os, sys, leakystage, leakystage.cli\n"
        "code = leakystage.cli.main(['peak', '--preset', 'peak-c', '--no-meta-time',"
        " '--out', os.devnull])\n"
        "print(code, sorted(name for name in ('dataclasses', 'inspect', 'datetime')\n"
        "                   if name in sys.modules))\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "0 []"


def test_timestamped_run_writes_generated():
    child = run_child(
        "from leakystage.cli import main\n"
        "raise SystemExit(main(['peak', '--preset', 'peak-c']))\n"
    )
    assert child.returncode == 0, child.stderr
    stamps = [line for line in child.stdout.splitlines() if line.startswith("# generated=")]
    assert len(stamps) == 1
    assert stamps[0].endswith("+00:00")


def test_preset_runs_with_scipy_and_yaml_blocked():
    child = run_child(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['yaml'] = None\n"
        "from leakystage.cli import main\n"
        "raise SystemExit(main(['peak', '--preset', 'peak-c', '--no-meta-time']))\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("# tool=leakystage")


def test_json_config_file_runs_without_yaml(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"params": {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5},
                                "split": {"Q": 1.0, "n": 3}}), encoding="utf-8")
    child = run_child(
        "import sys\n"
        "from leakystage.cli import main\n"
        f"code = main(['split', '--config', {str(path)!r}, '--no-meta-time'])\n"
        "print('yaml' in sys.modules)\n"
        "raise SystemExit(code)\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "False"


def test_numpy_loads_only_with_the_envelope_names():
    child = run_child(
        "import sys, leakystage, leakystage.cli\n"
        "before = 'numpy' in sys.modules\n"
        "from leakystage import simulate_full\n"
        "print(before, 'numpy' in sys.modules, simulate_full.__module__)\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["False", "True", "leakystage.envelope"]


@pytest.mark.parametrize("argv", SCALAR_RUNS, ids=" ".join)
def test_scalar_command_runs_with_numpy_blocked(argv):
    child = run_child(
        BLOCK_NUMPY
        + "from leakystage.cli import main\n"
        + f"raise SystemExit(main({[*argv, '--no-meta-time']!r}))\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip()


def test_simulate_loads_numpy():
    child = run_child(
        "import os, sys\n"
        "from leakystage.cli import main\n"
        "code = main(['simulate', '--preset', 'fig-envelope', '--no-meta-time',"
        " '--out', os.devnull])\n"
        "print('numpy' in sys.modules)\n"
        "raise SystemExit(code)\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "True"


def test_every_public_name_resolves():
    listed = dir(leakystage)
    for name in leakystage.__all__:
        assert getattr(leakystage, name) is not None, name
        assert name in listed, name
    namespace: dict = {}
    exec("from leakystage import *", namespace)
    assert set(leakystage.__all__) <= set(namespace)


#: The public names the package serves lazily from ``envelope``: the ones it
#: does not import when it loads.
ENVELOPE_NAMES = frozenset({
    "EnvelopeCheck", "ImpulseSchedule", "Trajectory", "balance_jump_residuals",
    "dominance_tolerance", "path_exposure", "simulate_envelope", "simulate_full",
    "verify_balance_identity", "verify_envelope_dominance", "verify_log_growth_bound",
})


def test_lazy_names_are_the_envelope_names():
    from leakystage import envelope

    assert leakystage._ENVELOPE_NAMES == ENVELOPE_NAMES
    assert ENVELOPE_NAMES.isdisjoint(vars(leakystage))
    for name in ENVELOPE_NAMES:
        assert getattr(leakystage, name) is getattr(envelope, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        leakystage.no_such_name  # noqa: B018
