"""Child process of the ``cli-presets`` workload, for probes and traced runs.

    python bench/cli_child.py probe
    python bench/cli_child.py run <command> <csv|json> <config-document-as-json>

``probe`` imports ``leakystage.cli`` in a fresh interpreter and prints one JSON
line: the process start time, the import time, the number of modules loaded
and whether scipy was among them.

``run`` replays the pipeline of ``leakystage.cli.main`` (``parse_config``,
``run`` without the timestamp, ``to_csv`` or ``to_json``) with every public
leakystage function traced.  It writes the document to stdout exactly as the
CLI would, writes the probe record plus the spans as one JSON line to stderr,
and exits with the run's exit code.

Run with ``src`` on ``PYTHONPATH``.  The first lines below run before anything
else so that the import is timed from process start.
"""
import time

_START_NS = time.monotonic_ns()

import sys  # noqa: E402

import leakystage.cli as cli  # noqa: E402

_IMPORTED_NS = time.monotonic_ns()
_MODULES = len(sys.modules)
_SCIPY = int("scipy" in sys.modules)

import json  # noqa: E402

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    record = {
        "start_ns": _START_NS,
        "import_ms": (_IMPORTED_NS - _START_NS) / 1e6,
        "modules": _MODULES,
        "scipy": _SCIPY,
    }
    if argv[:1] == ["probe"]:
        print(json.dumps(record))
        return 0
    command, fmt, document = argv[1], argv[2], json.loads(argv[3])
    tracer = spans.Tracer()
    tracer.op_id = 0
    with tracer.span("child", start_ns=_START_NS):
        tracer.add("import.leakystage_cli", _START_NS, _IMPORTED_NS)
        spans.Patch(tracer).enable()
        config = cli.parse_config(document, command=command)
        envelope = cli.run(config, meta_time=False)
        text = cli.to_json(envelope) if fmt == "json" else cli.to_csv(envelope)
        sys.stdout.write(text)
        sys.stdout.flush()
    record["spans"] = tracer.spans
    sys.stderr.write(json.dumps(record) + "\n")
    return envelope.exit_code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
