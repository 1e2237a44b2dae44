"""Benchmark harness for leakystage.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src``
and the oracles from ``tests/util.py``, nothing is installed.  A run sets up
five times (fresh-interpreter import probe, workload construction, warm-up)
and reports the median as ``setup_s``, then runs ops in a closed loop for
``--seconds`` and checks every output.  Op times are rescaled to a reference
machine speed measured between ops (see ``Speedometer``), and set-up times to
one measured before each set-up (see ``Context.time_reference_import``); the
raw times are in the ``info`` record.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` every op runs
twice, untraced and traced, in alternating order; the metrics are the
per-layer metrics, including ``trace.overhead_ratio`` (traced over untraced
time of the same ops), and the spans are written to ``.bench_out/``.  The
lines before the last one are a human-readable report and an ``info:`` JSON
record with the seed, input sizes, sample counts and the environment.
"""
from __future__ import annotations

import argparse
import bisect
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MAX_REPORTED_FAILURES = 5
#: Op times are rescaled to a machine on which ``reference_work`` takes this long.
REFERENCE_MS = 3.0
REFERENCE_PERIOD_S = 0.25
#: Set-up times are rescaled to a machine on which a fresh interpreter imports
#: numpy in this long.
REFERENCE_IMPORT_S = 0.2


class Context:
    """What the workloads share: the package, the test oracles, child settings."""

    def __init__(self, root: Path) -> None:
        self.root = root
        sys.path.insert(0, str(root / "src"))
        self.lib = SimpleNamespace(**{
            name: importlib.import_module(f"leakystage.{name}")
            for name in ("cli", "allocation", "exposure", "recovery", "phase", "envelope",
                         "model", "presets")
        })
        spec = importlib.util.spec_from_file_location("leakystage_bench_util",
                                                      root / "tests" / "util.py")
        self.util = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.util)
        self.child_env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.import_probes: list[dict] = []

    def probe_import(self) -> None:
        """Time a fresh interpreter importing ``leakystage.cli``."""
        spawn_ns = time.monotonic_ns()
        done = subprocess.run([sys.executable, str(HERE / "cli_child.py"), "probe"],
                              capture_output=True, env=self.child_env, cwd=self.root, check=True)
        record = json.loads(done.stdout.decode().splitlines()[-1])
        record["interpreter_ms"] = (record["start_ns"] - spawn_ns) / 1e6
        self.import_probes.append(record)

    def time_reference_import(self) -> float:
        """Wall time of a fresh interpreter importing numpy, a machine-speed reference.

        Set-up is mostly the import probe, whose time follows the host's load
        from one run to the next, and ``reference_work`` does not track that.
        A fresh ``import numpy`` does much of the same kind of work (process
        start, reading modules, loading extensions) and none of it is code of
        this repository.  Over ten seeded 20 s runs per workload on a 2-CPU
        VM, dividing each set-up by the reference timed just before it cut
        the spread (IQR over median) of ``setup_s`` from 0.11 to 0.07 on
        ``cli-presets``, 0.12 to 0.05 on ``planner-sweep``, 0.11 to 0.05 on
        ``envelope-verify`` and 0.16 to 0.05 on ``bulk-emit``.
        """
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                       cwd=self.root, check=True)
        return time.perf_counter() - start


class Counter:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def execute(self, op, tracer=None, op_id: int = 0) -> float:
        """Run one op, check it, and return the wall time of the timed call."""
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.op(op_id):
                    out = op.run()
        except Exception:  # an op failure is data; the loop keeps running
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                error = op.check(out)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is not None:
            self.failed += 1
            if len(self.messages) < MAX_REPORTED_FAILURES:
                self.messages.append(error)
        return elapsed


def reference_work() -> None:
    """Fixed pure-Python work (float arithmetic, list growth, a sort): about 3 ms."""
    pairs = []
    x = 0.5
    for i in range(6000):
        x = x * 1.0000001 + math.sqrt(i + x) * 1e-9
        pairs.append((i, x))
    pairs.sort(key=lambda pair: -pair[1])


class Speedometer:
    """Tracks the machine's speed by timing ``reference_work`` between ops.

    On a shared 2-CPU cloud VM the speed of identical work drifts by up to
    +-25% over tens of seconds as other tenants load the host.  Each op time
    is rescaled by ``REFERENCE_MS`` over the median of the eight reference
    timings nearest to it.  Over ten seeded 25 s runs per workload on that VM
    it cut the spread (IQR over median) of ``op_ms_p50`` from 0.12 to 0.09 on
    ``cli-presets``, 0.13 to 0.05 on ``planner-sweep``, 0.24 to 0.09 on
    ``envelope-verify`` and 0.36 to 0.08 on ``bulk-emit``.  Set-up times are
    rescaled by another reference: on the same runs, dividing them by the
    run's median ``reference_work`` timing widened the ``setup_s`` spread on
    every workload (0.15 to 0.22, 0.13 to 0.16, 0.16 to 0.23 and 0.21 to 0.36).
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def tick(self) -> None:
        """Time the reference if the last timing is older than the period."""
        start = time.perf_counter()
        if self.starts and start - self.starts[-1] < REFERENCE_PERIOD_S:
            return
        reference_work()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)

    def rescale(self, start: float, seconds: float) -> float:
        k = bisect.bisect(self.starts, start)
        local = statistics.median(self.seconds[max(0, k - 4):k + 4])
        return seconds * (REFERENCE_MS / 1e3) / local


def closed_loop(workload, counter: Counter, speed: Speedometer, seconds: float, sizes: list,
                patch=None) -> tuple[list, list]:
    """Run ops 0, 1, 2, ... until ``seconds`` of wall time have passed.

    Returns the (start, wall seconds) of every untraced op and of every
    traced one.  With a ``patch`` each op runs twice, untraced and traced,
    in alternating order so that neither pass gains from warm caches.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        speed.tick()
        for tracing in (False,) if patch is None else ((False, True), (True, False))[i % 2]:
            tracer = patch.tracer if tracing else None
            if tracing:
                patch.enable()
            workload.tracer = tracer
            try:
                op = workload.make(i)
                start = time.perf_counter()
                (traced if tracing else plain).append((start, counter.execute(op, tracer, i)))
            finally:
                workload.tracer = None
                if tracing:
                    patch.disable()
            sizes.append(op.size)
        i += 1
        if time.perf_counter() >= deadline:
            return plain, traced


def timing_summary(durations: list[float], tail_percentile: float) -> dict:
    """Median, tail percentile (linear interpolation) and rate of the op times."""
    ordered = sorted(durations)
    n = len(ordered)
    position = (n - 1) * tail_percentile / 100.0
    low = int(position)
    high = min(low + 1, n - 1)
    tail = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": tail_percentile,
        "samples_beyond_tail": sum(1 for d in ordered if d > tail),
        "ops_per_s": n / sum(ordered),
    }


def size_summary(sizes: list[dict]) -> dict:
    keys = sorted({key for size in sizes for key in size})
    summary = {}
    for key in keys:
        values = sorted(size[key] for size in sizes if key in size)
        summary[key] = {"min": values[0], "median": statistics.median(values),
                        "max": values[-1]}
    return summary


def environment() -> dict:
    """Interpreter and library versions, read without importing the libraries."""
    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "machine": platform.machine()}


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
            root: Path = ROOT, out_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result line, info record)."""
    import workloads
    import spans

    started = time.perf_counter()
    ctx = Context(root)
    parent_import_s = time.perf_counter() - started
    counter = Counter()
    speed = Speedometer()

    setups, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(ctx.time_reference_import())
        start = time.perf_counter()
        ctx.probe_import()
        workload = workloads.WORKLOADS[name](ctx, seed, scale)
        for op in workload.warm_up_ops():
            counter.execute(op)
        setups.append(time.perf_counter() - start)

    sizes: list[dict] = []
    tracer = spans.Tracer() if trace else None
    untraced, traced = closed_loop(workload, counter, speed, seconds, sizes,
                                   spans.Patch(tracer) if trace else None)
    speed.tick()

    def rescaled(timed):
        return [speed.rescale(start, elapsed) for start, elapsed in timed]

    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "scale": scale, "environment": environment(),
            "setup_s_samples": setups, "setup_reference_s_samples": references,
            "parent_import_s": parent_import_s,
            "timing": timing_summary(rescaled(untraced), workload.tail_percentile),
            "raw_timing": timing_summary([t for _, t in untraced], workload.tail_percentile)}

    if trace:
        metrics = spans.layer_metrics(tracer.spans, ctx.import_probes)
        metrics["trace.overhead_ratio"] = sum(rescaled(traced)) / sum(rescaled(untraced))
        info["traced_timing"] = timing_summary(rescaled(traced), workload.tail_percentile)
        if out_dir is not None:
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"{name}.spans.jsonl", "w", encoding="utf-8") as handle:
                handle.write(json.dumps(["span_id", "parent_id", "op_id", "name", "start_ns",
                                         "end_ns", "count"]) + "\n")
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
            info["spans_file"] = str((out_dir / f"{name}.spans.jsonl").relative_to(root))
        units = {m["name"]: m["unit"] for m in _declared("per_layer", root)}
    else:
        timing = info["timing"]
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli-presets"
                                   else resource.RUSAGE_SELF)
        metrics = {
            "op_ms_p50": timing["p50_ms"],
            "op_ms_tail": timing["tail_ms"],
            "ops_per_s": timing["ops_per_s"],
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": statistics.median(
                setup * REFERENCE_IMPORT_S / reference
                for setup, reference in zip(setups, references)),
        }
        units = {m["name"]: m["unit"] for m in _declared("end_to_end", root)}

    info["sizes"] = size_summary(sizes)
    info["reference_ms"] = {"median": statistics.median(speed.seconds) * 1e3,
                            "min": min(speed.seconds) * 1e3, "max": max(speed.seconds) * 1e3,
                            "samples": len(speed.seconds)}
    info["import_probes"] = len(ctx.import_probes)
    info["error_rate"] = counter.failed / counter.attempted
    info["failures"] = counter.messages
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, info


def _declared(section: str, root: Path) -> list[dict]:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))[section]


def report(result: dict, info: dict) -> None:
    timing = info["timing"]
    print(f"workload {info['workload']}  seed {info['seed']}  {info['seconds']} s  "
          f"trace {info['trace']}  ({info['environment']})")
    print(f"  {timing['samples']} timed ops; tail = p{timing['tail_percentile']:g} with "
          f"{timing['samples_beyond_tail']} beyond it; "
          f"error_rate {info['error_rate']:.4g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for key, metric in result["metrics"].items():
        print(f"  {key:44s} {metric['value']:14.6g} {metric['unit']}")
    for message in info["failures"]:
        print("  FAILED: " + message.strip().replace("\n", "\n          "))


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process and print a combined result."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    missing = [path for path in ("src/leakystage/cli.py", "tests/util.py", "BENCHMARK.json")
               if not (ROOT / path).is_file()]
    if missing:
        print(f"error: run from a leakystage source checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                           out_dir=ROOT / ".bench_out")
    report(result, info)
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
