"""Span recorder for the traced benchmark run.

A span is one call into a public leakystage function, timed from outside the
package.  ``Patch`` swaps each traced function for a timing wrapper in every
leakystage module namespace that binds it, so a call from one module into
another (``phase`` into ``allocation``, ``cli`` into ``envelope``) opens a
child span and the callee's time is not charged to the caller.  Spans are kept
in memory as ``[span_id, parent_id, op_id, name, start_ns, end_ns, count]``
and written out when the run ends.

Times come from ``time.monotonic_ns`` (CLOCK_MONOTONIC on Linux), which is
shared by all processes, so spans recorded in a child process line up with
the parent's.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

#: Traced functions per module.  ``model`` and ``presets`` are too cheap to
#: time on their own; their cost stays inside the calls that use them.
TARGETS: dict[str, tuple[str, ...]] = {
    "leakystage.cli": ("parse_config", "run", "to_csv", "to_json"),
    "leakystage.allocation": ("overhead_optimal_count", "k_safe"),
    "leakystage.phase": ("sawtooth_frontier", "feasibility_curves"),
    "leakystage.recovery": ("state_peak_plan", "horizon_feasibility", "min_peak_plan"),
    "leakystage.exposure": ("exposure_batch", "exposure_closed_form"),
    "leakystage.envelope": (
        "simulate_full",
        "simulate_envelope",
        "path_exposure",
        "verify_balance_identity",
        "verify_log_growth_bound",
        "verify_envelope_dominance",
    ),
}

#: Work counted at a span boundary, from the call's result.
COUNTS = {
    "cli.run": lambda result: len(result.payload["rows"]),
    "cli.to_csv": lambda result: len(result.encode()),
    "cli.to_json": lambda result: len(result.encode()),
    "exposure.exposure_batch": lambda result: int(result.size),
    "envelope.simulate_full": lambda result: len(result.t),
}

#: Per-layer time metrics: (metric name, span name, unit).  ``ms`` metrics are
#: self time summed per op and averaged over ops; ``us`` metrics are self time
#: per call, for functions that are cheap and called many times.
TIME_METRICS = (
    ("import.interpreter_ms", "import.interpreter", "ms"),
    ("import.leakystage_cli_ms", "import.leakystage_cli", "ms"),
    ("cli.parse_config_ms", "cli.parse_config", "ms"),
    ("cli.run_ms", "cli.run", "ms"),
    ("cli.to_csv_ms", "cli.to_csv", "ms"),
    ("cli.to_json_ms", "cli.to_json", "ms"),
    ("allocation.overhead_optimal_count_ms", "allocation.overhead_optimal_count", "ms"),
    ("allocation.k_safe_ms", "allocation.k_safe", "ms"),
    ("phase.sawtooth_frontier_ms", "phase.sawtooth_frontier", "ms"),
    ("phase.feasibility_curves_ms", "phase.feasibility_curves", "ms"),
    ("recovery.state_peak_plan_ms", "recovery.state_peak_plan", "ms"),
    ("recovery.horizon_feasibility_us", "recovery.horizon_feasibility", "us"),
    ("recovery.min_peak_plan_us", "recovery.min_peak_plan", "us"),
    ("exposure.exposure_batch_ms", "exposure.exposure_batch", "ms"),
    ("exposure.closed_form_us", "exposure.exposure_closed_form", "us"),
    ("envelope.simulate_full_ms", "envelope.simulate_full", "ms"),
    ("envelope.simulate_envelope_ms", "envelope.simulate_envelope", "ms"),
    ("envelope.path_exposure_ms", "envelope.path_exposure", "ms"),
    ("envelope.verify_balance_identity_ms", "envelope.verify_balance_identity", "ms"),
    ("envelope.verify_log_growth_bound_ms", "envelope.verify_log_growth_bound", "ms"),
)


def share_name(metric: str) -> str:
    """Name of the share-of-op-wall-time metric paired with a time metric."""
    return metric.rsplit("_", 1)[0] + "_share"


class Tracer:
    """In-memory span recorder.  Spans are recorded only while an op is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def _open(self, name: str, start_ns: int | None = None) -> list:
        record = [len(self.spans), self._stack[-1] if self._stack else None, self.op_id,
                  name, 0, 0, None]
        self.spans.append(record)
        self._stack.append(record[0])
        record[4] = time.monotonic_ns() if start_ns is None else start_ns
        return record

    def _close(self, record: list) -> None:
        record[5] = time.monotonic_ns()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of one op; calls inside it become its children."""
        self.op_id = op_id
        record = self._open("op")
        try:
            yield record
        finally:
            self._close(record)
            self.op_id = None

    @contextmanager
    def span(self, name: str, start_ns: int | None = None):
        """Open a span; ``start_ns`` backdates it to an earlier instant."""
        record = self._open(name, start_ns)
        try:
            yield record
        finally:
            self._close(record)

    def add(self, name: str, start_ns: int, end_ns: int, count=None) -> None:
        """Record a finished span under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), parent, self.op_id, name, start_ns, end_ns, count])

    def adopt(self, spans: list[list]) -> None:
        """Graft spans recorded by a child process under the innermost open span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for span_id, span_parent, _, name, start, end, count in spans:
            self.spans.append([span_id + offset,
                               parent if span_parent is None else span_parent + offset,
                               self.op_id, name, start, end, count])

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[6] = count(result)
            return result

        return traced


class Patch:
    """Every binding site of the traced functions, switchable to the wrappers.

    The sites are found once; ``enable`` and ``disable`` only reassign them,
    so tracing can be switched per op.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.sites = []  # (module, attribute, original, wrapped)
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            layer = module_name.rsplit(".", 1)[1]
            for fname in names:
                original = getattr(module, fname)
                wrapped = tracer.wrap(f"{layer}.{fname}", original)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").split(".")[0] != "leakystage":
                        continue
                    self.sites.extend((other, attr, original, wrapped)
                                      for attr, value in vars(other).items() if value is original)

    def enable(self) -> None:
        for module, attr, _, wrapped in self.sites:
            setattr(module, attr, wrapped)

    def disable(self) -> None:
        for module, attr, original, _ in self.sites:
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Per-span self time: duration minus the time covered by direct children."""
    own = [end - start for _, _, _, _, start, end, _ in spans]
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], import_probes: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    ``import_probes`` are measurements of fresh interpreters importing
    ``leakystage.cli`` (set-up probes, and every traced child on the
    ``cli-presets`` workload); the ``import.*`` times are their medians.
    Shares are a layer's self time inside ops over the ops' wall time.
    """
    own = self_times(spans)
    ops = [s for s in spans if s[3] == "op"]
    n_ops = max(1, len(ops))
    op_wall = sum(s[5] - s[4] for s in ops) or 1
    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    for span, self_ns in zip(spans, own):
        name = span[3]
        total[name] = total.get(name, 0) + self_ns
        calls[name] = calls.get(name, 0) + 1
        if span[6] is not None:
            counted[name] = counted.get(name, 0) + span[6]

    metrics: dict[str, float] = {}
    for metric, span_name, unit in TIME_METRICS:
        ns = total.get(span_name, 0)
        if unit == "us":
            metrics[metric] = ns / 1e3 / calls[span_name] if span_name in calls else 0.0
        else:
            metrics[metric] = ns / 1e6 / n_ops
        metrics[share_name(metric)] = ns / op_wall
    for metric, key in (("import.interpreter_ms", "interpreter_ms"),
                        ("import.leakystage_cli_ms", "import_ms")):
        if import_probes:
            metrics[metric] = statistics.median(p[key] for p in import_probes)
    metrics["import.modules_loaded"] = (
        statistics.median(p["modules"] for p in import_probes) if import_probes else 0.0)
    metrics["import.scipy_loaded"] = float(max((p["scipy"] for p in import_probes), default=0))

    def rate(name: str) -> float:
        ns = total.get(name, 0)
        return counted.get(name, 0) / (ns / 1e9) if ns else 0.0

    emitted = counted.get("cli.to_csv", 0) + counted.get("cli.to_json", 0)
    emit_ns = total.get("cli.to_csv", 0) + total.get("cli.to_json", 0)
    metrics["cli.rows"] = counted.get("cli.run", 0) / max(1, calls.get("cli.run", 0))
    metrics["cli.bytes"] = emitted / n_ops
    metrics["cli.emit_mb_per_s"] = emitted / 1e6 / (emit_ns / 1e9) if emit_ns else 0.0
    metrics["allocation.calls"] = (
        calls.get("allocation.overhead_optimal_count", 0) + calls.get("allocation.k_safe", 0)
    ) / n_ops
    metrics["exposure.batch_elems_per_s"] = rate("exposure.exposure_batch")
    metrics["envelope.samples"] = counted.get("envelope.simulate_full", 0) / n_ops
    metrics["envelope.full_samples_per_s"] = rate("envelope.simulate_full")
    return metrics
