"""The four benchmark workloads.

Every workload is a closed loop with one client and one operation at a time.
Op ``i`` is built by ``make(i)`` from ``(seed, i)`` alone, so a seed gives the
same inputs on every run, and input generation stays outside the timed call.
The seed drives the content of each input (rates, schedules, loads,
overheads).  The size of the ``j``-th op of kind ``k`` (of ``K``) is the point
``k / K + j * golden ratio mod 1`` of a log-scaled range, the same for every
seed: any number of ops covers the range evenly, the kinds interleave so the
pooled op times have no gaps that would make the median jump, and every seed
measures the same mix of sizes.  ``Op.run`` is the timed call; ``Op.check`` verifies its
output afterwards and returns a failure message or ``None``.

See README.md in this directory for why each workload exists and which layer
metric should move which end-to-end metric.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
_HERE = Path(__file__).resolve().parent
#: SHA-256 digests of every preset's ``--no-meta-time`` CSV and JSON output.
GOLDEN_PATH = _HERE / "golden.json"


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    size: dict[str, float] = field(default_factory=dict)


def log_span(lo: float, hi: float, u: float) -> float:
    """Point ``u`` in [0, 1) of the log-uniform range [lo, hi)."""
    return lo * (hi / lo) ** u


def _params_doc(params) -> dict[str, float]:
    return {"beta": params.beta, "mu": params.mu, "delta": params.delta, "rho": params.rho}


class Workload:
    """Shared sequencing: op kinds in rotation, sizes from the sequence."""

    kinds: tuple[str, ...] = ()
    #: Percentile reported as ``op_ms_tail``: the highest that leaves at least
    #: 10 samples beyond it at the op count of a 20 s run on 2 CPUs.  It is
    #: fixed per workload so that runs with different op counts compare.
    tail_percentile = 50.0

    def __init__(self, ctx, seed: int, scale: float = 1.0) -> None:
        self.ctx = ctx
        self.seed = seed
        self.scale = scale
        self.tracer = None

    def make(self, i: int, u: float | None = None) -> Op:
        slot = i % len(self.kinds)
        if u is None:
            u = (slot / len(self.kinds) + (i // len(self.kinds)) * _GOLDEN_RATIO) % 1.0
        rng = np.random.default_rng([self.seed, i])
        return getattr(self, "_" + self.kinds[slot])(u, rng)

    def warm_up_ops(self) -> list[Op]:
        """One op of each kind at the smallest size: first-call costs, untimed."""
        return [self.make(i, u=0.0) for i in range(len(self.kinds))]


# ---------------------------------------------------------------------------
# cli-presets


class CliPresets(Workload):
    """Fresh ``python -m leakystage.cli`` processes, one per op.

    This is how the tool is used: interpreter start and package import are
    about 90% of each op, so a cold-start change shows here and nowhere else.
    The six presets run in CSV and JSON with ``--no-meta-time`` and are
    checked against stored SHA-256 digests; seeded flag-driven ``exposure``,
    ``split``, ``overhead`` (small r) and ``horizon`` runs are checked against
    the same pipeline run in this process.
    """

    tail_percentile = 50.0  # about 18 processes fit in a run

    def __init__(self, ctx, seed: int, scale: float = 1.0) -> None:
        super().__init__(ctx, seed, scale)
        self.golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        self.presets = [(name, fmt) for name in sorted(self.golden) for fmt in ("csv", "json")]
        self.flag_commands = ("exposure", "split", "overhead", "horizon")

    def make(self, i: int, u: float | None = None) -> Op:
        # Presets and flag runs alternate 3:1; both cycles start at a seeded point.
        # Every op costs about one interpreter start, so sizes play no part here.
        if i % 4 != 3:
            name, fmt = self.presets[(self.seed + i - i // 4) % len(self.presets)]
            entry = self.golden[name]
            document = self.ctx.lib.presets.preset(name)
            argv = [entry["command"], "--preset", name]
            return self._cli_op(entry["command"], fmt, argv, document, entry[fmt], 0)
        rng = np.random.default_rng([self.seed, i])
        command = self.flag_commands[(self.seed + i // 4) % len(self.flag_commands)]
        fmt = ("csv", "json")[int(rng.integers(2))]
        params = self.ctx.util.random_params(rng)
        dc = self.ctx.lib.model.derive(params).delta_c
        if command == "exposure":
            block = {"q": [float(q) for q in rng.uniform(0.0, 3.0 * dc, int(rng.integers(3, 7)))]}
        elif command == "split":
            block = {"Q": float(rng.uniform(0.1, 3.0)), "n": int(rng.integers(1, 7))}
        elif command == "overhead":
            block = {"r": float(rng.uniform(1.5, 50.0)), "k": float(rng.uniform(0.0, 2.0))}
        else:  # horizon; about a quarter of the loads exceed 1 + h (exit code 2)
            h = float(rng.uniform(0.2, 4.0))
            block = {"r": float(rng.uniform(0.5, 1.33 * (1.0 + h))), "h": h}
        document = {"params": _params_doc(params), command: block}
        argv = [command]
        for name, value in _params_doc(params).items():
            argv += [f"--{name}", repr(value)]
        for name, value in block.items():
            for item in value if isinstance(value, list) else [value]:
                argv += [f"--{name}", repr(item)]
        cli = self.ctx.lib.cli
        envelope = cli.run(cli.parse_config(document, command=command), meta_time=False)
        text = cli.to_json(envelope) if fmt == "json" else cli.to_csv(envelope)
        digest = hashlib.sha256(text.encode()).hexdigest()
        return self._cli_op(command, fmt, argv, document, digest, envelope.exit_code)

    def _cli_op(self, command, fmt, argv, document, digest, exit_code) -> Op:
        argv = argv + ["--no-meta-time", "--format", fmt]
        tracer = self.tracer
        ctx = self.ctx

        def run():
            if tracer is None:
                return subprocess.run([sys.executable, "-m", "leakystage.cli", *argv],
                                      capture_output=True, env=ctx.child_env, cwd=ctx.root)
            spawn_ns = time.monotonic_ns()
            done = subprocess.run(
                [sys.executable, str(_HERE / "cli_child.py"), "run", command, fmt,
                 json.dumps(document)],
                capture_output=True, env=ctx.child_env, cwd=ctx.root)
            record = json.loads(done.stderr.decode().splitlines()[-1])
            tracer.add("import.interpreter", spawn_ns, record["start_ns"])
            tracer.adopt(record.pop("spans"))
            record["interpreter_ms"] = (record["start_ns"] - spawn_ns) / 1e6
            ctx.import_probes.append(record)
            return done

        size: dict[str, float] = {}

        def check(done) -> str | None:
            size["bytes"] = len(done.stdout)
            if done.returncode != exit_code:
                return (f"{' '.join(argv)}: exit code {done.returncode}, expected {exit_code}: "
                        f"{done.stderr.decode()[-300:]}")
            if hashlib.sha256(done.stdout).hexdigest() != digest:
                return f"{' '.join(argv)}: output digest differs from the expected bytes"
            return None

        return Op(run, check, size)

    def warm_up_ops(self) -> list[Op]:
        # The set-up probe already started a fresh interpreter; building one op
        # of each kind warms the in-process pipeline that computes expectations.
        for i in range(4):
            self.make(i)
        return []


# ---------------------------------------------------------------------------
# planner-sweep


class PlannerSweep(Workload):
    """Warm library queries that answer the paper's planning questions.

    The O(r) and O(m) kernels in ``allocation``, ``recovery``, ``phase`` and
    ``exposure`` do almost all the work; large-r overhead queries and wide
    sawtooth grids form the tail.  Import does no work per op.
    """

    kinds = ("overhead", "frontier", "horizon", "peak", "exposure")
    tail_percentile = 98.0

    def _overhead(self, u, rng) -> Op:
        allocation = self.ctx.lib.allocation
        r = max(1.5, log_span(1e2, 1e5, u) * self.scale)
        k = float(rng.uniform(0.0, 3.0))
        against_oracle = rng.random() < 0.25
        enumerate_overhead = self.ctx.util.enumerate_overhead

        def run():
            return allocation.overhead_optimal_count(r, k), allocation.k_safe(r)

        def check(out) -> str | None:
            result, k_safe = out
            if result.is_fully_safe != (k <= k_safe):
                return f"overhead r={r!r} k={k!r}: full safety {result.is_fully_safe} " \
                       f"contradicts k_safe={k_safe!r}"
            if against_oracle:
                best, argmin, _ = enumerate_overhead(r, k)
                if result.n_star != argmin or abs(result.cost - best) > 1e-9 * max(1.0, best):
                    return f"overhead r={r!r} k={k!r}: n_star {result.n_star} cost " \
                           f"{result.cost!r}, enumeration gives {argmin} cost {best!r}"
            return None

        return Op(run, check, {"r": r})

    def _frontier(self, u, rng) -> Op:
        phase = self.ctx.lib.phase
        r_max = max(3.0, log_span(20.0, 400.0, u) * self.scale)
        count = max(4, int(log_span(40.0, 160.0, u) * self.scale))
        grid = phase.PhaseGrid(r_range=(1.02, r_max, count),
                               k_range=(0.0, float(rng.uniform(0.5, 2.0)), 3))
        # Panel a on the same op: B_n(h) curves on an h grid four times as dense.
        n_curves = tuple(sorted({int(n) for n in rng.integers(2, 40, 5)}))
        curves = phase.PhaseGrid(h_range=(0.0, float(rng.uniform(2.0, 8.0)), 4 * count),
                                 n_curves=n_curves)
        picks = rng.integers(0, count, 3)
        enumerate_overhead = self.ctx.util.enumerate_overhead

        def run():
            return phase.sawtooth_frontier(grid), phase.feasibility_curves(curves)

        def check(out) -> str | None:
            (ksafe_rows, nstar_rows), (feasibility, frontier) = out
            if len(feasibility) != 4 * count * len(n_curves) or len(frontier) != 4 * count:
                return f"feasibility curves: {len(feasibility)}/{len(frontier)} rows for " \
                       f"{4 * count} h samples and {len(n_curves)} curves"
            for h, n, b in feasibility:
                expected = 1.0 - (n - 1) * math.expm1(-h / (n - 1))
                if abs(b - expected) > 1e-12 * expected:
                    return f"feasibility curve n={n} h={h!r}: B_n {b!r}, expected {expected!r}"
            if any(abs(edge - 1.0 - h) > 1e-12 * edge for h, edge in frontier):
                return "feasibility frontier differs from 1 + h"
            if len(ksafe_rows) != count or len(nstar_rows) != 3 * count:
                return f"frontier: {len(ksafe_rows)}/{len(nstar_rows)} rows for {count} r samples"
            for p in picks:
                r, k_safe = ksafe_rows[p]
                n_safe = max(1, math.ceil(r - 1e-12 * r))
                # Full safety must win just below k_safe and lose just above it.  Just
                # above an integer r, k_safe is so small that the enumeration's 1e-12
                # tie tolerance swamps a 1e-3 step, so those rows are not straddled.
                if k_safe >= 1e-6:
                    below = enumerate_overhead(r, k_safe * (1.0 - 1e-3))[1]
                    above = enumerate_overhead(r, k_safe * (1.0 + 1e-3))[1]
                    if below != n_safe or above >= n_safe:
                        return f"frontier r={r!r}: k_safe={k_safe!r} does not separate " \
                               "the regimes"
                for r_k, k, n_star in nstar_rows[3 * p: 3 * p + 3]:
                    if n_star != enumerate_overhead(r_k, k)[1]:
                        return f"frontier r={r_k!r} k={k!r}: n_star {n_star} differs " \
                               "from the enumeration"
            return None

        return Op(run, check, {"r": r_max, "r_samples": count, "h_samples": 4 * count})

    def _horizon(self, u, rng) -> Op:
        recovery = self.ctx.lib.recovery
        side = max(3, int(log_span(12.0, 48.0, u) * self.scale))
        h_max = float(rng.uniform(0.5, 6.0))
        rs = np.linspace(0.5, 1.2 * (1.0 + h_max), side) * rng.uniform(0.999, 1.001, side)
        points = [(float(r), float(h)) for r in rs for h in np.linspace(0.0, h_max, side)]
        regime = recovery.HorizonRegime

        def capacity(n: int, h: float) -> float:
            return 1.0 if n == 1 else 1.0 - (n - 1) * math.expm1(-h / (n - 1))

        def run():
            return [recovery.horizon_feasibility(r, h) for r, h in points]

        def check(verdicts) -> str | None:
            for (r, h), verdict in zip(points, verdicts):
                if verdict.regime is regime.SAFE_WITH_N:
                    n = verdict.n
                    ok = n >= 2 and capacity(n, h) >= r * (1 - 1e-12) \
                        and capacity(n - 1, h) < r * (1 + 1e-12)
                elif verdict.regime is regime.SAFE_WITH_ONE_RELEASE:
                    ok = r <= 1.0 + 1e-9
                elif verdict.regime is regime.INFEASIBLE:
                    ok = r > 1.0 + h - 1e-9
                else:
                    ok = abs(r - 1.0 - h) <= 1e-9
                if not ok:
                    return f"horizon r={r!r} h={h!r}: verdict {verdict.label} is wrong"
            return None

        return Op(run, check, {"grid_points": len(points)})

    def _peak(self, u, rng) -> Op:
        recovery = self.ctx.lib.recovery
        m = max(2, int(log_span(3e3, 1e5, u) * self.scale))
        lam = float(rng.uniform(0.05, 0.95))
        a = float(rng.uniform(0.0, 1.0))
        Q = float(rng.uniform(0.3, 1.5)) * m * (1.0 - lam)
        small = [recovery.RecoveryConfig(lam=lam, n=n, Q=float(rng.uniform(0.2, 3.0)))
                 for n in range(2, 10)]

        def run():
            return (recovery.state_peak_plan(m, a, Q, lam),
                    [recovery.min_peak_plan(c) for c in small])

        def check(out) -> str | None:
            plan, plans = out
            expected = max(a, (a + Q) / (1.0 + (m - 1) * (1.0 - lam)))
            if abs(plan.peak - expected) > 1e-12 * expected or \
                    max(plan.post_levels) > plan.peak * (1 + 1e-9) + 1e-12 or \
                    abs(math.fsum(plan.releases) - Q) > 1e-9 * max(1.0, Q):
                return f"state_peak_plan m={m} a={a!r} Q={Q!r} lam={lam!r}: peak {plan.peak!r}"
            for c, p in zip(small, plans):
                expected = c.Q / (1.0 + (c.n - 1) * (1.0 - c.lam))
                if abs(p.peak - expected) > 1e-12 * expected or \
                        max(abs(level - p.peak) for level in p.post_levels) > 1e-9 * p.peak:
                    return f"min_peak_plan n={c.n} Q={c.Q!r}: peak {p.peak!r}, " \
                           f"expected {expected!r}"
            return None

        return Op(run, check, {"m": m})

    def _exposure(self, u, rng) -> Op:
        exposure = self.ctx.lib.exposure
        params = self.ctx.util.random_params(rng)
        dc = self.ctx.lib.model.derive(params).delta_c
        size = max(16, int(log_span(2e4, 1e6, u) * self.scale))
        Q = float(rng.uniform(2.2, 6.0)) * dc
        q1 = np.linspace(0.0, Q, size)
        q2 = np.clip(Q - q1, 0.0, None)
        probes = np.sort(rng.uniform(0.0, 3.0 * dc, 64))

        def run():
            total = exposure.exposure_batch(q1, params) + exposure.exposure_batch(q2, params)
            best = int(np.argmin(total))
            curve = [exposure.exposure_closed_form(float(q), params).value for q in probes]
            return float(total[best]), float(q1[best]), curve

        def check(out) -> str | None:
            grid_min, arg, curve = out
            optimum = 2.0 * exposure.exposure_closed_form(Q / 2.0, params).value
            spacing = Q / (size - 1)
            if grid_min < optimum - 1e-12 * optimum or abs(arg - Q / 2.0) > spacing + 1e-12:
                return f"exposure split Q={Q!r}: grid minimum {grid_min!r} at {arg!r}, " \
                       f"equal split gives {optimum!r}"
            if any(b < a for a, b in zip(curve, curve[1:])):
                return f"exposure_closed_form is not nondecreasing on {probes.tolist()!r}"
            return None

        return Op(run, check, {"batch_elems": 2 * size})


# ---------------------------------------------------------------------------
# envelope-verify


class EnvelopeVerify(Workload):
    """Seeded random impulse schedules through the envelope verification.

    The per-node Python RK4 loop and the ``path_exposure`` loop in
    ``envelope`` dominate; no other module does real work here.
    """

    kinds = ("schedule",)
    tail_percentile = 90.0

    def _schedule(self, u, rng) -> Op:
        envelope = self.ctx.lib.envelope
        params = self.ctx.util.random_params(rng)
        schedule = self.ctx.util.random_schedule(rng)
        S0 = float(rng.uniform(1e-3, 0.5))
        T = schedule.events[-1][0] + 2.0
        # The step is set by the sample count, so the work per op follows the
        # size sequence rather than the random horizon: about 1e-3 ... 1e-4.
        step = T / max(20, int(log_span(4e3, 4e4, u) * self.scale))

        def run():
            full = envelope.simulate_full(schedule, params, S0, 0.0, T, step)
            balance = envelope.verify_balance_identity(full, params)
            growth, bound = envelope.verify_log_growth_bound(full, params)
            dominance = envelope.verify_envelope_dominance(schedule, params, S0, T, step)
            return full.clamp_count, balance, growth, bound, dominance

        def check(out) -> str | None:
            clamps, _, growth, bound, result = out
            tolerance = envelope.dominance_tolerance(T, step)
            if result.max_violation > tolerance:
                return f"dominance defect {result.max_violation!r} > {tolerance!r} (step {step!r})"
            for g, b in ((growth, bound), (result.log_growth, result.log_bound)):
                if g > b + 1e-9:
                    return f"log growth {g!r} exceeds its bound {b!r} (step {step!r})"
            if clamps:
                return f"{clamps} clamped reservoir excursions at step {step!r}"
            return None

        return Op(run, check, {"step": step, "T": T, "samples": round(T / step)})


# ---------------------------------------------------------------------------
# bulk-emit


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _csv_cell_matches(text: str, value: Any) -> bool:
    if value is None:
        return text == ""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, int):
        return text == str(value)
    if isinstance(value, float):
        return _bits(float(text)) == _bits(value)
    return text == str(value)


def _json_cell_matches(parsed: Any, value: Any) -> bool:
    if isinstance(value, float):
        if not math.isfinite(value):
            return parsed == str(value)
        return isinstance(parsed, float) and _bits(parsed) == _bits(value)
    return type(parsed) is type(value) and parsed == value


def round_trip_error(payload: dict, csv_text: str, json_text: str) -> str | None:
    """First difference between a payload and its CSV/JSON renderings, if any."""
    lines = [line for line in csv_text.splitlines() if not line.startswith("#")]
    if lines[0] != ",".join(payload["columns"]):
        return "CSV header differs from the payload columns"
    if len(lines) - 1 != len(payload["rows"]):
        return f"CSV has {len(lines) - 1} rows, payload {len(payload['rows'])}"
    for index, (line, row) in enumerate(zip(lines[1:], payload["rows"])):
        cells = line.split(",")
        if len(cells) != len(row) or not all(map(_csv_cell_matches, cells, row)):
            return f"CSV row {index} does not round-trip: {line!r}"
    parsed = json.loads(json_text)["payload"]
    if parsed["columns"] != payload["columns"] or len(parsed["rows"]) != len(payload["rows"]):
        return "JSON payload shape differs from the payload"
    for index, (got, row) in enumerate(zip(parsed["rows"], payload["rows"])):
        if len(got) != len(row) or not all(map(_json_cell_matches, got, row)):
            return f"JSON row {index} does not round-trip"
    return None


class BulkEmit(Workload):
    """``parse_config`` -> ``run`` -> ``to_csv`` and ``to_json`` on large payloads.

    It exercises ``cli`` the other way round from ``cli-presets``: emit is
    most of each op, import and process start-up are zero.  An emitter change
    shows here; without this workload the emit layer would go unmeasured.
    """

    kinds = ("simulate", "overhead", "exposure", "phase")
    tail_percentile = 80.0

    def make(self, i: int, u: float | None = None) -> Op:
        command, document = super().make(i, u)  # the kind builders return the config
        return self._emit_op(command, document)

    def _rows(self, u: float) -> int:
        return max(8, int(log_span(2e3, 2e4, u) * self.scale))

    def _simulate(self, u, rng) -> tuple[str, dict]:
        params = self.ctx.util.random_params(rng)
        schedule = self.ctx.util.random_schedule(rng)
        T = schedule.events[-1][0] + 2.0
        block = {"schedule": [list(e) for e in schedule.events],
                 "S0": float(rng.uniform(1e-3, 0.5)), "T": T, "step": T / self._rows(u)}
        return "simulate", {"params": _params_doc(params), "simulate": block}

    def _overhead(self, u, rng) -> tuple[str, dict]:
        block = {"r": self._rows(u) - float(rng.uniform(0.0, 1.0)),
                 "k": float(rng.uniform(0.0, 2.0))}
        return "overhead", {"params": _params_doc(self.ctx.util.random_params(rng)),
                            "overhead": block}

    def _exposure(self, u, rng) -> tuple[str, dict]:
        params = self.ctx.util.random_params(rng)
        dc = self.ctx.lib.model.derive(params).delta_c
        block = {"q": rng.uniform(0.0, 4.0 * dc, self._rows(u)).tolist()}
        return "exposure", {"params": _params_doc(params), "exposure": block}

    def _phase(self, u, rng) -> tuple[str, dict]:
        # panel a: one row per (n, h) for five curves plus the 1 + h frontier
        h_count = max(2, self._rows(u) // 6)
        block = {"panel": "a", "h_range": [0.0, float(rng.uniform(2.0, 8.0)), h_count],
                 "n_curves": [2, 3, 4, 6, 10]}
        return "phase", {"params": _params_doc(self.ctx.util.random_params(rng)),
                         "phase": block}

    def _emit_op(self, command: str, document: dict) -> Op:
        cli = self.ctx.lib.cli

        def run():
            envelope = cli.run(cli.parse_config(document, command=command), meta_time=False)
            return envelope, cli.to_csv(envelope), cli.to_json(envelope)

        size: dict[str, float] = {}

        def check(out) -> str | None:
            envelope, csv_text, json_text = out
            size.update(rows=len(envelope.payload["rows"]),
                        bytes=len(csv_text.encode()) + len(json_text.encode()))
            if envelope.exit_code != 0:
                return f"{command}: exit code {envelope.exit_code}"
            return round_trip_error(envelope.payload, csv_text, json_text)

        return Op(run, check, size)


WORKLOADS: dict[str, type[Workload]] = {
    "cli-presets": CliPresets,
    "planner-sweep": PlannerSweep,
    "envelope-verify": EnvelopeVerify,
    "bulk-emit": BulkEmit,
}
