"""Command-line front-end: config ingestion, dispatch, and deterministic output.

Subcommands: ``exposure``, ``split``, ``overhead``, ``peak``, ``horizon``,
``simulate``, ``phase``.  A run is configured by a YAML document (see
``config.schema.json`` at the repo root for the contract), by a named preset,
or by flags; flags override document values.  Unknown keys are hard errors.

Output is an envelope of metadata (version, config echo, derived constants),
a payload table, and warnings, emitted as CSV (metadata in ``#`` comment
lines) or JSON.  Identical inputs produce byte-identical files; the only
non-reproducible line is the metadata timestamp, suppressed by
``--no-meta-time``.

Exit codes: 0 on success, 2 when the computed verdict is an infeasibility
(data, not failure, but flagged for scripting), 1 on errors.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import __version__
from .allocation import SplitProblem, excess_exposure, k_safe, optimal_split, overhead_optimal_count
from .errors import ConfigError, LeakyStageError
from .model import EPS_THR, DimensionlessPoint, ModelParams, derive, growth_pressure, guarded_ceil
from .phase import PanelC, PhaseGrid, build_phase_tables
from .presets import PRESETS, preset
from .recovery import (
    CountBound,
    HorizonRegime,
    RecoveryConfig,
    horizon_capacity,
    horizon_feasibility,
    min_peak_plan,
)

_PARAMS = ("beta", "mu", "delta", "rho")
_PANELS = ("a", "b", "c", "all")


def _int_list(text: str) -> list[int]:
    """Parse a ``--n-list`` value: comma-separated integers, empty parts skipped."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers (got {text!r})"
        ) from None


_NUMBER = {"type": float}
_COUNT = {"type": int}

#: Every field of every command block, in config order, with the argparse
#: keyword arguments of the flag that sets it, or None where only a config
#: document can.  A field's flag is ``--`` plus its name with ``_`` written
#: ``-``.  The table drives the parser, the flag merge and the unknown-key
#: check; ``config.schema.json`` names the same fields.
_FIELDS: dict[str, dict[str, dict[str, Any] | None]] = {
    "exposure": {
        "q": {"action": "append", "type": float, "metavar": "SIZE",
              "help": "release size (repeatable)"},
    },
    "split": {"Q": _NUMBER, "n": _COUNT},
    "overhead": {"r": _NUMBER, "k": _NUMBER, "Q": _NUMBER, "K": _NUMBER},
    "peak": {"Q": _NUMBER, "n": _COUNT, "lam": _NUMBER, "tau": _NUMBER},
    "horizon": {
        "Q": _NUMBER, "r": _NUMBER, "T": _NUMBER, "h": _NUMBER,
        "n_list": {"type": _int_list, "metavar": "N,N,...",
                   "help": "comma-separated release counts to tabulate"},
    },
    "simulate": {"schedule": None, "S0": _NUMBER, "T": _NUMBER, "step": _NUMBER},
    "phase": {
        "panel": {"choices": _PANELS},
        "r_range": None, "h_range": None, "k_range": None, "n_curves": None, "panel_c": None,
        "resolve_integers": {"action": "store_true", "default": None,
                             "help": "straddle integer r samples by +/-1e-6"},
    },
}

_HELP = {
    "exposure": "single-release exposure table",
    "split": "optimal complete-relaxation split",
    "overhead": "cost-optimal release count under overhead",
    "peak": "peak-minimising finite-recovery plan",
    "horizon": "fixed-horizon capacity and feasibility",
    "simulate": "envelope and full-system trajectories",
    "phase": "phase-diagram tables",
}

COMMANDS = tuple(_FIELDS)

_PHASE_DEFAULTS: dict[str, Any] = {
    "h_range": [0.0, 4.0, 81],
    "n_curves": [2, 3, 4, 6, 10],
    "r_range": [1.02, 4.0, 150],
    "k_range": [0.0, 1.5, 7],
    "panel_c": {"r": 2.1, "n": 3, "h": 2.0},
}


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: model parameters plus one command block."""

    params: ModelParams
    command: str
    options: dict[str, Any]
    eps_thr: float = EPS_THR

    def echo(self) -> dict[str, Any]:
        """Config document that reproduces this run exactly."""
        return {
            "params": {name: getattr(self.params, name) for name in _PARAMS},
            self.command: self.options,
            "eps_thr": self.eps_thr,
        }


@dataclass(frozen=True)
class OutputEnvelope:
    """Metadata, payload table, and warnings of one run."""

    metadata: dict[str, Any]
    payload: dict[str, Any]
    warnings: tuple[str, ...] = ()
    exit_code: int = 0


# ---------------------------------------------------------------------------
# config validation


def _as_mapping(value: Any, context: str) -> dict[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{context} must be a mapping (got {type(value).__name__})")
    return dict(value)


def _reject_unknown(mapping: Mapping[str, Any], allowed, context: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {', '.join(map(repr, unknown))}")


def _finite(value: Any, what: str, *, minimum: float | None = None,
            strict: bool = False) -> float:
    """``value`` as a float; ``what`` names it in the error if it is not a finite
    number at or above ``minimum`` (above it when ``strict``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number (got {value!r})")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite (got {value!r})")
    if minimum is not None and (number < minimum or (strict and number == minimum)):
        raise ConfigError(f"{what} must be {'>' if strict else '>='} {minimum} (got {number!r})")
    return number


def _count(value: Any, what: str, minimum: int = 1) -> int:
    """``value`` as an integer; ``what`` names it in the error if it is not one >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer (got {value!r})")
    if value < minimum:
        raise ConfigError(f"{what} must be >= {minimum} (got {value!r})")
    return value


def _number(mapping: Mapping[str, Any], name: str, context: str, *, required: bool = True,
            minimum: float | None = None, strict: bool = False) -> float | None:
    if name not in mapping:
        if required:
            raise ConfigError(f"{context}: missing required field '{name}'")
        return None
    return _finite(mapping[name], f"{context}: field '{name}'", minimum=minimum, strict=strict)


def _integer(mapping: Mapping[str, Any], name: str, context: str, *, required: bool = True,
             minimum: int = 1) -> int | None:
    if name not in mapping:
        if required:
            raise ConfigError(f"{context}: missing required field '{name}'")
        return None
    return _count(mapping[name], f"{context}: field '{name}'", minimum)


def _counts(mapping: Mapping[str, Any], name: str, context: str, default: list[int]) -> list[int]:
    """Field ``name`` (``default`` when absent): a nonempty list of integers >= 1."""
    value = mapping.get(name, default)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{context}: field '{name}' must be a nonempty list of integers")
    return [_count(n, f"{context}: {name}[{i}]") for i, n in enumerate(value)]


def _exactly_one(mapping: Mapping[str, Any], names: tuple[str, ...], context: str) -> str:
    present = [n for n in names if n in mapping]
    if len(present) != 1:
        raise ConfigError(
            f"{context}: exactly one of {'/'.join(names)} is required (got {present or 'none'})"
        )
    return present[0]


def _range_triple(value: Any, what: str) -> list[Any]:
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ConfigError(f"{what} must be a [min, max, count] triple")
    lo, hi, count = value
    return [_finite(lo, f"{what} min"), _finite(hi, f"{what} max"), _count(count, f"{what} count")]


def _validate_params(document: Mapping[str, Any]) -> ModelParams:
    if "params" not in document:
        raise ConfigError("missing required section 'params'")
    block = _as_mapping(document["params"], "params")
    _reject_unknown(block, _PARAMS, "params")
    values = {name: _number(block, name, "params") for name in _PARAMS}
    return ModelParams(**values)  # ordering/positivity enforced by the type


def _validate_exposure(block: dict[str, Any]) -> dict[str, Any]:
    if "q" not in block:
        raise ConfigError("exposure: missing required field 'q'")
    raw = block["q"]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("exposure: field 'q' must be a nonempty list of release sizes")
    return {"q": [_finite(q, f"exposure: q[{i}]", minimum=0.0) for i, q in enumerate(raw)]}


def _validate_split(block: dict[str, Any]) -> dict[str, Any]:
    return {
        "Q": _number(block, "Q", "split", minimum=0.0, strict=True),
        "n": _integer(block, "n", "split"),
    }


def _validate_overhead(block: dict[str, Any]) -> dict[str, Any]:
    load = _exactly_one(block, ("r", "Q"), "overhead")
    cost = _exactly_one(block, ("k", "K"), "overhead")
    return {
        load: _number(block, load, "overhead", minimum=0.0, strict=True),
        cost: _number(block, cost, "overhead", minimum=0.0),
    }


def _validate_peak(block: dict[str, Any]) -> dict[str, Any]:
    carry = _exactly_one(block, ("lam", "tau"), "peak")
    out = {
        "Q": _number(block, "Q", "peak", minimum=0.0),
        "n": _integer(block, "n", "peak"),
    }
    if carry == "lam":
        lam = _number(block, "lam", "peak", minimum=0.0)
        if lam >= 1.0:
            raise ConfigError(f"peak: field 'lam' must lie in [0, 1) (got {lam!r})")
        out["lam"] = lam
    else:
        out["tau"] = _number(block, "tau", "peak", minimum=0.0, strict=True)
    return out


def _validate_horizon(block: dict[str, Any]) -> dict[str, Any]:
    load = _exactly_one(block, ("Q", "r"), "horizon")
    span = _exactly_one(block, ("T", "h"), "horizon")
    return {
        load: _number(block, load, "horizon", minimum=0.0, strict=True),
        span: _number(block, span, "horizon", minimum=0.0),
        "n_list": _counts(block, "n_list", "horizon", [2, 3, 4, 6, 10]),
    }


def _validate_simulate(block: dict[str, Any]) -> dict[str, Any]:
    # envelope loads numpy, which no other command needs
    from .envelope import ImpulseSchedule

    if "schedule" not in block:
        raise ConfigError("simulate: missing required field 'schedule'")
    raw = block["schedule"]
    if not isinstance(raw, (list, tuple)):
        raise ConfigError("simulate: field 'schedule' must be a list of [time, size] pairs")
    events = []
    for i, pair in enumerate(raw):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError(f"simulate: schedule[{i}] must be a [time, size] pair")
        events.append((_finite(pair[0], f"simulate: schedule[{i}] time"),
                       _finite(pair[1], f"simulate: schedule[{i}] size")))
    try:
        schedule = ImpulseSchedule(tuple(events))
    except LeakyStageError as exc:
        raise ConfigError(f"simulate: invalid schedule: {exc}") from exc
    out = {
        "schedule": [[t, q] for t, q in schedule.events],
        "S0": _number(block, "S0", "simulate", minimum=0.0),
        "T": _number(block, "T", "simulate", minimum=0.0),
        "step": _number(block, "step", "simulate", minimum=0.0, strict=True),
    }
    if schedule.events and out["T"] < schedule.events[-1][0]:
        raise ConfigError(
            f"simulate: field 'T' must be >= the last event time {schedule.events[-1][0]!r}"
        )
    return out


def _validate_phase(block: dict[str, Any]) -> dict[str, Any]:
    panel = block.get("panel", "all")
    if panel not in _PANELS:
        raise ConfigError(f"phase: field 'panel' must be one of a/b/c/all (got {panel!r})")
    out: dict[str, Any] = {"panel": panel}
    for name in ("r_range", "h_range", "k_range"):
        value = block.get(name, _PHASE_DEFAULTS[name])
        out[name] = _range_triple(value, f"phase: field '{name}'")
    out["n_curves"] = _counts(block, "n_curves", "phase", _PHASE_DEFAULTS["n_curves"])
    pc = _as_mapping(block.get("panel_c", _PHASE_DEFAULTS["panel_c"]), "phase.panel_c")
    _reject_unknown(pc, {"r", "n", "h"}, "phase.panel_c")
    defaults = _PHASE_DEFAULTS["panel_c"]
    out["panel_c"] = {
        "r": _number(pc, "r", "phase.panel_c", required=False, minimum=0.0, strict=True)
        or defaults["r"],
        "n": _integer(pc, "n", "phase.panel_c", required=False, minimum=2) or defaults["n"],
        "h": _number(pc, "h", "phase.panel_c", required=False, minimum=0.0, strict=True)
        or defaults["h"],
    }
    resolve = block.get("resolve_integers", False)
    if not isinstance(resolve, bool):
        raise ConfigError(
            f"phase: field 'resolve_integers' must be a boolean (got {resolve!r})"
        )
    out["resolve_integers"] = resolve
    # grid constraints are enforced by the PhaseGrid type at parse time
    PhaseGrid(
        r_range=tuple(out["r_range"]),
        h_range=tuple(out["h_range"]),
        k_range=tuple(out["k_range"]),
        n_curves=tuple(out["n_curves"]),
    )
    return out


_BLOCK_VALIDATORS = {
    "exposure": _validate_exposure,
    "split": _validate_split,
    "overhead": _validate_overhead,
    "peak": _validate_peak,
    "horizon": _validate_horizon,
    "simulate": _validate_simulate,
    "phase": _validate_phase,
}


def _load_yaml(path: str | Path) -> dict[str, Any]:
    """Read a YAML config document; errors name ``path`` as the caller gave it."""
    import yaml  # only config files need it, so preset and flag runs skip the import

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    try:
        loaded = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {str(path)!r} is not valid YAML: {exc}") from exc
    return _as_mapping(loaded, "config document")


def parse_config(source: Mapping[str, Any] | str | Path, *, command: str | None = None) -> RunConfig:
    """Validate a config document (or YAML file path) into a :class:`RunConfig`.

    Exactly one command block must be present; every validation error names
    the offending field and the violated constraint.  Unknown keys are hard
    errors, never silently ignored.
    """
    if isinstance(source, (str, Path)):
        document = _load_yaml(source)
    else:
        document = _as_mapping(source, "config document")

    _reject_unknown(document, {"params", "eps_thr", *COMMANDS}, "config document")
    params = _validate_params(document)
    present = [name for name in COMMANDS if name in document]
    if command is not None:
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        if present and present != [command]:
            raise ConfigError(
                f"config document configures {'/'.join(present)!r}, not {command!r}"
            )
        present = [command]
        document.setdefault(command, {})
    if len(present) != 1:
        raise ConfigError(
            "config document must contain exactly one command block "
            f"({', '.join(COMMANDS)}); found {present or 'none'}"
        )
    name = present[0]
    block = _as_mapping(document[name], name)
    _reject_unknown(block, _FIELDS[name], name)
    options = _BLOCK_VALIDATORS[name](block)
    eps_thr = _number(document, "eps_thr", "config document", required=False, minimum=0.0,
                      strict=True)
    return RunConfig(
        params=params,
        command=name,
        options=options,
        eps_thr=EPS_THR if eps_thr is None else eps_thr,
    )


# ---------------------------------------------------------------------------
# command execution


#: Each dimensionless coordinate and the dimensional field it can be given as.
_COORDINATES = {"r": "Q", "h": "T", "k": "K"}


def _dimensionless(config: RunConfig) -> dict[str, float | None]:
    """The run's ``r``, ``h`` and ``k``, or None where its command has no such coordinate.

    Each is taken as given or derived from its dimensional field by
    :meth:`DimensionlessPoint.from_dimensional`; a schedule's load is the sum
    of its releases.
    """
    opts = config.options
    given = {dim: opts[dim] for dim in _COORDINATES.values() if dim in opts}
    if "schedule" in opts:
        given["Q"] = math.fsum(q for _, q in opts["schedule"])
    point = DimensionlessPoint.from_dimensional(config.params, **given)
    return {
        name: opts[name] if name in opts else getattr(point, name) if dim in given else None
        for name, dim in _COORDINATES.items()
    }


def _run_exposure(config: RunConfig) -> tuple[dict, list[str], int]:
    from .exposure import exposure_closed_form, exposure_derivative

    rows = []
    for q in config.options["q"]:
        value = exposure_closed_form(q, config.params, eps_thr=config.eps_thr)
        rows.append([
            q,
            value.value,
            exposure_derivative(q, config.params, eps_thr=config.eps_thr),
            value.active_duration,
        ])
    return {"columns": ["q", "exposure", "derivative", "active_duration"], "rows": rows}, [], 0


def _run_split(config: RunConfig) -> tuple[dict, list[str], int]:
    problem = SplitProblem(Q=config.options["Q"], n=config.options["n"], params=config.params)
    result = optimal_split(problem, eps_thr=config.eps_thr)
    warnings = []
    if not result.unique_minimizer:
        warnings.append(
            "minimizer not unique: every split with all releases at or below the "
            "critical level is optimal; canonical representative returned"
        )
    rows = [
        [stage + 1, q, result.total_exposure, result.is_safe, result.unique_minimizer]
        for stage, q in enumerate(result.releases)
    ]
    columns = ["stage", "release", "total_exposure", "is_safe", "unique_minimizer"]
    return {"columns": columns, "rows": rows}, warnings, 0


def _run_overhead(config: RunConfig) -> tuple[dict, list[str], int]:
    dim = _dimensionless(config)
    r, k = dim["r"], dim["k"]
    result = overhead_optimal_count(r, k)
    frontier = k_safe(r)
    rows = []
    for n in range(1, max(1, guarded_ceil(r)) + 1):
        residual = excess_exposure(r, n)
        rows.append([
            n,
            n * k + residual,
            residual,
            n in result.ties,
            n == result.n_star,
            result.n_star,
            frontier,
        ])
    warnings = []
    if len(result.ties) > 1:
        warnings.append(
            f"cost-optimal count is tied among {list(result.ties)}; smallest reported as n_star"
        )
    columns = ["n", "cost", "residual_exposure", "is_tie", "is_n_star", "n_star", "k_safe"]
    return {"columns": columns, "rows": rows}, warnings, 0


def _run_peak(config: RunConfig) -> tuple[dict, list[str], int]:
    opts = config.options
    if "tau" in opts:
        rc = RecoveryConfig.from_interval(config.params.rho, opts["tau"], opts["n"], opts["Q"])
    else:
        rc = RecoveryConfig(lam=opts["lam"], n=opts["n"], Q=opts["Q"])
    plan = min_peak_plan(rc)
    d = derive(config.params)
    is_safe = plan.peak <= d.delta_c + config.eps_thr
    warnings = []
    if plan.degenerate:
        warnings.append("degenerate plan: zero load releases nothing")
    if abs(plan.peak - d.delta_c) <= config.eps_thr:
        warnings.append("peak sits exactly at the critical level (within eps_thr)")
    rows = [
        [stage + 1, q, level, plan.peak, plan.capacity_multiplier, plan.peak / d.delta_c, is_safe]
        for stage, (q, level) in enumerate(zip(plan.releases, plan.post_levels))
    ]
    columns = [
        "stage", "release", "post_level", "peak", "capacity_multiplier",
        "peak_over_delta_c", "is_safe",
    ]
    return {"columns": columns, "rows": rows}, warnings, 0


def _run_horizon(config: RunConfig) -> tuple[dict, list[str], int]:
    opts = config.options
    d = derive(config.params)
    dim = _dimensionless(config)
    r, h = dim["r"], dim["h"]
    verdict = horizon_feasibility(r, h, eps_thr=config.eps_thr)
    n_safe: Any
    if verdict.regime is HorizonRegime.SAFE_WITH_ONE_RELEASE:
        n_safe = 1
    elif verdict.regime is HorizonRegime.SAFE_WITH_N:
        n_safe = verdict.n
    else:
        n_safe = CountBound.UNBOUNDED.value
    rows = []
    for n in opts["n_list"]:
        capacity = horizon_capacity(n, h)
        rows.append([
            n,
            capacity,
            d.delta_c * capacity,
            r <= capacity + config.eps_thr,
            verdict.label,
            n_safe,
            d.delta_c * (1.0 + h),
        ])
    warnings = []
    exit_code = 0
    if verdict.regime is HorizonRegime.SUPREMAL_BOUNDARY:
        warnings.append(
            "the load sits on the capacity frontier: the bound is only supremal and "
            "no finite schedule attains it"
        )
    if verdict.regime is HorizonRegime.INFEASIBLE:
        warnings.append("no finite schedule is threshold-safe within this horizon")
        exit_code = 2
    columns = ["n", "B_n", "Q_safe_capacity", "covers_load", "verdict", "n_safe", "Q_sup_safe"]
    return {"columns": columns, "rows": rows}, warnings, exit_code


def _run_simulate(config: RunConfig) -> tuple[dict, list[str], int]:
    from .envelope import ImpulseSchedule, simulate_envelope, simulate_full

    opts = config.options
    schedule = ImpulseSchedule(tuple((t, q) for t, q in opts["schedule"]))
    red = simulate_envelope(schedule, config.params, opts["T"], opts["step"])
    full = simulate_full(schedule, config.params, opts["S0"], 0.0, opts["T"], opts["step"])
    g_full, g_red = growth_pressure(full.A, config.params), growth_pressure(red.A, config.params)
    samples = (red.t, red.A, full.S, full.A, g_full, g_red)
    rows = [list(row) for row in zip(*(array.tolist() for array in samples))]
    warnings = []
    if full.clamp_count:
        warnings.append(
            f"{full.clamp_count} negative reservoir excursions clamped; reduce the step"
        )
    columns = ["t", "A_red", "S_full", "A_full", "g_full", "g_red"]
    return {"columns": columns, "rows": rows}, warnings, 0


def _run_phase(config: RunConfig) -> tuple[dict, list[str], int]:
    opts = config.options
    panel = opts["panel"]
    panels = ("a", "b", "c") if panel == "all" else (panel,)
    grid = PhaseGrid(
        r_range=tuple(opts["r_range"]),
        h_range=tuple(opts["h_range"]),
        k_range=tuple(opts["k_range"]),
        n_curves=tuple(opts["n_curves"]),
    )
    tables = build_phase_tables(
        grid,
        panels=panels,
        panel_c_args=opts["panel_c"],
        resolve_integers=opts["resolve_integers"],
    )
    rows: list[list[Any]] = []

    def row(panel_id: str, series: str, *, n=None, r=None, h=None, k=None, stage=None,
            x=None, value=None) -> list[Any]:
        return [panel_id, series, n, r, h, k, stage, x, value]

    rows.extend(row("a", "B_n", n=n, h=h, value=b) for h, n, b in tables.feasibility)
    rows.extend(row("a", "frontier", h=h, value=b) for h, b in tables.frontier)
    rows.extend(row("b", "k_safe", r=r, value=v) for r, v in tables.sawtooth_ksafe)
    rows.extend(row("b", "n_star", r=r, k=k, value=n) for r, k, n in tables.sawtooth_nstar)
    if tables.panel_c is not None:
        pc: PanelC = tables.panel_c
        for series, level_rows in (
            ("uniform_level", pc.uniform_levels),
            ("front_level", pc.front_levels),
        ):
            rows.extend(
                row("c", series, r=pc.r, h=pc.h, stage=stage, x=x, value=level)
                for stage, x, level in level_rows
            )
        for series, releases in (
            ("uniform_release", pc.uniform_releases),
            ("front_release", pc.front_releases),
        ):
            rows.extend(
                row("c", series, r=pc.r, h=pc.h, stage=i + 1, value=q)
                for i, q in enumerate(releases)
            )
        for series, path in (("uniform_path", pc.uniform_path), ("front_path", pc.front_path)):
            rows.extend(
                row("c", series, r=pc.r, h=pc.h, x=x, value=level) for x, level in path
            )
    columns = ["panel", "series", "n", "r", "h", "k", "stage", "x", "value"]
    return {"columns": columns, "rows": rows}, [], 0


_RUNNERS = {
    "exposure": _run_exposure,
    "split": _run_split,
    "overhead": _run_overhead,
    "peak": _run_peak,
    "horizon": _run_horizon,
    "simulate": _run_simulate,
    "phase": _run_phase,
}


def run(config: RunConfig, *, meta_time: bool = True) -> OutputEnvelope:
    """Execute a validated run and assemble the output envelope."""
    payload, warnings, exit_code = _RUNNERS[config.command](config)
    d = derive(config.params)
    metadata: dict[str, Any] = {
        "tool": "leakystage",
        "version": __version__,
        "command": config.command,
        "delta_c": d.delta_c,
        "alpha": d.alpha,
        "gamma": d.gamma,
        "dimensionless": _dimensionless(config),
        "config": config.echo(),
    }
    if meta_time:
        metadata["generated"] = (
            datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()
        )
    return OutputEnvelope(
        metadata=metadata,
        payload=payload,
        warnings=tuple(warnings),
        exit_code=exit_code,
    )


# ---------------------------------------------------------------------------
# emission


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def to_csv(envelope: OutputEnvelope) -> str:
    """Render the envelope as CSV: metadata in '#' comments, then the table."""
    lines = []
    meta = envelope.metadata
    lines.append(f"# tool={meta['tool']} version={meta['version']} command={meta['command']}")
    lines.append(
        "# delta_c={} alpha={} gamma={}".format(
            _format_cell(meta["delta_c"]), _format_cell(meta["alpha"]), _format_cell(meta["gamma"])
        )
    )
    dim = meta["dimensionless"]
    lines.append(
        "# r={} h={} k={}".format(
            _format_cell(dim["r"]), _format_cell(dim["h"]), _format_cell(dim["k"])
        )
    )
    lines.append(
        "# config=" + json.dumps(_json_safe(meta["config"]), sort_keys=True,
                                 separators=(",", ":"))
    )
    if "generated" in meta:
        lines.append(f"# generated={meta['generated']}")
    for warning in envelope.warnings:
        lines.append(f"# warning={warning}")
    lines.append(",".join(envelope.payload["columns"]))
    for row in envelope.payload["rows"]:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def to_json(envelope: OutputEnvelope) -> str:
    """Render the envelope as a JSON document."""
    document = {
        "metadata": _json_safe(envelope.metadata),
        "payload": _json_safe(envelope.payload),
        "warnings": list(envelope.warnings),
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors (2 is reserved
    for infeasibility verdicts)."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="YAML config document")
    sub.add_argument("--preset", metavar="NAME",
                     help=f"built-in preset ({', '.join(sorted(PRESETS))})")
    sub.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--tol", type=float, metavar="EPS",
                     help="threshold comparison tolerance (eps_thr)")
    sub.add_argument("--no-meta-time", action="store_true",
                     help="omit the timestamp from metadata (reproducible output)")
    for name in _PARAMS:
        sub.add_argument(f"--{name}", type=float, metavar="RATE")


def _build_parser() -> _Parser:
    parser = _Parser(prog="leakystage",
                     description="Threshold-safe staging of a load into a leaky reservoir.")
    parser.add_argument("--version", action="version", version=f"leakystage {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    for command, fields in _FIELDS.items():
        sub = subs.add_parser(command, help=_HELP[command])
        for name, flag in fields.items():
            if flag is not None:
                sub.add_argument("--" + name.replace("_", "-"), **flag)
        _add_common_flags(sub)
    return parser


def _assemble_document(args: argparse.Namespace) -> dict[str, Any]:
    if args.config and args.preset:
        raise ConfigError("use either --config or --preset, not both")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        document = preset(args.preset)
    elif args.config:
        document = _load_yaml(args.config)
    else:
        document = {}

    params = _as_mapping(document.get("params", {}), "params")
    for name in _PARAMS:
        if getattr(args, name) is not None:
            params[name] = getattr(args, name)
    if params:
        document["params"] = params

    block = _as_mapping(document.get(args.command, {}), args.command)
    for name in _FIELDS[args.command]:
        if getattr(args, name, None) is not None:
            block[name] = getattr(args, name)
    if block or args.command in document:
        document[args.command] = block
    if args.tol is not None:
        document["eps_thr"] = args.tol
    return document


def _diagnostic(message: str) -> None:
    use_color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    if use_color:
        message = f"\x1b[31m{message}\x1b[0m"
    print(message, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        document = _assemble_document(args)
        config = parse_config(document, command=args.command)
        envelope = run(config, meta_time=not args.no_meta_time)
        text = to_json(envelope) if args.format == "json" else to_csv(envelope)
    except LeakyStageError as exc:
        _diagnostic(f"error: {exc}")
        return 1
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            _diagnostic(f"error: cannot write {args.out!r}: {exc}")
            return 1
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # downstream consumer (head, less, ...) closed the pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    for warning in envelope.warnings:
        _diagnostic(f"warning: {warning}")
    return envelope.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
