"""Command-line front-end: config ingestion, dispatch, and deterministic output.

Subcommands: ``exposure``, ``split``, ``overhead``, ``peak``, ``horizon``,
``simulate``, ``phase``.  A run is configured by a YAML or JSON document, by a
named preset, or by flags; flags override document values.  Unknown keys are
hard errors.  The config contract is the field table ``_FIELDS`` (with ``_PARAMS``
and ``eps_thr`` in ``_DOCUMENT``): it declares every flag, drives the one
validator, and builds :func:`schema`, whose output is ``config.schema.json``
at the repo root.  As in JSON Schema, an integral float such as ``2.0`` counts
as an integer.

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
import json
import math
import os
import sys
from itertools import chain, groupby, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping

from . import __version__
from .allocation import SplitProblem, k_safe, optimal_split, overhead_optimal_count
from .allocation import _cost_overflow, _excess, _safe_count
from .errors import ConfigError, LeakyStageError
from .exposure import _table as _exposure_rows
from .model import (
    EPS_THR,
    DerivedConstants,
    DimensionlessPoint,
    FrozenRecord,
    ModelParams,
    _count,
    _number,
    _shown,
    derive,
    growth_pressure,
)
from .phase import PhaseGrid, feasibility_curves, panel_c_comparison, sawtooth_frontier
from .presets import PRESETS, preset
from .recovery import (
    UNBOUNDED,
    HorizonRegime,
    RecoveryConfig,
    _horizon_capacity,
    _safe_count_within,
    horizon_feasibility,
    min_peak_plan,
)


class _Field(FrozenRecord):
    """One config field.  ``kind`` is ``number``, ``count`` (an integer), ``numbers`` or
    ``counts`` (nonempty lists), ``range`` (``[min, max, count]``), ``schedule`` (a list
    of ``[time, size]`` pairs), ``enum`` (one of ``choices``), ``bool``, or ``object`` (a
    mapping of ``fields`` holding exactly one member of each ``one_of`` group).  Numbers
    and counts are >= ``minimum`` (> when ``strict``); numbers are < ``below``.  An absent
    field fails when ``required``, else takes ``default`` unless that is None.  ``help``
    is its flag help and schema description; flags are ``--name`` (``_`` as ``-``)."""

    kind: str
    help: str = ""
    minimum: float = 0.0
    strict: bool = False
    below: float = math.inf
    required: bool = False
    default: Any = None
    flag: bool = True
    choices: tuple[str, ...] = ()
    fields: dict[str, _Field] | None = None
    one_of: tuple[tuple[str, ...], ...] = ()


#: The labelled items of a ``range`` triple and of a ``schedule`` pair.
_RANGE_ITEMS = {"min": _Field("number"), "max": _Field("number"),
                "count": _Field("count", minimum=2)}
_PAIR_ITEMS = {"time": _Field("number"), "size": _Field("number")}

_PARAMS = {name: _Field("number", text, strict=True, required=True) for name, text in (
    ("beta", "baseline recruitment rate"), ("mu", "return rate"),
    ("delta", "reservoir reactivation rate"), ("rho", "reservoir recovery rate"))}

#: Every command block, its fields in config order.
_FIELDS: dict[str, _Field] = {
    "exposure": _Field("object", "Single-release exposure table of a list of sizes.", fields={
        "q": _Field("numbers", "release sizes (repeat --q for each)", required=True)}),
    "split": _Field("object", "Optimal complete-relaxation split of Q into n releases.", fields={
        "Q": _Field("number", "total load", strict=True, required=True),
        "n": _Field("count", "number of releases", minimum=1, required=True)}),
    "overhead": _Field("object", "Cost-optimal release count; load as r or Q, overhead as k or "
                       "K, each chosen on its own.", one_of=(("r", "Q"), ("k", "K")), fields={
        "r": _Field("number", "load in threshold units, Q / delta_c", strict=True),
        "Q": _Field("number", "total load", strict=True),
        "k": _Field("number", "overhead per release in one-shock exposure units"),
        "K": _Field("number", "overhead per release")}),
    "peak": _Field("object", "Peak-minimising finite-recovery plan; give carry-over lam or "
                   "spacing tau.", one_of=(("lam", "tau"),), fields={
        "Q": _Field("number", "total load", required=True),
        "n": _Field("count", "number of releases", minimum=1, required=True),
        "lam": _Field("number", "carry-over factor between releases", below=1.0),
        "tau": _Field("number", "time between releases", strict=True)}),
    "horizon": _Field("object", "Fixed-horizon capacities and feasibility; load as Q or r, span "
                      "as T or h.", one_of=(("Q", "r"), ("T", "h")), fields={
        "Q": _Field("number", "total load", strict=True),
        "r": _Field("number", "load in threshold units, Q / delta_c", strict=True),
        "T": _Field("number", "horizon length"),
        "h": _Field("number", "recovery budget over the horizon, rho * T"),
        "n_list": _Field("counts", "release counts to tabulate", minimum=1,
                         default=[2, 3, 4, 6, 10])}),
    "simulate": _Field("object", "Envelope and full-system trajectories under an impulse "
                       "schedule.", fields={
        "schedule": _Field("schedule", "release events, times strictly increasing", required=True),
        "S0": _Field("number", "initial activity level S of the full system", required=True),
        "T": _Field("number", "end time, at or after the last event", required=True),
        "step": _Field("number", "largest RK4 step", strict=True, required=True)}),
    "phase": _Field("object", "Phase-diagram tables; ranges are [min, max, count].", fields={
        "panel": _Field("enum", "panel to tabulate", choices=("a", "b", "c", "all"), default="all"),
        "r_range": _Field("range", "load samples of panel b", default=[1.02, 4.0, 150]),
        "h_range": _Field("range", "horizon samples of panel a", default=[0.0, 4.0, 81]),
        "k_range": _Field("range", "overhead samples of panel b", default=[0.0, 1.5, 7]),
        "n_curves": _Field("counts", "release counts of the panel a curves", minimum=1,
                           default=[2, 3, 4, 6, 10], flag=False),
        "panel_c": _Field("object", "the configuration compared in panel c", default={}, fields={
            "r": _Field("number", "load in threshold units", strict=True, default=2.1),
            "n": _Field("count", "number of releases", minimum=2, default=3),
            "h": _Field("number", "recovery budget over the horizon", strict=True, default=2.0)}),
        "resolve_integers": _Field("bool", "straddle integer r samples by +/-1e-6",
                                   default=False)}),
}

COMMANDS = tuple(_FIELDS)

_DOCUMENT = _Field(
    "object", "One params section plus exactly one command block. Flags given on the command "
    "line override values from this document.", one_of=(COMMANDS,), fields={
        "params": _Field("object", "The four positive rates; must satisfy beta < mu < delta.",
                         fields=_PARAMS, required=True),
        "eps_thr": _Field("number", "absolute tolerance for comparisons against the critical "
                          "level", strict=True, default=EPS_THR),
        **_FIELDS,
    },
)


class RunConfig(FrozenRecord):
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


class OutputEnvelope(FrozenRecord):
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


def _scalar(value: Any, what: str, field: _Field) -> float | int:
    """``value`` of the number or count ``field``, named ``what`` in errors, by the package's
    one rule (:func:`~leakystage.model._number`, :func:`~leakystage.model._count`).  As in
    JSON Schema, an integral float is an integer; a number is echoed as a float.  The error
    for text that reads as a finite number says so: YAML 1.1 reads ``1e300`` as text."""
    try:
        if field.kind == "count":
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            return _count(value, what, field.minimum, ConfigError)
        return float(_number(value, what, field.minimum, field.strict, field.below, ConfigError))
    except ConfigError as exc:
        spelled = _yaml_float(value)
        if spelled is None:
            raise
        raise ConfigError(f"{exc}; the value was read as text: write it as {spelled}") from None


def _yaml_float(value: Any) -> str | None:
    """``value`` spelled as YAML 1.1 reads a float (with a dot, and a sign on the exponent)
    if it is a string that ``float`` reads as a finite number, else None."""
    try:
        number = float(value) if isinstance(value, str) else math.nan
    except ValueError:
        return None
    if not math.isfinite(number):  # no spelling makes a non-finite value valid
        return None
    mantissa, e, exponent = repr(number).partition("e")
    return mantissa + ("" if "." in mantissa else ".0") + e + exponent


def _check(field: _Field, value: Any, where: str, name: str) -> Any:
    """``value`` of the field ``name`` of the mapping ``where``, checked against ``field``."""
    kind, what = field.kind, f"{where}: field '{name}'"
    if kind == "object":
        path = name if where == "config document" else f"{where}.{name}"  # params, phase.panel_c
        return _check_object(field, value, path)
    if kind in ("number", "count"):
        return _scalar(value, what, field)
    if kind == "enum" and value not in field.choices:
        raise ConfigError(f"{what} must be one of {'/'.join(field.choices)} (got {_shown(value)})")
    if kind == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{what} must be a boolean (got {_shown(value)})")
    if kind in ("enum", "bool"):
        return value
    if kind == "range":
        if not (isinstance(value, (list, tuple)) and len(value) == 3):
            raise ConfigError(f"{what} must be a [min, max, count] triple")
        return [_scalar(v, f"{what} {label}", item)
                for (label, item), v in zip(_RANGE_ITEMS.items(), value)]
    if kind == "schedule":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{what} must be a list of [time, size] pairs")
        return [_pair(v, f"{where}: {name}[{i}]") for i, v in enumerate(value)]
    if not (isinstance(value, (list, tuple)) and value):
        raise ConfigError(f"{what} must be a nonempty list of "
                          + ("numbers" if kind == "numbers" else "integers"))
    item = _Field(kind[:-1], minimum=field.minimum)
    return [_scalar(v, f"{where}: {name}[{i}]", item) for i, v in enumerate(value)]


def _pair(pair: Any, what: str) -> list[float]:
    """A ``[time, size]`` schedule event, named ``what`` in errors."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError(f"{what} must be a [time, size] pair")
    return [_scalar(v, f"{what} {label}", item)
            for (label, item), v in zip(_PAIR_ITEMS.items(), pair)]


def _check_object(field: _Field, value: Any, where: str) -> dict[str, Any]:
    """The mapping ``value``, named ``where`` in errors, checked against the object
    ``field``: each present field checked, each absent one given its default."""
    block = _as_mapping(value, where)
    # keys of different types never compare: a YAML block may hold an int key beside str ones
    unknown = sorted(set(block) - set(field.fields), key=lambda key: (
        type(key).__name__, key if isinstance(key, (str, int, float)) else _shown(key)))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(_shown, unknown))}")
    for group in field.one_of:
        present = [name for name in group if name in block]
        if len(present) != 1:
            raise ConfigError(
                f"{where}: exactly one of {'/'.join(group)} is required (got {present or 'none'})"
            )
    out: dict[str, Any] = {}
    for name, sub in field.fields.items():
        if name in block:
            out[name] = _check(sub, block[name], where, name)
        elif sub.required:
            raise ConfigError(f"{where}: missing required field '{name}'")
        elif sub.default is not None:
            out[name] = _check(sub, sub.default, where, name)
    return out


def _check_cross_fields(command: str, options: dict[str, Any]) -> None:
    """The rules no JSON schema states: increasing schedule times (``ImpulseSchedule``),
    ``T`` at or after the last event, and ``min < max`` in phase ranges (``PhaseGrid``)."""
    if command == "simulate":
        from .envelope import ImpulseSchedule  # envelope loads numpy, which no other command needs

        try:
            events = ImpulseSchedule(tuple(map(tuple, options["schedule"]))).events
        except LeakyStageError as exc:
            raise ConfigError(f"simulate: invalid schedule: {exc}") from exc
        if events and options["T"] < events[-1][0]:
            raise ConfigError(
                f"simulate: field 'T' must be >= the last event time {events[-1][0]!r}"
            )
    elif command == "phase":
        PhaseGrid(*(tuple(options[name]) for name in ("r_range", "h_range", "k_range")))


def _load_document(path: str | Path) -> dict[str, Any]:
    """Read a config document, a ``.json`` file as JSON and any other as YAML; errors
    name ``path`` as the caller gave it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # absent, unreadable, or not UTF-8
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    if Path(path).suffix.lower() == ".json":  # JSON reads 1e300 as a number, YAML 1.1 as text
        try:
            loaded = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, a long integer, deep nesting
            raise ConfigError(f"config file {str(path)!r} is not valid JSON: {exc}") from exc
        return _as_mapping(loaded, "config document")
    import yaml  # only YAML files need it, so preset, flag and JSON runs skip the import

    try:
        loaded = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {str(path)!r} is not valid YAML: {exc}") from exc
    # an integer too long to convert, a date such as 2020-02-30, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {str(path)!r} has a value YAML cannot read: {exc}") from exc
    return _as_mapping(loaded, "config document")


def parse_config(source: Mapping[str, Any] | str | Path, *, command: str | None = None) -> RunConfig:
    """Validate a config document (or the path of a YAML or ``.json`` file) into a
    :class:`RunConfig`.

    Exactly one command block must be present; every validation error names
    the offending field and the violated constraint.  Unknown keys are hard
    errors, never silently ignored.  The cross-field rules run last, so a document
    that :func:`schema` rejects always fails with :class:`ConfigError`.
    """
    if isinstance(source, (str, Path)):
        document = _load_document(source)
    else:
        document = _as_mapping(source, "config document")

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
    checked = _check_object(_DOCUMENT, document, "config document")
    params = ModelParams(**checked["params"])  # the type enforces beta < mu < delta
    _check_cross_fields(name, checked[name])
    return RunConfig(params=params, command=name, options=checked[name],
                     eps_thr=checked["eps_thr"])


def _schema(field: _Field) -> dict[str, Any]:
    """The JSON schema of one field."""
    out: dict[str, Any] = {"description": field.help} if field.help else {}
    kind = field.kind
    if kind == "object":
        out.update(type="object", additionalProperties=False)
        if any(sub.required for sub in field.fields.values()):
            out["required"] = [name for name, sub in field.fields.items() if sub.required]
        groups = [{"oneOf": [{"required": [name]} for name in group]} for group in field.one_of]
        if len(groups) == 1:
            out.update(groups[0])
        elif groups:
            out["allOf"] = groups
        out["properties"] = {name: _schema(sub) for name, sub in field.fields.items()}
    elif kind in ("number", "count"):
        out["type"] = "integer" if kind == "count" else "number"
        out["exclusiveMinimum" if field.strict else "minimum"] = field.minimum
        if field.below < math.inf:
            out["exclusiveMaximum"] = field.below
    elif kind in ("numbers", "counts"):
        item = _Field(kind[:-1], minimum=field.minimum)  # kind "number" or "count"
        out.update(type="array", minItems=1, items=_schema(item))
    elif kind == "range":
        out.update(type="array", minItems=3, maxItems=3,
                   prefixItems=[_schema(item) for item in _RANGE_ITEMS.values()])
    elif kind == "schedule":
        out.update(type="array", items={"type": "array", "minItems": 2, "maxItems": 2,
                                        "prefixItems": [_schema(i) for i in _PAIR_ITEMS.values()]})
    elif kind == "enum":
        out["enum"] = list(field.choices)
    else:
        out["type"] = "boolean"
    if field.default is not None:
        out["default"] = field.default
    return out


def schema() -> dict[str, Any]:
    """The JSON schema (draft 2020-12) of a config document, built from the field table.

    ``config.schema.json`` at the repo root is ``json.dumps(schema(), indent=2)`` plus a
    newline.  It states all that :func:`parse_config` checks but the cross-field rules:
    ``beta < mu < delta``, increasing schedule times, ``T`` at or after the last event
    and ``min < max`` in each range.
    """
    return {"$schema": "https://json-schema.org/draft/2020-12/schema",
            "title": "leakystage run configuration", **_schema(_DOCUMENT)}


# ---------------------------------------------------------------------------
# command execution


#: Each dimensionless coordinate and the dimensional field it can be given as.
_COORDINATES = {"r": "Q", "h": "T", "k": "K"}


def _dimensionless(config: RunConfig, d: DerivedConstants) -> dict[str, float | None]:
    """The run's ``r``, ``h`` and ``k``, or None where its command has no such coordinate.

    Each is taken as given or derived from its dimensional field by
    :meth:`DimensionlessPoint.from_dimensional`; a schedule's load is the sum
    of its releases, below the float range by the schedule's check.
    """
    opts = config.options
    given = {dim: opts[dim] for dim in _COORDINATES.values() if dim in opts}
    if "schedule" in opts:
        given["Q"] = math.fsum(q for _, q in opts["schedule"])
        if given["Q"] / d.delta_c == math.inf:
            raise ConfigError(f"{config.command}: the total of field 'schedule' "
                              f"({given['Q']!r}) overflows r = Q / delta_c")
    point = DimensionlessPoint.from_dimensional(config.params, **given)
    return {
        name: opts[name] if name in opts else getattr(point, name) if dim in given else None
        for name, dim in _COORDINATES.items()
    }


def _run_exposure(config: RunConfig, *_) -> tuple[dict, list[str], int]:
    rows = _exposure_rows(config.options["q"], config.params, config.eps_thr, lambda i, q, fault: (
        ConfigError("exposure: q[{}] = {!r} has an {} past the float range (must be {}, got {})"
                    .format(i, q, *fault))))
    return {"columns": ["q", "exposure", "derivative", "active_duration"], "rows": rows}, [], 0


def _run_split(config: RunConfig, *_) -> tuple[dict, list[str], int]:
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


def _run_overhead(config: RunConfig, d: DerivedConstants, dim: dict) -> tuple[dict, list[str], int]:
    r, k = dim["r"], dim["k"]
    result = overhead_optimal_count(r, k)
    frontier = k_safe(r)
    rows = []
    for n in range(1, _safe_count(r) + 1):  # r and k were checked by the two calls above
        residual = _excess(r, n)
        rows.append([
            n,
            n * k + residual,
            residual,
            n in result.ties,
            n == result.n_star,
            result.n_star,
            frontier,
        ])
    if max(rows[0][1], rows[-1][1]) == math.inf:  # the cost is convex in n
        raise _cost_overflow(k)
    warnings = []
    if len(result.ties) > 1:
        warnings.append(
            f"cost-optimal count is tied among {list(result.ties)}; smallest reported as n_star"
        )
    columns = ["n", "cost", "residual_exposure", "is_tie", "is_n_star", "n_star", "k_safe"]
    return {"columns": columns, "rows": rows}, warnings, 0


def _run_peak(config: RunConfig, d: DerivedConstants, dim: dict) -> tuple[dict, list[str], int]:
    opts = config.options
    if "tau" in opts:
        rc = RecoveryConfig.from_interval(config.params.rho, opts["tau"], opts["n"], opts["Q"])
    else:
        rc = RecoveryConfig(lam=opts["lam"], n=opts["n"], Q=opts["Q"])
    plan = min_peak_plan(rc)
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


def _run_horizon(config: RunConfig, d: DerivedConstants, dim: dict) -> tuple[dict, list[str], int]:
    r, h = dim["r"], dim["h"]
    verdict = horizon_feasibility(r, h, eps_thr=config.eps_thr)
    n_safe = _safe_count_within(verdict)
    n_safe = UNBOUNDED.value if n_safe is UNBOUNDED else n_safe
    rows = []
    for n in config.options["n_list"]:  # h was checked by horizon_feasibility
        capacity = _horizon_capacity(n, h)
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


def _run_simulate(config: RunConfig, *_) -> tuple[dict, list[str], int]:
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


def _run_phase(config: RunConfig, *_) -> tuple[dict, list[str], int]:
    opts = config.options
    panel = opts["panel"]
    grid = PhaseGrid(*(tuple(opts[name])
                       for name in ("r_range", "h_range", "k_range", "n_curves")))
    columns = ["panel", "series", "n", "r", "h", "k", "stage", "x", "value"]
    rows: list[list[Any]] = []
    if panel in ("a", "all"):
        feasibility, frontier = feasibility_curves(grid)
        rows.extend(["a", "B_n", n, None, h, None, None, None, b] for h, n, b in feasibility)
        rows.extend(["a", "frontier", None, None, h, None, None, None, b] for h, b in frontier)
    if panel in ("b", "all"):
        ksafe, nstar = sawtooth_frontier(grid, resolve_integers=opts["resolve_integers"])
        rows.extend(["b", "k_safe", None, r, None, None, None, None, v] for r, v in ksafe)
        rows.extend(["b", "n_star", None, r, None, k, None, None, n] for r, k, n in nstar)
    if panel in ("c", "all"):
        pc = panel_c_comparison(**opts["panel_c"])
        r, h = pc.r, pc.h
        for series, levels in (("uniform_level", pc.uniform_levels),
                               ("front_level", pc.front_levels)):
            rows.extend(["c", series, None, r, h, None, i, x, level] for i, x, level in levels)
        for series, releases in (("uniform_release", pc.uniform_releases),
                                 ("front_release", pc.front_releases)):
            rows.extend(["c", series, None, r, h, None, i, None, q]
                        for i, q in enumerate(releases, 1))
        for series, path in (("uniform_path", pc.uniform_path), ("front_path", pc.front_path)):
            rows.extend(["c", series, None, r, h, None, None, x, level] for x, level in path)
    return {"columns": columns, "rows": rows}, [], 0


#: Each command's runner, called with the run, its derived constants and its ``r``, ``h``
#: and ``k``; it returns the payload, the warnings and the exit code.
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
    d = derive(config.params)
    dimensionless = _dimensionless(config, d)  # fails on an overflowing input before the solve
    payload, warnings, exit_code = _RUNNERS[config.command](config, d, dimensionless)
    metadata: dict[str, Any] = {
        "tool": "leakystage",
        "version": __version__,
        "command": config.command,
        "delta_c": d.delta_c,
        "alpha": d.alpha,
        "gamma": d.gamma,
        "dimensionless": dimensionless,
        "config": config.echo(),
    }
    if meta_time:
        import datetime  # only the timestamp needs it, so --no-meta-time runs skip the import

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


#: The %-conversion of the CSV text of each type, the package's one rule for it: ``%s``
#: writes an exact int as ``%d`` would and a subclass by its own ``str``, and ``%.0s``
#: consumes a None and writes nothing.
_CSV_SLOTS = {float: "%.17g", int: "%s", str: "%s", type(None): "%.0s"}


def _format_cell(value: Any) -> str:
    """CSV text of a value: ``true`` or ``false`` for a bool, else the slot of the first
    ``_CSV_SLOTS`` type it is an instance of, else ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    for kind, slot in _CSV_SLOTS.items():
        if isinstance(value, kind):
            return slot % (value,)
    return str(value)


def _json_safe(value: Any) -> Any:
    """``value`` with each non-finite float replaced by ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


#: The ``#`` lines that lead a CSV file, in order: the metadata mapping each line reads
#: (None for the top level) and its keys, each written ``key=value``.
_CSV_META = ((None, ("tool", "version", "command")), (None, ("delta_c", "alpha", "gamma")),
             ("dimensionless", ("r", "h", "k")))


#: Rows per run of :func:`_table`: a run's template, arguments and columns stay a few
#: hundred KB however long the table is.
_RUN = 1024

#: The exact cell types whose equal cells print alike, so that :func:`_column` folds a
#: column of them into one text (float once its first cell is not a zero).
_FOLDS = frozenset((float, int, str, bool))


def _column(cells: tuple | list, json_text: bool) -> tuple[str, Any]:
    """The %-slot of a column of cells and the arguments it takes, None for constant text.

    A column of two or more equal cells of one exact type in ``_FOLDS`` is folded: its
    slot is the text of its first cell, by the rule below, with ``%`` doubled, so the
    template holds it and no argument is formatted.  A float column whose first cell is
    a zero does not fold, since ``-0.0 == 0.0`` prints otherwise; the last cell is compared
    with the first before any count, so a varying column pays almost nothing.

    An exact float, int or None column takes one slot for all its cells, as does an exact
    str or bool column after one ``map``.  Any other column, and in JSON a float column
    holding a non-finite value or whose sum overflows, is written cell by cell through
    ``_format_cell`` or ``_JSON_SCALARS`` and ``_NON_FINITE``.  In JSON a cell of a type
    ``_JSON_SCALARS`` lacks raises ``KeyError``."""
    kinds = set(map(type, cells))
    if len(kinds) == 1:
        kind, first = kinds.pop(), cells[0]
        if (kind in _FOLDS and len(cells) > 1 and cells[-1] == first
                and (first or kind is not float) and cells.count(first) == len(cells)):
            slot, args = _column((first,), json_text)
            return (slot % tuple(args)).replace("%", "%%"), None
        if kind is float and (not json_text or math.isfinite(sum(cells))):
            return ("%r" if json_text else "%.17g"), cells
        if kind is int:
            return ("%d" if json_text else "%s"), cells
        if kind is type(None):
            return ("null" if json_text else ""), None
        if kind is str:
            return "%s", map(encode_basestring_ascii, cells) if json_text else cells
        if kind is bool:
            return "%s", map(_JSON_SCALARS[bool], cells)
    if not json_text:
        return "%s", map(_format_cell, cells)
    texts = [_JSON_SCALARS[type(v)](v) for v in cells]
    return "%s", map(_NON_FINITE.get, texts, texts)


def _table(rows: list, json_text: bool, pad: str = "") -> list[str]:
    """The text of ``rows`` (lists or tuples of cells), written column by column in runs
    of up to ``_RUN`` consecutive rows of one width: a CSV line per row, or in JSON an
    array ``len(pad)`` spaces deep.  Each run is one %-template, its row's slots
    repeated, filled once; a column constant over the run is folded into the template as
    its text (:func:`_column`), so it is formatted once per run, not once per cell.  The
    caller joins the run texts with the row separator (a newline, or in JSON a comma, a
    newline and ``pad``).  In JSON a cell of a type ``_JSON_SCALARS`` lacks raises
    ``KeyError``."""
    if json_text:
        inner = pad + "  "
        open_, cell_sep, close, empty = "[\n" + inner, ",\n" + inner, "\n" + pad + "]", "[]"
        row_sep = ",\n" + pad
    else:
        open_, cell_sep, close, empty, row_sep = "", ",", "", "", "\n"
    runs = []
    for width, group in groupby(rows, len):
        while run := list(islice(group, _RUN)):
            if not width:
                runs.append(row_sep.join([empty] * len(run)))
                continue
            slots, columns = [], []
            for cells in zip(*run):
                slot, args = _column(cells, json_text)
                slots.append(slot)
                if args is not None:
                    columns.append(args)
            template = row_sep.join([open_ + cell_sep.join(slots) + close] * len(run))
            runs.append(template % tuple(chain.from_iterable(zip(*columns))))
    return runs


def to_csv(envelope: OutputEnvelope) -> str:
    """Render the envelope as CSV: metadata in '#' comments, then the table."""
    lines = []
    meta = envelope.metadata
    for source, keys in _CSV_META:
        values = meta if source is None else meta[source]
        lines.append("# " + " ".join(f"{key}={_format_cell(values[key])}" for key in keys))
    try:  # a checked config's echo is all finite: _json_safe's copy is rarely needed
        echo = json.dumps(meta["config"], sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        echo = json.dumps(_json_safe(meta["config"]), sort_keys=True, separators=(",", ":"))
    lines.append("# config=" + echo)
    if "generated" in meta:
        lines.append(f"# generated={meta['generated']}")
    for warning in envelope.warnings:
        lines.append(f"# warning={warning}")
    lines.append(",".join(envelope.payload["columns"]))
    lines.extend(_table(envelope.payload["rows"], False))
    lines.append("")  # the final newline, without copying the text to add it
    return "\n".join(lines)


#: JSON text of a scalar of each type as ``json.dumps`` writes it, except that a
#: non-finite float comes out bare (``inf``) and ``_NON_FINITE`` quotes it.
_JSON_SCALARS = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii,
                 bool: ("false", "true").__getitem__, type(None): {None: "null"}.__getitem__}
_NON_FINITE = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}


def _json_write(value: Any, pad: str, out: list[str]) -> None:
    """Append to ``out`` the text ``json.dumps(_json_safe(value), indent=2, allow_nan=False)``
    gives ``value`` written ``len(pad)`` spaces deep, without the encoder's per-value
    dispatch.  A non-empty dict with string keys is written key by key; any other value
    goes through the column kernel: a list of rows one piece per run of :func:`_table`, a
    list of scalars or a lone scalar one piece from :func:`_column`.  What the kernel
    refuses (an empty or nested container, a numpy scalar, a subclass, non-string keys)
    is the encoder's own text, re-indented.  The caller joins the pieces once, so the
    document is copied once, not once per nesting level."""
    inner = pad + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        separator = "{\n" + inner
        for key, v in value.items():
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _json_write(v, inner, out)
            separator = ",\n" + inner
        out.append("\n" + pad + "}")
        return
    try:  # the kernel builds all its text before any of it is appended
        if type(value) not in (list, tuple) or not value:  # one cell; [] and () are refused
            slot, args = _column((value,), True)
            out.append(slot % tuple(args or ()))
            return
        if set(map(type, value)) <= {list, tuple}:  # a table, in runs of rows
            texts = _table(value, True, inner)
        else:  # a list of scalars, as one column
            slot, args = _column(value, True)
            texts = [(",\n" + inner).join([slot] * len(value)) % tuple(args or ())]
    except KeyError:
        out.append(json.dumps(_json_safe(value), indent=2, allow_nan=False)
                   .replace("\n", "\n" + pad))
        return
    separator = "[\n" + inner
    for text in texts:
        out += separator, text
        separator = ",\n" + inner
    out.append("\n" + pad + "]")


def to_json(envelope: OutputEnvelope) -> str:
    """Render the envelope as a JSON document: ``json.dumps(..., indent=2)`` bytes,
    with non-finite floats as the strings ``"inf"``, ``"-inf"`` and ``"nan"``."""
    document = {
        "metadata": envelope.metadata,
        "payload": envelope.payload,
        "warnings": list(envelope.warnings),
    }
    out: list[str] = []
    _json_write(document, "", out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors (2 is reserved
    for infeasibility verdicts)."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count_flag(text: str) -> int | float:
    """Read a ``count`` flag value: an integer literal is an ``int``, any other number a
    ``float``, which :func:`_scalar` then takes as it takes a document's (``2.0`` is 2)."""
    for read in (int, float):
        try:
            return read(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"expected an integer (got {text!r})")


def _count_list(text: str) -> list[int | float]:
    """Read a ``counts`` flag value: comma-separated counts, empty parts skipped."""
    try:
        return [_count_flag(part) for part in text.split(",") if part.strip()]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers (got {text!r})"
        ) from None


#: The argparse keywords of each field kind that has a flag.
_FLAG_KWARGS: dict[str, dict[str, Any]] = {
    "number": {"type": float}, "count": {"type": _count_flag}, "enum": {},
    "numbers": {"action": "append", "type": float},
    "counts": {"type": _count_list, "metavar": "N,N,..."},
    "bool": {"action": "store_true", "default": None},
}


def _add_field_flags(sub: argparse.ArgumentParser, fields: dict[str, _Field], **extra) -> None:
    for name, field in fields.items():
        if field.flag and field.kind in _FLAG_KWARGS:
            choices = {"choices": field.choices} if field.choices else {}
            sub.add_argument("--" + name.replace("_", "-"), help=field.help,
                             **_FLAG_KWARGS[field.kind], **choices, **extra)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="config document: a .json file is read as JSON, any other as YAML")
    sub.add_argument("--preset", metavar="NAME",
                     help=f"built-in preset ({', '.join(sorted(PRESETS))})")
    sub.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--tol", type=float, metavar="EPS",
                     help=_DOCUMENT.fields["eps_thr"].help + " (eps_thr)")
    sub.add_argument("--no-meta-time", action="store_true",
                     help="omit the timestamp from metadata (reproducible output)")
    _add_field_flags(sub, _PARAMS, metavar="RATE")


def _build_parser() -> _Parser:
    parser = _Parser(prog="leakystage",
                     description="Threshold-safe staging of a load into a leaky reservoir.")
    parser.add_argument("--version", action="version", version=f"leakystage {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    for command, block in _FIELDS.items():
        sub = subs.add_parser(command, help=block.help)
        _add_field_flags(sub, block.fields)
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
        document = _load_document(args.config)
    else:
        document = {}

    for key, fields in (("params", _PARAMS), (args.command, _FIELDS[args.command].fields)):
        block = _as_mapping(document.get(key, {}), key)
        block.update((name, getattr(args, name)) for name in fields
                     if getattr(args, name, None) is not None)
        if block or key in document:
            document[key] = block
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
        except OSError as exc:
            # a downstream consumer (head, less, ...) closed the pipe, or the write failed
            # (a full disk); the rest goes to devnull, so that shutdown's flush cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 0
            _diagnostic(f"error: cannot write to stdout: {exc}")
            return 1
    for warning in envelope.warnings:
        _diagnostic(f"warning: {warning}")
    return envelope.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
