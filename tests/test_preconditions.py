"""Hostile numeric inputs to every public callable: a result or a LeakyStageError.

Each row of ``CASES`` calls one numeric callable of ``leakystage.__all__`` with
a valid argument set and gives the domain of each numeric argument.  Every
argument is replaced in turn by each hostile value of its domain; a checked
argument must then raise a :class:`LeakyStageError` subclass, and an argument
the callable does not check (a field of a result record, the level of the
pointwise growth maps) may also return normally.  No call may raise anything
else.  Names served from ``envelope`` are in the table too.
"""
from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import leakystage
from leakystage import (
    AllocationResult,
    CapacityReport,
    DerivedConstants,
    DimensionlessPoint,
    EnvelopeCheck,
    ExposureValue,
    HorizonFeasibility,
    HorizonRegime,
    ImpulseSchedule,
    LeakyStageError,
    ModelParams,
    OverheadResult,
    PanelC,
    PeakPlan,
    PhaseGrid,
    RecoveryConfig,
    SplitProblem,
    Trajectory,
    capacity_report,
    continuous_relaxed_count,
    dominance_tolerance,
    excess_exposure,
    exposure_batch,
    exposure_closed_form,
    exposure_derivative,
    exposure_near_threshold,
    growth_pressure,
    horizon_capacity,
    horizon_feasibility,
    k_safe,
    min_exposure,
    min_peak_plan,
    minimal_safe_count,
    normalized_factor,
    optimal_split,
    overhead_optimal_count,
    panel_c_comparison,
    peak_capacity,
    safe_count_fixed_lambda,
    simulate_envelope,
    simulate_full,
    simulate_recurrence,
    state_peak_plan,
    state_value,
    unequal_spacing_capacity,
    verify_envelope_dominance,
)
from leakystage.exposure import _BLOCK, exposure_table
from leakystage.model import EPS_THR, _shown

P = ModelParams(beta=0.6, mu=1.0, delta=1.8, rho=0.5)
SCHEDULE = ImpulseSchedule(((0.0, 0.4), (0.5, 0.3)))

#: Domains: a number > 0, >= 0 or in [0, 1); an integer >= 1 or >= 2; or FREE,
#: an argument the callable does not check.
POS, NONNEG, UNIT, COUNT, COUNT2, FREE = "pos", "nonneg", "unit", "count", "count2", "free"

#: Hostile for every domain; 0 is added where the domain excludes it, 2.5 for counts.
#: A bool, a Decimal and a Fraction are not numbers, whatever their value.
#: 10**5000 is past the digits ``repr`` writes, so its messages show it by its length.
HOSTILE = [math.nan, math.inf, -math.inf, -1.0, 10**400, 10**5000, "1", None, True, Decimal("1"),
           Fraction(1, 2)]


def hostile_values(domain: str) -> list:
    extra = {POS: [0], COUNT: [0, 2.5], COUNT2: [0, 1, 2.5]}.get(domain, [])
    return HOSTILE + extra


def _trajectory(clamp_count):
    ts = np.array([0.0, 1.0])
    return Trajectory(ts, ts.copy(), None, np.array([], dtype=int), np.array([]), clamp_count)


#: (label, call, valid positional arguments, domain of each).
CASES = [
    ("ModelParams", ModelParams, (0.6, 1.0, 1.8, 0.5), (POS,) * 4),
    ("DerivedConstants", DerivedConstants, (1.2, 0.4, 1 / 3), (POS,) * 3),
    ("DimensionlessPoint", DimensionlessPoint, (2.0, 1.0, 0.5), (NONNEG,) * 3),
    ("DimensionlessPoint.from_dimensional",
     lambda Q, T, K: DimensionlessPoint.from_dimensional(P, Q, T, K), (0.7, 4.0, 0.8),
     (NONNEG,) * 3),
    ("growth_pressure", lambda A: growth_pressure(A, P), (0.5,), (FREE,)),
    ("normalized_factor", lambda A: normalized_factor(A, P), (0.5,), (FREE,)),
    ("ExposureValue", ExposureValue, (0.5, 1.0), (NONNEG, NONNEG)),
    ("exposure_closed_form", lambda q, eps: exposure_closed_form(q, P, eps_thr=eps),
     (0.7, 1e-12), (NONNEG, NONNEG)),
    ("exposure_derivative", lambda q, eps: exposure_derivative(q, P, eps_thr=eps),
     (0.7, 1e-12), (NONNEG, NONNEG)),
    ("exposure_batch", lambda q, eps: exposure_batch([0.2, q], P, eps_thr=eps),
     (0.7, 1e-12), (NONNEG, NONNEG)),
    ("exposure_near_threshold", lambda eps: exposure_near_threshold(eps, P), (0.01,), (NONNEG,)),
    ("excess_exposure", excess_exposure, (3.0, 2), (NONNEG, COUNT)),
    ("SplitProblem", lambda Q, n: SplitProblem(Q, n, P), (1.0, 2), (POS, COUNT)),
    ("min_exposure", lambda Q, n, eps: min_exposure(Q, n, P, eps_thr=eps), (1.0, 2, 1e-12),
     (POS, COUNT, NONNEG)),
    ("optimal_split", lambda eps: optimal_split(SplitProblem(1.0, 2, P), eps_thr=eps),
     (1e-12,), (NONNEG,)),
    ("minimal_safe_count", lambda Q: minimal_safe_count(Q, P), (1.0,), (POS,)),
    ("overhead_optimal_count", overhead_optimal_count, (4.5, 0.3), (POS, NONNEG)),
    ("k_safe", k_safe, (4.5,), (POS,)),
    ("continuous_relaxed_count", continuous_relaxed_count, (4.5, 0.3), (POS, NONNEG)),
    ("AllocationResult", lambda e: AllocationResult((0.5,), e, False, True), (0.1,), (FREE,)),
    ("OverheadResult", lambda n, c: OverheadResult(n, c, 0.0, True, (n,)), (2, 1.0),
     (FREE, FREE)),
    ("RecoveryConfig", RecoveryConfig, (0.5, 3, 1.0, 0.0), (UNIT, COUNT, NONNEG, NONNEG)),
    ("RecoveryConfig.from_interval", RecoveryConfig.from_interval, (0.5, 1.0, 3, 1.0, 0.0),
     (POS, POS, COUNT, NONNEG, NONNEG)),
    ("peak_capacity", peak_capacity, (3, 0.5), (COUNT, UNIT)),
    ("simulate_recurrence",
     lambda q: simulate_recurrence(RecoveryConfig(0.5, 2, 1.0), (q, 0.5)), (0.5,), (NONNEG,)),
    ("state_value", state_value, (3, 0.2, 1.0, 0.5), (COUNT, NONNEG, NONNEG, UNIT)),
    ("state_peak_plan", state_peak_plan, (3, 0.2, 1.0, 0.5), (COUNT, NONNEG, NONNEG, UNIT)),
    ("safe_count_fixed_lambda", lambda Q, lam: safe_count_fixed_lambda(Q, lam, P), (1.0, 0.5),
     (POS, UNIT)),
    ("horizon_capacity", horizon_capacity, (3, 2.0), (COUNT, NONNEG)),
    ("horizon_feasibility", lambda r, h, eps: horizon_feasibility(r, h, eps_thr=eps),
     (2.1, 2.0, 1e-12), (POS, NONNEG, NONNEG)),
    ("unequal_spacing_capacity", lambda tau, rho: unequal_spacing_capacity([tau, 1.0], rho),
     (0.5, 0.5), (NONNEG, POS)),
    ("capacity_report",
     lambda Q, n, lam, h, eps: capacity_report(P, Q, n, lam, h, eps_thr=eps),
     (0.7, 3, 0.5, 2.0, 1e-12), (POS, COUNT, UNIT, NONNEG, NONNEG)),
    ("HorizonFeasibility", lambda n: HorizonFeasibility(HorizonRegime.SAFE_WITH_N, n), (3,),
     (FREE,)),
    ("PeakPlan", lambda peak: PeakPlan((0.5,), (0.5,), peak, 1.0, 0.0), (0.5,), (FREE,)),
    ("CapacityReport", CapacityReport, (2.0, 2.0, 0.6, 1.0, 2, 3), (FREE,) * 6),
    ("PhaseGrid r_range", lambda lo, hi, count: PhaseGrid(r_range=(lo, hi, count)),
     (0.5, 3.0, 5), (NONNEG, POS, COUNT2)),
    ("PhaseGrid n_curves", lambda n: PhaseGrid(n_curves=(2, n)), (3,), (COUNT,)),
    ("panel_c_comparison",
     lambda r, n, h, points: panel_c_comparison(r, n, h, path_points=points),
     (2.1, 3, 2.0, 5), (POS, COUNT2, POS, COUNT2)),
    ("PanelC", lambda r: PanelC(r, 3, 2.0, 0.4, 2.0, (), (), (), (), (), ()), (2.1,), (FREE,)),
    ("ImpulseSchedule", lambda t, q: ImpulseSchedule(((t, q),)), (0.5, 0.3), (NONNEG, NONNEG)),
    ("dominance_tolerance", dominance_tolerance, (2.0, 0.1), (NONNEG, POS)),
    ("simulate_envelope",
     lambda T, step, a0: simulate_envelope(SCHEDULE, P, T, step, a0=a0), (2.0, 0.1, 0.0),
     (NONNEG, POS, NONNEG)),
    ("simulate_full", lambda S0, A0, T, step: simulate_full(SCHEDULE, P, S0, A0, T, step),
     (0.1, 0.0, 2.0, 0.1), (NONNEG, NONNEG, NONNEG, POS)),
    ("verify_envelope_dominance",
     lambda S0, T, step, a0: verify_envelope_dominance(SCHEDULE, P, S0, T, step, a0=a0),
     (0.1, 2.0, 0.1, 0.0), (NONNEG, NONNEG, POS, NONNEG)),
    ("Trajectory", _trajectory, (0,), (FREE,)),
    ("EnvelopeCheck", EnvelopeCheck, (-0.1, 0.2, 0.3, None, None), (FREE,) * 5),
]

HOSTILE_CALLS = [
    pytest.param(call, args[:i] + (value,) + args[i + 1:], domain,
                 id=f"{label}[{i}]={_shown(value):.12}")
    for label, call, args, domains in CASES
    for i, domain in enumerate(domains)
    for value in hostile_values(domain)
]


@pytest.mark.parametrize("label, call, args, domains", CASES, ids=[case[0] for case in CASES])
def test_valid_arguments_return(label, call, args, domains):
    assert len(args) == len(domains)
    call(*args)


@pytest.mark.parametrize("call, args, domain", HOSTILE_CALLS)
def test_hostile_argument_raises_a_package_error(call, args, domain):
    if domain == FREE:
        try:
            call(*args)
        except LeakyStageError:
            pass
    else:
        with pytest.raises(LeakyStageError):
            call(*args)


@pytest.mark.parametrize("call, args, domain", [
    pytest.param(*case.values, id=f"primed-{case.id}") for case in HOSTILE_CALLS
    if case.id.startswith(("simulate_full[", "verify_envelope_dominance["))
])
def test_hostile_argument_raises_with_a_live_full_path(call, args, domain):
    # simulate_full returns a live earlier result for the same inputs: it checks first
    primed = simulate_full(SCHEDULE, P, 0.1, 0.0, 2.0, 0.1)
    test_hostile_argument_raises_a_package_error(call, args, domain)
    assert primed is simulate_full(SCHEDULE, P, 0.1, 0.0, 2.0, 0.1)


def test_table_covers_every_numeric_public_callable():
    # the callables of __all__ that take no number, only records or arrays of them
    numberless = {"derive", "min_peak_plan", "feasibility_curves", "sawtooth_frontier",
                  "path_exposure", "balance_jump_residuals", "verify_balance_identity",
                  "verify_log_growth_bound"}
    callables = {name for name in leakystage.__all__
                 if callable(getattr(leakystage, name)) and not (
                     isinstance(getattr(leakystage, name), type)
                     and issubclass(getattr(leakystage, name), BaseException))}
    covered = {label.split()[0].split(".")[0] for label, *_ in CASES}
    assert callables - {"CountBound", "HorizonRegime"} - numberless == covered


@pytest.mark.parametrize("call", [
    lambda: horizon_capacity(2, 10**400),
    lambda: k_safe(10**400),
    lambda: RecoveryConfig(lam=0.5, n=3, Q=10**400),
    lambda: excess_exposure(3.0, 0),
    lambda: panel_c_comparison(path_points=3.5),
    lambda: k_safe(Decimal("3.5")),
    lambda: min_peak_plan(RecoveryConfig(0.5, 10**300, 1.0)),
    lambda: optimal_split(SplitProblem(1.0, 10**300, P)),
    lambda: optimal_split(SplitProblem(1e308, 10**300, P)),
    lambda: k_safe(10**5000),
    lambda: horizon_capacity(10**5000, 1.0),
], ids=["horizon_capacity", "k_safe", "RecoveryConfig", "excess_exposure", "panel_c",
        "k_safe-Decimal", "min_peak_plan", "optimal_split-zero-fill", "optimal_split-equal",
        "k_safe-5000-digits", "horizon_capacity-5000-digits"])
def test_former_raw_errors_name_the_argument(call):
    # each of these raised OverflowError, ZeroDivisionError, TypeError or ValueError
    with pytest.raises(LeakyStageError, match=r"\b(h|r|Q|n|path_points) must be"):
        call()


@pytest.mark.parametrize("call", [lambda: growth_pressure(10**5000, P),
                                  lambda: normalized_factor(10**5000, P)],
                         ids=["growth_pressure", "normalized_factor"])
def test_level_past_repr_digits_is_shown_by_length(call):
    # repr refuses integers past 4300 digits
    with pytest.raises(LeakyStageError, match=r"\(got <int with 5001 digits>\)"):
        call()


def test_exposure_batch_rejects_non_finite_sizes():
    # exposure_batch([nan, inf]) returned [0.0, nan], and bools passed as 0 and 1; a bad
    # size is named as exposure_table names it, where the text named no index
    for sizes, error in (([math.nan, math.inf], "sizes[0] must be finite and >= 0 (got nan)"),
                         ([0.5, math.nan], "sizes[1] must be finite and >= 0 (got nan)"),
                         ([math.inf], "sizes[0] must be finite and >= 0 (got inf)"),
                         ([-math.inf, 1.0], "sizes[0] must be finite and >= 0 (got -inf)"),
                         ([-0.5], "sizes[0] must be >= 0 (got -0.5)"),
                         ([[0.5, 0.1], [0.2, -0.5]], "sizes[1, 1] must be >= 0 (got -0.5)"),
                         (-0.5, "sizes must be >= 0 (got -0.5)")):
        with pytest.raises(LeakyStageError) as info:
            exposure_batch(sizes, P)
        assert str(info.value) == f"release size {error}"
        if np.ndim(sizes) == 1:
            with pytest.raises(LeakyStageError) as info:
                exposure_table(sizes, P)
            assert str(info.value) == f"release size {error}"
    for sizes in (np.array([True, False]), [0.2, True], [[0.2], [np.True_]]):
        with pytest.raises(LeakyStageError, match="release sizes must be finite and >= 0"):
            exposure_batch(sizes, P)
    assert exposure_batch([], P).shape == (0,)
    assert exposure_batch(np.zeros((0, 3)), P).shape == (0, 3)


def test_flat_sequences_of_sizes_show_their_bools():
    # a flat list or tuple is read by its own element types, with no object array; a bool
    # among numbers fails there as in a nested list
    for sizes in ([0.2, True], (0.2, np.False_), [1, 2, np.True_], [[0.2, 0.3], [True, 0.1]],
                  ((0.2,), (np.True_,))):
        with pytest.raises(LeakyStageError, match="release sizes must be finite and >= 0"):
            exposure_batch(sizes, P)
    assert exposure_batch((0.2, 1), P).tolist() == exposure_batch(np.array([0.2, 1.0]), P).tolist()


@pytest.mark.parametrize("bad", [math.nan, -0.5, math.inf])
def test_exposure_batch_checks_the_last_block(bad):
    # the range is checked block by block; a bad size past the first block still fails
    sizes = np.linspace(0.0, 1.0, 3 * _BLOCK + 7)
    sizes[-1] = bad
    with pytest.raises(LeakyStageError, match=rf"release size sizes\[{3 * _BLOCK + 6}\] must be "):
        exposure_batch(sizes, P)


@pytest.mark.parametrize("eps_thr", [EPS_THR, 1.7e308])
def test_exposure_batch_rejects_inf_beside_the_plateau(eps_thr):
    # inf is the only size above the plateau edge and its bracket is inf - inf = nan, so
    # neither the block minimum nor the output alone shows it
    with pytest.raises(LeakyStageError, match=r"release size sizes\[5\] must be finite and >= 0"):
        exposure_batch([0.0] * 5 + [math.inf], P, eps_thr=eps_thr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exposure_batch_names_an_overflowing_exposure():
    # returned inf with a numpy overflow warning, where exposure_closed_form raises
    with pytest.raises(LeakyStageError, match=r"release sizes\[0\] = 1e\+308 must be finite"):
        exposure_batch([1e308, 0.5], P)
    with pytest.raises(LeakyStageError, match="must be finite"):
        exposure_closed_form(1e308, P)
    sizes = np.full((2, 2 * _BLOCK), 0.5)
    sizes[1, -3:] = 1e308
    with pytest.raises(LeakyStageError, match=rf"release sizes\[1, {2 * _BLOCK - 3}\] = 1e\+308"):
        exposure_batch(sizes, P)
    # alpha / rho itself overflows: the plateau's 0 * inf is nan, the first inf is named
    with pytest.raises(LeakyStageError, match=r"release sizes\[1\] = 0.5 must be finite"):
        exposure_batch([0.0, 0.5], ModelParams(beta=0.6, mu=1.0, delta=1.8, rho=1e-310))


@pytest.mark.parametrize("call", [
    lambda: exposure_closed_form(Decimal("0.7"), P),
    lambda: k_safe(np.float32(3.5)),
    lambda: horizon_capacity(np.int64(3), 1.0),
], ids=["exposure-Decimal", "k_safe-float32", "horizon_capacity-int64"])
def test_only_ints_and_floats_are_numbers(call):
    # the Decimal ended in a raw TypeError, and k_safe returned a float32
    with pytest.raises(LeakyStageError, match=r"\b(q|r|n) must be (finite|an integer)"):
        call()


def test_numpy_float64_is_a_number():
    assert k_safe(np.float64(4.5)) == k_safe(4.5)
    assert horizon_capacity(3, np.float64(2.0)) == horizon_capacity(3, 2.0)
