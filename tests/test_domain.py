"""The numeric domain: every rate in [1e-30, 1e30], every other number in [0, 1e100].

Inside it no closed form leaves the float range (the derivations are in the docstrings
of ``exposure_closed_form``, ``overhead_optimal_count``, ``horizon_feasibility`` and
``recovery._target``), which the corner property checks; at its boundary a number past
a bound raises naming its field, in the library and in the CLI alike.
"""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakystage import (
    DimensionlessPoint,
    ImpulseSchedule,
    LeakyStageError,
    ModelParams,
    RecoveryConfig,
    SplitProblem,
    derive,
    excess_exposure,
    exposure_batch,
    exposure_closed_form,
    exposure_derivative,
    exposure_near_threshold,
    horizon_feasibility,
    min_exposure,
    min_peak_plan,
    minimal_safe_count,
    optimal_split,
    overhead_optimal_count,
    safe_count_fixed_lambda,
    simulate_envelope,
    simulate_full,
    state_peak_plan,
    state_value,
)
from leakystage.cli import main
from leakystage.exposure import _SERIES_SWITCH, exposure_table
from leakystage.phase import PhaseGrid, panel_c_comparison
from leakystage.recovery import HorizonRegime, horizon_capacity, simulate_recurrence
from strategies import MAX, RATE_MAX, RATE_MIN, corner_rate_sets, corner_tolerances

FIG = {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5}
P = ModelParams(**FIG)
#: The CLI runs' rates: at rho = 0.2 the bound of K keeps k = K rho / gamma within its own
CLI_PARAMS = dict(FIG, rho=0.2)
BELOW_ONE = math.nextafter(1.0, 0.0)


def _finite(*values) -> bool:
    return all(math.isfinite(value) for value in values)


def _sizes(low: float):
    """Sizes log-uniform in [low, MAX]."""
    return st.floats(math.log(low), math.log(MAX)).map(lambda x: min(max(math.exp(x), low), MAX))


@settings(max_examples=300, deadline=None)
@given(params=corner_rate_sets, eps_thr=corner_tolerances, data=st.data())
def test_closed_forms_stay_finite_at_the_corners(params, eps_thr, data):
    d = derive(params)
    edge = d.delta_c + eps_thr
    sizes = [q for q in (0.0, d.delta_c, edge, math.nextafter(edge, math.inf),
                         d.delta_c * (1.0 + _SERIES_SWITCH), MAX) if q <= MAX]
    sizes += data.draw(st.lists(_sizes(d.delta_c), max_size=4))

    # the exposure: every field finite, and zero exactly on the plateau, on every path
    rows = exposure_table(sizes, params, eps_thr=eps_thr)
    batch = exposure_batch(sizes, params, eps_thr=eps_thr)
    for (q, value, derivative, duration), in_batch in zip(rows, batch.tolist()):
        exposure = exposure_closed_form(q, params, eps_thr=eps_thr)  # checks its invariants
        assert [exposure.value, exposure.active_duration] == [value, duration]
        assert exposure_derivative(q, params, eps_thr=eps_thr) == derivative
        assert _finite(value, derivative, duration, in_batch)
        assert (value > 0.0) == (duration > 0.0) == (in_batch > 0.0) == (q > edge)
    assert _finite(exposure_near_threshold(MAX, params))

    # the split: the exposure is zero exactly when the split is safe
    for Q in (MAX, data.draw(_sizes(d.delta_c))):
        for n in (1, 2, 3):
            result = optimal_split(SplitProblem(Q, n, params), eps_thr=eps_thr)
            assert _finite(result.total_exposure, *result.releases)
            assert result.is_safe == (result.total_exposure == 0.0)
        assert isinstance(minimal_safe_count(Q, params), int)
        assert isinstance(safe_count_fixed_lambda(Q, BELOW_ONE, params), int)

    # the overhead cost n k + excess(r, n), at the optimum and at the safe count ceil r
    r = data.draw(st.sampled_from([MAX, 1.0]) | _sizes(1e-300))
    k = data.draw(st.sampled_from([0.0, MAX]) | _sizes(1e-300))
    result = overhead_optimal_count(r, k)
    n = max(result.ties[-1], math.ceil(r))
    assert _finite(result.cost, n * k + excess_exposure(r, n))

    # the horizon count, a few ulps below the frontier 1 + h, where it is largest
    h = data.draw(st.sampled_from([MAX, 1.0]) | _sizes(1e-300))
    r = 1.0 + h
    for _ in range(data.draw(st.integers(1, 3))):
        r = math.nextafter(r, 0.0)
    verdict = horizon_feasibility(r, h, eps_thr=0.0 if eps_thr == MAX else eps_thr)
    assert verdict.regime is not HorizonRegime.SAFE_WITH_N or verdict.n >= 2

    # the peak plans, from an empty start and from a level at the bound
    lam = data.draw(st.sampled_from([0.0, 0.5, BELOW_ONE]))
    for plan in (min_peak_plan(RecoveryConfig(lam, 5, MAX)), state_peak_plan(5, MAX, MAX, lam),
                 state_peak_plan(5, MAX, 0.0, lam)):
        assert _finite(plan.peak, *plan.releases, *plan.post_levels, plan.capacity_residual)
        assert max(plan.post_levels) == plan.peak
    assert state_value(5, MAX, MAX, lam) == state_peak_plan(5, MAX, MAX, lam).peak


def _rates(**rates):
    return ModelParams(**{**FIG, **rates})


def _document(command, block, **params):
    """A config document of the CLI's rates with ``params`` replaced: at rho = 0.2 the
    bound of K keeps k = K rho / gamma within its own."""
    return {"params": {**FIG, "rho": 0.2, **params}, command: block}


#: One row per bounded field: the name its error gives, the library call of a value, the
#: bound, and, where a config field takes the value, the CLI document of a value and the
#: field as its error names it.  Each library call and CLI run passes at the bound.
_FIELDS = [
    ("beta", lambda v: _rates(beta=v), RATE_MIN,
     (lambda v: _document("exposure", {"q": [0.5]}, beta=v), "'beta'")),
    ("rho", lambda v: _rates(rho=v), RATE_MIN,
     (lambda v: _document("exposure", {"q": [0.5]}, rho=v), "'rho'")),
    ("rho", lambda v: _rates(rho=v), RATE_MAX,
     (lambda v: _document("exposure", {"q": [0.5]}, rho=v), "'rho'")),
    ("delta", lambda v: _rates(delta=v), RATE_MAX,
     (lambda v: _document("exposure", {"q": [0.5]}, delta=v), "'delta'")),
    ("tolerance eps_thr", lambda v: exposure_closed_form(0.5, P, eps_thr=v), MAX,
     (lambda v: {**_document("exposure", {"q": [0.5]}), "eps_thr": v}, "'eps_thr'")),
    ("release size q", lambda v: exposure_closed_form(v, P), MAX,
     (lambda v: _document("exposure", {"q": [0.5, v]}), "q[1]")),
    ("total load Q", lambda v: min_exposure(v, 2, P), MAX,
     (lambda v: _document("split", {"Q": v, "n": 2}), "'Q'")),
    ("total load Q", lambda v: RecoveryConfig(0.5, 3, v), MAX,
     (lambda v: _document("peak", {"Q": v, "n": 3, "lam": 0.5}), "'Q'")),
    ("event 0 size", lambda v: ImpulseSchedule(((0.0, v),)), MAX,
     (lambda v: _document("simulate", {"schedule": [[0.0, v]], "S0": 0.0, "T": 1.0,
                                       "step": 0.5}), "schedule[0] size")),
    ("S0", lambda v: simulate_full(ImpulseSchedule(()), P, v, 0.0, 1.0, 0.5), MAX,
     (lambda v: _document("simulate", {"schedule": [], "S0": v, "T": 1.0, "step": 0.5}),
      "'S0'")),
    ("horizon T", lambda v: simulate_envelope(ImpulseSchedule(()), P, v, MAX), MAX,
     (lambda v: _document("horizon", {"Q": 0.7, "T": v}), "'T'")),
    ("K", lambda v: DimensionlessPoint.from_dimensional(_rates(rho=0.2), K=v), MAX,
     (lambda v: _document("overhead", {"r": 3.0, "K": v}), "'K'")),
    ("dimensionless load r", lambda v: overhead_optimal_count(v, 0.5), MAX,
     (lambda v: _document("horizon", {"r": v, "h": MAX}), "'r'")),
    ("horizon h", lambda v: horizon_feasibility(2.0, v), MAX,
     (lambda v: _document("horizon", {"r": 2.0, "h": v}), "'h'")),
    ("dimensionless overhead k", lambda v: overhead_optimal_count(3.0, v), MAX,
     (lambda v: _document("overhead", {"r": 3.0, "k": v}), "'k'")),
    ("event 0 time", lambda v: ImpulseSchedule(((v, 0.5),)), MAX,
     (lambda v: _document("simulate", {"schedule": [[v, 0.0]], "S0": 0.0, "T": MAX,
                                       "step": MAX}), "schedule[0] time")),
    ("step size", lambda v: simulate_envelope(ImpulseSchedule(()), P, 1.0, v), MAX,
     (lambda v: _document("simulate", {"schedule": [], "S0": 0.0, "T": 1.0, "step": v}),
      "'step'")),
    ("inter-release time tau", lambda v: RecoveryConfig.from_interval(0.5, v, 3, 1.0), MAX,
     (lambda v: _document("peak", {"Q": 1.0, "n": 3, "tau": v}), "'tau'")),
    ("r_range max", lambda v: PhaseGrid(r_range=(1.02, v, 2)), MAX,
     (lambda v: _document("phase", {"panel": "b", "r_range": [1.02, v, 2]}), "'r_range' max")),
    ("h_range max", lambda v: PhaseGrid(h_range=(0.0, v, 2)), MAX,
     (lambda v: _document("phase", {"panel": "a", "h_range": [0.0, v, 2]}), "'h_range' max")),
    ("k_range max", lambda v: PhaseGrid(k_range=(0.0, v, 2)), MAX,
     (lambda v: _document("phase", {"panel": "b", "k_range": [0.0, v, 2]}), "'k_range' max")),
    ("relative overshoot epsilon", lambda v: exposure_near_threshold(v, P), MAX, None),
    ("current level a", lambda v: state_value(3, v, 1.0, 0.5), MAX, None),
    ("remaining load Q", lambda v: state_value(3, 1.0, v, 0.5), MAX, None),
    ("initial level a0", lambda v: RecoveryConfig(0.5, 3, 1.0, a0=v), MAX, None),
    ("A0", lambda v: simulate_full(ImpulseSchedule(()), P, 0.0, v, 1.0, 0.5), MAX, None),
    ("release 1", lambda v: simulate_recurrence(RecoveryConfig(0.5, 1, 1.0), [v]), MAX, None),
    ("r", lambda v: DimensionlessPoint(v, 1.0, 1.0), MAX, None),
]
_IDS = [f"{name}-{'min' if bound < 1.0 else 'max'}" for name, _, bound, _ in _FIELDS]

#: Further entry points of fields above, each with its own check of the bound, as rows of
#: the same kind, named by the entry point and the field.
_ENTRIES = {
    "panel_c_comparison-h": ("horizon h", lambda v: panel_c_comparison(2.1, 3, v), MAX,
                             (lambda v: _document("phase", {"panel": "c", "panel_c": {"h": v}}),
                              "'h'")),
    "panel_c_comparison-r": ("dimensionless load r", lambda v: panel_c_comparison(v, 3, 2.0), MAX,
                             (lambda v: _document("phase", {"panel": "c", "panel_c": {"r": v}}),
                              "'r'")),
    "simulate_envelope-a0": ("initial level a0", lambda v: simulate_envelope(
        ImpulseSchedule(()), P, 1.0, 0.5, a0=v), MAX, None),
    "horizon_capacity-h": ("horizon h", lambda v: horizon_capacity(3, v), MAX, None),
    "excess_exposure-r": ("dimensionless load r", lambda v: excess_exposure(v, 3), MAX, None),
    "horizon_feasibility-eps_thr": ("tolerance eps_thr",
                                    lambda v: horizon_feasibility(2.0, 1.0, eps_thr=v), MAX, None),
    "optimal_split-eps_thr": ("tolerance eps_thr", lambda v: optimal_split(
        SplitProblem(1.0, 2, P), eps_thr=v), MAX, None),
    "minimal_safe_count-Q": ("total load Q", lambda v: minimal_safe_count(v, P), MAX, None),
}
_ROWS, _ROW_IDS = _FIELDS + list(_ENTRIES.values()), _IDS + list(_ENTRIES)


def _past(bound: float) -> float:
    """The float one past ``bound``, out of the domain."""
    return math.nextafter(bound, 0.0 if bound < 1.0 else math.inf)


@pytest.mark.parametrize("name, call, bound, cli", _ROWS, ids=_ROW_IDS)
def test_library_names_a_field_past_its_bound(name, call, bound, cli):
    call(bound)
    with pytest.raises(LeakyStageError) as info:
        call(_past(bound))
    limits = f">= {RATE_MIN} and <= {RATE_MAX}" if bound in (RATE_MIN, RATE_MAX) else f"<= {MAX}"
    assert str(info.value).startswith(f"{name} must be ")
    assert limits in str(info.value) and repr(_past(bound)) in str(info.value)


@pytest.mark.parametrize("name, call, bound, cli", [row for row in _ROWS if row[3]],
                         ids=[i for i, row in zip(_ROW_IDS, _ROWS) if row[3]])
def test_cli_names_a_field_past_its_bound(tmp_path, capsys, name, call, bound, cli):
    document, field = cli
    path = tmp_path / "run.json"
    for value, code in ((bound, 0), (_past(bound), 1)):
        path.write_text(json.dumps(document(value)), encoding="utf-8")
        command = next(key for key in document(value) if key not in ("params", "eps_thr"))
        assert main([command, "--config", str(path), "--no-meta-time"]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
    assert err.startswith("error: ") and field in err and f"(got {_past(bound)!r})" in err
