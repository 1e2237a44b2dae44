import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leakystage import (
    DerivedConstants,
    DimensionlessPoint,
    HorizonRegime,
    ModelParams,
    ParameterError,
    SplitProblem,
    derive,
    growth_pressure,
    horizon_capacity,
    horizon_feasibility,
    min_exposure,
    normalized_factor,
    optimal_split,
)
from leakystage.cli import parse_config, run
from leakystage.model import _MAX, EPS_THR, _shown, guarded_ceil
from util import random_params


class TestDerive:
    def test_figure_parameters(self, figure_params):
        d = derive(figure_params)
        assert d.alpha == pytest.approx(1.2, abs=1e-15)
        assert d.gamma == pytest.approx(0.4, abs=1e-15)
        assert d.delta_c == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_small_beta_limit(self):
        # beta -> 0 with mu=1, delta=2 drives delta_c to 1/2
        d = derive(ModelParams(beta=1e-9, mu=1.0, delta=2.0, rho=1.0))
        assert d.delta_c == pytest.approx(0.5, abs=1e-8)

    def test_hand_ratio(self):
        # 0.4 / 0.8
        d = derive(ModelParams(beta=0.5, mu=0.9, delta=1.3, rho=1.0))
        assert d.delta_c == pytest.approx(0.5, abs=1e-15)

    def test_repeated_calls_bit_identical(self):
        p = ModelParams(beta=0.37, mu=0.91, delta=1.55, rho=0.77)
        first, second = derive(p), derive(p)
        assert (first.alpha, first.gamma, first.delta_c) == (
            second.alpha,
            second.gamma,
            second.delta_c,
        )

    def test_computed_once_per_params_object(self):
        p = ModelParams(beta=0.37, mu=0.91, delta=1.55, rho=0.77)
        assert derive(p) is derive(p)
        assert derive(ModelParams(0.37, 0.91, 1.55, 0.77)) is not derive(p)

    @pytest.mark.parametrize("rates", [
        (0.37, 0.91, 1.55, 0.77), (1, 2, 5, 3),
        tuple(map(np.float64, (0.37, 0.91, 1.55, 0.77)))], ids=["float", "int", "float64"])
    def test_kept_record_equals_a_fresh_computation(self, rates):
        beta, mu, delta, _ = rates
        fresh = DerivedConstants(delta - beta, mu - beta, (mu - beta) / (delta - beta))
        p = ModelParams(*rates)
        for d in (derive(p), derive(p)):
            assert d == fresh and repr(d) == repr(fresh)
            assert all(type(a) is type(b) for a, b in zip(d._values(), fresh._values()))

    def test_failed_checks_keep_nothing_and_raise_again(self):
        # every rate lies in the domain, yet mu - beta and delta - beta are both ties that
        # round to even, 1.5: gamma == alpha, so delta_c = 1, which DerivedConstants rejects
        p = ModelParams(beta=2**-53, mu=1.5, delta=1.5 + 2**-52, rho=1.0)
        for _ in range(2):
            with pytest.raises(ParameterError, match="delta_c"):
                derive(p)

    def test_params_unaffected_by_the_kept_record(self):
        p, q = ModelParams(0.6, 1.0, 1.8, 0.5), ModelParams(0.6, 1.0, 1.8, 0.5)
        derive(p)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert p._values() == q._values() == (0.6, 1.0, 1.8, 0.5)
        assert {p: 1}[q] == 1
        for other in (copy.deepcopy(p), pickle.loads(pickle.dumps(p)), copy.copy(p)):
            assert other == p and hash(other) == hash(p) and repr(other) == repr(p)
            assert derive(other) == derive(p)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.beta = 0.5
        assert p == q

    def test_product_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = derive(random_params(rng))
            assert abs(d.delta_c * d.alpha - d.gamma) <= 1e-14 * max(1.0, d.gamma)
            assert 0.0 < d.delta_c < 1.0


class TestGrowthPressure:
    def test_zero_at_threshold(self, figure_params):
        d = derive(figure_params)
        assert growth_pressure(d.delta_c, figure_params) == pytest.approx(0.0, abs=1e-15)

    def test_figure_value_at_one(self, figure_params):
        # -0.4 + 1.2 * 1
        assert growth_pressure(1.0, figure_params) == pytest.approx(0.8, abs=1e-12)

    def test_negative_at_empty_reservoir(self, figure_params):
        assert growth_pressure(0.0, figure_params) == figure_params.beta - figure_params.mu
        assert growth_pressure(0.0, figure_params) < 0.0

    def test_sign_matches_threshold_side(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            p = random_params(rng)
            d = derive(p)
            a = rng.uniform(-1.0, 3.0)
            if abs(a - d.delta_c) < 1e-9:
                continue
            assert np.sign(growth_pressure(a, p)) == np.sign(a - d.delta_c)

    def test_vectorized(self, figure_params):
        a = np.array([0.0, 1.0 / 3.0, 1.0])
        g = growth_pressure(a, figure_params)
        assert g.shape == (3,)
        assert g[0] < 0.0 < g[2]


class TestNormalizedFactor:
    def test_unit_at_threshold(self, figure_params):
        d = derive(figure_params)
        assert normalized_factor(d.delta_c, figure_params) == pytest.approx(1.0, abs=1e-15)

    def test_empty_reservoir(self, figure_params):
        assert normalized_factor(0.0, figure_params) == pytest.approx(
            figure_params.beta / figure_params.mu, abs=1e-15
        )

    def test_figure_value(self, figure_params):
        # (1/3) * 0.6 + (2/3) * 1.8
        assert normalized_factor(2.0 / 3.0, figure_params) == pytest.approx(1.4, abs=1e-12)

    def test_growth_identity_sweep(self):
        # g(A) = mu * (R(A) - 1) over random parameters and levels in [-1, 3]
        rng = np.random.default_rng(19)
        for _ in range(10_000):
            p = random_params(rng)
            a = rng.uniform(-1.0, 3.0)
            g = growth_pressure(a, p)
            identity = p.mu * (normalized_factor(a, p) - 1.0)
            assert abs(g - identity) <= 1e-12 * max(1.0, abs(g))


#: levels past and near the float range, both zeros, NaN and a subnormal
EXTREME_LEVELS = (1.7e308, -1.7e308, 1e308, math.inf, -math.inf, math.nan, 0.0, -0.0, 0.5,
                  5e-324)


@pytest.mark.parametrize("function", [growth_pressure, normalized_factor],
                         ids=["growth_pressure", "normalized_factor"])
def test_array_equals_the_scalars_past_the_float_range(figure_params, function):
    # the suite's filter turns a numpy RuntimeWarning into an error
    values = function(np.array(EXTREME_LEVELS), figure_params)
    expected = np.array([function(x, figure_params) for x in EXTREME_LEVELS])
    assert values.dtype == expected.dtype and values.tobytes() == expected.tobytes()
    top = function(np.array([1.7e308, -1.7e308]), figure_params)
    assert top.tolist() == [math.inf, -math.inf]


class TestValidation:
    @pytest.mark.parametrize("field", ["beta", "mu", "delta", "rho"])
    def test_nonpositive_rate_rejected(self, field):
        values = {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5}
        values[field] = 0.0
        with pytest.raises(ParameterError, match=field):
            ModelParams(**values)

    def test_beta_above_mu_rejected(self):
        with pytest.raises(ParameterError, match="beta < mu"):
            ModelParams(beta=1.2, mu=1.0, delta=1.8, rho=0.5)

    def test_mu_above_delta_rejected(self):
        with pytest.raises(ParameterError, match="mu < delta"):
            ModelParams(beta=0.6, mu=1.9, delta=1.8, rho=0.5)

    def test_nan_rejected(self):
        with pytest.raises(ParameterError, match="rho"):
            ModelParams(beta=0.6, mu=1.0, delta=1.8, rho=float("nan"))

    def test_integer_beyond_float_range_rejected(self):
        # math.isfinite raises OverflowError on such an int; the field must be named instead
        with pytest.raises(ParameterError, match="beta"):
            ModelParams(10**400, 1.0, 1.8, 0.5)

    def test_integer_past_repr_digits_is_shown_by_length(self):
        # repr refuses integers past 4300 digits
        with pytest.raises(ParameterError, match=r"beta must be .* \(got <int with 5001 digits>\)"):
            ModelParams(10**5000, 1.0, 1.8, 0.5)

    @pytest.mark.parametrize("value, shown", [
        (10**4300 - 1, None), (10**4300, "<int with 4301 digits>"),
        (-(10**5000), "<int with 5001 digits>"), (10**5000 - 1, "<int with 5000 digits>"),
        ([10**5000], "<list>"), (0.5, "0.5"), ("1", "'1'")],
        ids=["4300-digits", "4301-digits", "negative", "5000-digits", "list", "float", "str"])
    def test_shown_is_repr_or_the_digit_count(self, value, shown):
        assert _shown(value) == (repr(value) if shown is None else shown)

    def test_derived_constants_guarded(self):
        with pytest.raises(ParameterError):
            DerivedConstants(alpha=1.0, gamma=0.5, delta_c=1.5)


class TestDimensionlessPoint:
    def test_from_dimensional(self, figure_params):
        point = DimensionlessPoint.from_dimensional(figure_params, Q=0.7, T=4.0, K=0.8)
        assert point.r == pytest.approx(2.1, abs=1e-12)
        assert point.h == pytest.approx(2.0, abs=1e-15)
        assert point.k == pytest.approx(0.8 * 0.5 / 0.4, abs=1e-12)

    @pytest.mark.parametrize("given, message", [
        ({"Q": 1e308}, r"^Q must be >= 0 and <= 1e\+100 \(got 1e\+308\)$"),
        ({"T": 1e308}, r"^T must be >= 0 and <= 1e\+100 \(got 1e\+308\)$"),
        ({"K": 1e308}, r"^K must be >= 0 and <= 1e\+100 \(got 1e\+308\)$"),
        # inputs in the domain whose coordinate passes its bound name the coordinate
        ({"Q": 1e100}, r"^r must be >= 0 and <= 1e\+100 \(got 3\.0000000000000002e\+100\)$"),
        ({"T": 1e100}, r"^h must be >= 0 and <= 1e\+100 \(got 4e\+100\)$"),
        ({"K": 1e100}, r"^k must be >= 0 and <= 1e\+100 \(got 1e\+101\)$"),
    ], ids=["Q", "T", "K", "r", "h", "k"])
    def test_input_or_coordinate_past_the_bound_is_named(self, given, message):
        with pytest.raises(ParameterError, match=message):
            DimensionlessPoint.from_dimensional(ModelParams(0.6, 1.0, 1.8, 4.0), **given)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError, match="r"):
            DimensionlessPoint(r=-0.1, h=0.0, k=0.0)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ParameterError, match="r must be finite"):
            DimensionlessPoint(r=10**400, h=0, k=0)

    @pytest.mark.parametrize("value", ["1", None, 1j, [1.0]])
    def test_non_number_rejected(self, value):
        with pytest.raises(ParameterError, match="h must be finite"):
            DimensionlessPoint(r=0, h=value, k=0)
        with pytest.raises(ParameterError, match="r must be finite"):
            DimensionlessPoint(r=value, h=0, k=0)


def _uncapped_ceil(x: float) -> int:
    """``guarded_ceil`` before its guard was capped: the guard grew as 1e-12 |x|."""
    return math.ceil(x - 1e-12 * max(1.0, abs(x)))


#: Finite doubles of every magnitude, and integers up to 1e18 plus a fraction,
#: with fractions near the 1e-3 cap and near the 1e-12 relative guard.
_CEIL_INPUTS = st.floats(-1e300, 1e300) | st.builds(
    lambda n, f: n + f,
    st.integers(-10**18, 10**18),
    st.floats(0.0, 1.0) | st.sampled_from([1e-3, 1.001e-3, 1e-12, 1e-9, 0.5]),
)


class TestGuardedCeil:
    @given(_CEIL_INPUTS)
    def test_within_one_below_the_ceiling(self, x):
        assert guarded_ceil(x) in (math.ceil(x) - 1, math.ceil(x))

    @given(_CEIL_INPUTS)
    def test_ceiling_when_clear_of_the_integer_below(self, x):
        # x - guard rounds to the nearest double, so a fraction within half
        # an ulp of the 1e-3 cap can still round onto the integer below
        if x - math.floor(x) > 1e-3 + math.ulp(x):
            assert guarded_ceil(x) == math.ceil(x)

    @given(st.floats(-1e9, 1e9) | st.builds(lambda n, f: n + f, st.integers(-10**9, 10**9),
                                             st.floats(0.0, 1.0)))
    def test_unchanged_up_to_1e9(self, x):
        if abs(x) <= 1e9:
            assert guarded_ceil(x) == _uncapped_ceil(x)

    @pytest.mark.parametrize("x, expected", [
        (1e13 + 0.5, 10**13 + 1),  # the uncapped guard gave 9999999999991
        (1e15 + 0.5, 10**15 + 1),  # and 999999999999001
        (3.0 + 1e-13, 3),          # float error above an integer is still forgiven
        (1e9 + 0.25, 10**9 + 1),
    ])
    def test_large_ratios_keep_their_ceiling(self, x, expected):
        assert guarded_ceil(x) == expected


FIG = {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5}

#: Levels log-uniform in [1, 1e100]
_LEVELS = st.floats(0.0, 100.0).map(lambda x: 10.0 ** x)


def _about(level: float) -> list[float]:
    """``level`` and the floats one to four ulps below and above it, those within the
    domain's bound."""
    values, below, above = [level], level, level
    for _ in range(4):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        values += [below, above]
    return [value for value in values if value <= _MAX]


class TestThresholdBand:
    """A value within four ulps of a level counts as at the level, at every level: the
    band is eps_thr * max(1, level) to each side, relative above 1, where an ulp stays
    narrower than it.  With an absolute 1e-12, an ulp passed the band from 8192 on."""

    @settings(max_examples=200, deadline=None)
    @given(level=_LEVELS)
    @example(level=1000001.0)  # h = 1e6: an ulp below and above 1 + h are on the frontier
    def test_load_at_the_horizon_frontier_is_supremal(self, level):
        h = level - 1.0
        assume(h > 2.0 * EPS_THR)  # closer to 1, the one-release band about 1 comes first
        for r in _about(1.0 + h):
            assert horizon_feasibility(r, h).regime is HorizonRegime.SUPREMAL_BOUNDARY, r

    @settings(max_examples=200, deadline=None)
    @given(level=_LEVELS)
    @example(level=20000.0)  # 60000 releases: one ulp above 60000 delta_c = 20000 is safe
    def test_load_at_the_split_capacity_is_safe(self, level):
        params = ModelParams(**FIG)
        delta_c = derive(params).delta_c
        n = max(1, round(level / delta_c))
        for Q in _about(n * delta_c):
            assert min_exposure(Q, n, params) == 0.0, Q
            if n <= 2**16:  # a split small enough to allocate: the equal one, and safe
                result = optimal_split(SplitProblem(Q, n, params))
                assert result.unique_minimizer and result.is_safe, Q
                assert result.total_exposure == 0.0

    @settings(max_examples=100, deadline=None)
    @given(level=_LEVELS)
    def test_load_at_a_horizon_capacity_is_covered(self, level):
        # B_n(h) = level at h = -m log1p(-(level - 1) / m), m = n - 1 = 16 level + 1
        n = int(16.0 * level) + 2
        h = -(n - 1) * math.log1p(-(level - 1.0) / (n - 1))
        assume(h <= _MAX)
        capacity = horizon_capacity(n, h)
        for r in _about(capacity):
            document = {"params": FIG, "horizon": {"r": r, "h": h, "n_list": [n]}}
            [row] = run(parse_config(document)).payload["rows"]
            assert row[1] == capacity and row[3] is True, r
