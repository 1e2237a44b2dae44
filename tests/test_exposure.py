import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakystage import (
    EPS_THR,
    LeakyStageError,
    ModelParams,
    derive,
    exposure_batch,
    exposure_closed_form,
    exposure_derivative,
    exposure_near_threshold,
)
from leakystage.cli import parse_config, run
from leakystage.exposure import _BLOCK, _SERIES_SWITCH, _onset, exposure_table
from strategies import corner_rate_sets, corner_tolerances, rate_sets
from util import (exposure_batch_masked, exposure_quadrature, exposure_spectral_form,
                  exposure_table_loop, random_params)


class TestClosedForm:
    def test_zero_plateau_is_exact(self, figure_params):
        d = derive(figure_params)
        for q in (0.0, 0.1, d.delta_c / 2, d.delta_c):
            value = exposure_closed_form(q, figure_params)
            assert value.value == 0.0
            assert value.active_duration == 0.0

    @pytest.mark.parametrize("overshoot", [1e-8, 1e-6, 5e-5])
    def test_active_duration_near_threshold_matches_mpmath(self, figure_params, overshoot):
        # q - delta_c is exact this close to the threshold; forming q/delta_c - 1
        # first would round the overshoot and lose about 1e-16/overshoot relative
        mpmath = pytest.importorskip("mpmath")
        d = derive(figure_params)
        q = d.delta_c * (1.0 + overshoot)
        duration = exposure_closed_form(q, figure_params).active_duration
        with mpmath.workdps(50):
            exact = mpmath.log(mpmath.mpf(q) / mpmath.mpf(d.delta_c)) / figure_params.rho
            error = abs(mpmath.mpf(duration) - exact) / exact
        assert error <= 1e-15

    def test_figure_value(self, figure_params):
        # (1.2 / 0.5) * (2/3 - 1/3 - (1/3) ln 2)
        expected = 2.4 * (2.0 / 3.0 - 1.0 / 3.0 - math.log(2.0) / 3.0)
        got = exposure_closed_form(2.0 / 3.0, figure_params)
        assert got.value == pytest.approx(expected, rel=1e-14)
        # active window closes after ln(2) / rho
        assert got.active_duration == pytest.approx(math.log(2.0) / 0.5, rel=1e-14)

    def test_negative_release_rejected(self, figure_params):
        with pytest.raises(LeakyStageError):
            exposure_closed_form(-0.1, figure_params)

    def test_monotone_in_release(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = random_params(rng)
            d = derive(p)
            q1, q2 = sorted(rng.uniform(0.0, 5.0 * d.delta_c, 2))
            assert (
                exposure_closed_form(q1, p).value <= exposure_closed_form(q2, p).value
            )

    def test_convexity(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = random_params(rng)
            d = derive(p)
            q1, q2 = rng.uniform(0.0, 5.0 * d.delta_c, 2)
            theta = rng.uniform()
            mixed = exposure_closed_form(theta * q1 + (1 - theta) * q2, p).value
            bound = (
                theta * exposure_closed_form(q1, p).value
                + (1 - theta) * exposure_closed_form(q2, p).value
            )
            assert mixed <= bound + 1e-12

    def test_large_release_expansion(self):
        # equivalent form alpha q / rho - gamma/rho log(q/delta_c) - gamma/rho
        rng = np.random.default_rng(9)
        for _ in range(300):
            p = random_params(rng)
            d = derive(p)
            q = d.delta_c * rng.uniform(1.0 + 1e-6, 100.0)
            expansion = (
                d.alpha * q / p.rho
                - (d.gamma / p.rho) * math.log(q / d.delta_c)
                - d.gamma / p.rho
            )
            value = exposure_closed_form(q, p).value
            assert abs(value - expansion) <= 1e-12 * max(1.0, abs(value))

    def test_batch_matches_scalar(self, figure_params):
        qs = np.linspace(0.0, 2.0, 101)
        batch = exposure_batch(qs, figure_params)
        for q, value in zip(qs, batch):
            assert value == exposure_closed_form(float(q), figure_params).value

    @settings(max_examples=300, deadline=None)
    @given(params=rate_sets, log_overshoots=st.lists(st.floats(-12.0, 2.0), min_size=1, max_size=8))
    def test_batch_matches_scalar_across_onset(self, params, log_overshoots):
        d = derive(params)
        qs = d.delta_c * (1.0 + 10.0 ** np.array(log_overshoots))
        batch = exposure_batch(qs, params)
        for q, value in zip(qs, batch):
            scalar = exposure_closed_form(float(q), params)
            assert (value == 0.0) == (scalar.active_duration == 0.0)
            assert abs(value - scalar.value) <= 1e-12 * scalar.value


class TestOnsetSeries:
    """``_onset`` is one body for floats and arrays: each element gets its float's bits."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, _SERIES_SWITCH), min_size=1, max_size=64))
    @example([0.0, 5e-324, _SERIES_SWITCH])
    def test_array_matches_each_scalar(self, xs):
        scalars = np.array([_onset(x) for x in xs])
        assert _onset(np.array(xs)).tobytes() == scalars.tobytes()
        numpy_scalars = [_onset(np.float64(x)) for x in xs]
        assert all(type(value) is np.float64 for value in numpy_scalars)
        assert np.array(numpy_scalars).tobytes() == scalars.tobytes()


class TestOnsetAgainstMpmath:
    """``_onset`` is the series of ``(x - log1p(x)) / x**2`` on both sides of 0: the exposure
    bracket takes ``x >= 0``, the horizon count's capacity deficit ``x < 0``."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-_SERIES_SWITCH, _SERIES_SWITCH).filter(lambda x: x != 0.0))
    @example(-_SERIES_SWITCH)
    @example(-5e-324)
    @example(_SERIES_SWITCH)
    def test_within_one_eps(self, x):
        mpmath = pytest.importorskip("mpmath")
        # x - log1p(x) cancels to about x**2 / 2, so the reference keeps twice x's digits more
        with mpmath.workdps(50 + 2 * max(0, -math.floor(math.log10(abs(x))))):
            X = mpmath.mpf(x)
            exact = (X - mpmath.log1p(X)) / (X * X)
            assert abs(mpmath.mpf(_onset(x)) - exact) <= 2.0**-52 * exact


class TestBlockedBatch:
    """``exposure_batch`` against the masked whole-array kernel (tests/util.py), bit for bit."""

    @staticmethod
    def _same_bits(q, params, **kwargs):
        got = exposure_batch(q, params, **kwargs)
        expected = exposure_batch_masked(q, params, **kwargs)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_block_edges(self, figure_params, size):
        # plateau, onset and log-form entries in every block, then, sorted, whole
        # blocks of each
        d = derive(figure_params)
        q = np.random.default_rng(size).uniform(0.0, 3.0 * d.delta_c, size)
        self._same_bits(q, figure_params)
        self._same_bits(np.sort(q), figure_params)
        self._same_bits(np.sort(q)[::-1], figure_params)

    def test_layouts(self, figure_params):
        q = np.linspace(0.0, 1.5, 3 * 1001).reshape(3, 1001)
        for sizes in (np.float64(0.5), np.array(0.1), q, q.T, np.asfortranarray(q),
                      q.reshape(-1)[::3], q.reshape(-1)[::-1], q[:, ::-2],
                      np.arange(4).reshape(2, 2),
                      [0.2, 0.4, 1.0], [[1, 2], [3, 0]], 1, np.zeros((0, 3)), []):
            self._same_bits(sizes, figure_params)
            assert exposure_batch(sizes, figure_params).flags.c_contiguous

    @pytest.mark.parametrize("eps_thr", [0.0, 1e-12, 1e-6, 0.1])
    def test_ulp_steps_across_the_edges(self, figure_params, eps_thr):
        # 64 sizes an ulp apart on each side of the plateau edge and of the series switch
        d = derive(figure_params)
        sizes = []
        for edge in (d.delta_c + eps_thr, d.delta_c * (1.0 + _SERIES_SWITCH)):
            down, up = [edge], [edge]
            for _ in range(64):
                down.append(math.nextafter(down[-1], 0.0))
                up.append(math.nextafter(up[-1], math.inf))
            sizes += down[::-1] + up[1:]
        self._same_bits(np.array(sizes), figure_params, eps_thr=eps_thr)
        self._same_bits(np.array(sizes[64:]), figure_params, eps_thr=eps_thr)  # from the edge
        # the table's plateau ends where the oracle's does: the threshold band about
        # delta_c < 1 is eps_thr wide, so its top is delta_c + eps_thr rounded
        rows = exposure_table(sizes, figure_params, eps_thr=eps_thr)
        assert [row[1] == 0.0 for row in rows] == [q <= d.delta_c + eps_thr for q in sizes]

    @settings(max_examples=100, deadline=None)
    @given(params=rate_sets, eps_thr=st.sampled_from([0.0, 1e-12, 1e-3]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_rates(self, params, eps_thr, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([10.0 ** rng.uniform(-14.0, 1.0, 500), rng.uniform(-1.0, 0.0, 100)])
        self._same_bits(derive(params).delta_c * (1.0 + x), params, eps_thr=eps_thr)

    def test_onset_entries_in_one_block(self, figure_params):
        # plateau and log-form sizes in every block, onset sizes in the second block only
        d = derive(figure_params)
        q = np.where(np.arange(4 * _BLOCK) % 2, 2.0 * d.delta_c, 0.5 * d.delta_c)
        q[_BLOCK + 100:_BLOCK + 200] = np.linspace(d.delta_c, d.delta_c * 1.1, 100)
        self._same_bits(q, figure_params)

    def test_onset_run_across_a_block_edge(self, figure_params):
        # the onset band of a sorted grid, plateau edge to series switch, spans a block edge
        d = derive(figure_params)
        q = np.linspace(0.99 * d.delta_c, 1.12 * d.delta_c, 2 * _BLOCK)
        lo, hi = np.searchsorted(q, [d.delta_c, d.delta_c * (1.0 + _SERIES_SWITCH)])
        assert lo < _BLOCK < hi
        self._same_bits(q, figure_params)
        self._same_bits(q[::-1].copy(), figure_params)

    def test_int64_sizes(self, figure_params):
        q = np.arange(3 * _BLOCK + 7, dtype=np.int64) % 5
        self._same_bits(q, figure_params)

    def test_descending_split_grid(self, figure_params):
        # the benchmark's second release of a two-way split: Q - q1 on 1e6 points
        Q = 4.0 * derive(figure_params).delta_c
        self._same_bits(np.clip(Q - np.linspace(0.0, Q, 10**6), 0.0, None), figure_params)


class TestQuadratureOracle:
    def test_plateau_exact_zero(self, figure_params):
        d = derive(figure_params)
        assert exposure_quadrature(0.2, figure_params) == 0.0
        assert exposure_quadrature(d.delta_c, figure_params) == 0.0

    def test_figure_release_matches(self, figure_params):
        closed = exposure_closed_form(1.0, figure_params).value
        quad = exposure_quadrature(1.0, figure_params, tol=1e-12)
        assert abs(quad - closed) <= 1e-10 * max(1.0, closed)

    def test_random_releases_match(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_params(rng)
            d = derive(p)
            q = d.delta_c * rng.uniform(1.001, 8.0)
            closed = exposure_closed_form(q, p).value
            quad = exposure_quadrature(q, p, tol=1e-12)
            assert abs(quad - closed) <= 1e-9 * max(1.0, closed)

    def test_bad_tolerance_rejected(self, figure_params):
        with pytest.raises(LeakyStageError):
            exposure_quadrature(1.0, figure_params, tol=0.0)


class TestDerivative:
    def test_zero_at_threshold(self, figure_params):
        d = derive(figure_params)
        assert exposure_derivative(d.delta_c, figure_params) == 0.0
        assert exposure_derivative(0.5 * d.delta_c, figure_params) == 0.0

    def test_large_release_limit(self, figure_params):
        d = derive(figure_params)
        limit = d.alpha / figure_params.rho
        assert exposure_derivative(1e9, figure_params) == pytest.approx(limit, rel=1e-8)

    def test_finite_difference(self, figure_params):
        d = derive(figure_params)
        q = 2.0 * d.delta_c
        step = 1e-5 * d.delta_c
        fd = (
            exposure_closed_form(q + step, figure_params).value
            - exposure_closed_form(q - step, figure_params).value
        ) / (2.0 * step)
        assert abs(fd - exposure_derivative(q, figure_params)) <= 1e-6

    def test_second_derivative_positive_above_threshold(self, figure_params):
        d = derive(figure_params)
        for q in np.linspace(1.2 * d.delta_c, 6.0 * d.delta_c, 20):
            step = 1e-4 * d.delta_c
            e = lambda x: exposure_closed_form(x, figure_params).value
            second = (e(q + step) - 2 * e(q) + e(q - step)) / step**2
            assert second > 0.0
            expected = d.alpha * d.delta_c / (figure_params.rho * q * q)
            assert second == pytest.approx(expected, rel=1e-4)


class TestNearThreshold:
    def test_vanishes_at_zero_overshoot(self, figure_params):
        assert exposure_near_threshold(0.0, figure_params) == 0.0

    def test_cubic_error_bound(self, figure_params):
        d = derive(figure_params)
        # fit the cubic coefficient over the onset window, then check 1e-3
        fit = [
            abs(
                exposure_closed_form(d.delta_c * (1 + eps), figure_params).value
                - exposure_near_threshold(eps, figure_params)
            )
            / eps**3
            for eps in np.geomspace(1e-4, 1e-2, 9)
        ]
        coeff = max(fit)
        eps = 1e-3
        err = abs(
            exposure_closed_form(d.delta_c * (1 + eps), figure_params).value
            - exposure_near_threshold(eps, figure_params)
        )
        assert err <= 1.05 * coeff * eps**3

    def test_ratio_tends_to_one(self, figure_params):
        d = derive(figure_params)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            exact = exposure_closed_form(d.delta_c * (1 + eps), figure_params).value
            gaps.append(abs(exact / exposure_near_threshold(eps, figure_params) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-3


    def test_onset_is_the_leading_term_at_tiny_overshoot(self):
        # below 1e-6 the cubic correction is under 1e-6 relative, so the exact
        # value must match the leading term; rounding noise or a negative
        # value would not
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = random_params(rng)
            d = derive(p)
            q = d.delta_c * (1.0 + 10.0 ** rng.uniform(-11.0, -6.0))
            eps = (q - d.delta_c) / d.delta_c  # the overshoot q actually carries
            value = exposure_closed_form(q, p).value
            assert value == pytest.approx(exposure_near_threshold(eps, p), rel=1e-6)


class TestSpectralForm:
    def test_plateau(self, figure_params):
        assert exposure_spectral_form(0.2, figure_params) == 0.0

    def test_matches_closed_form(self, figure_params):
        for q in (0.5, 1.0, 2.0):
            closed = exposure_closed_form(q, figure_params).value
            spectral = exposure_spectral_form(q, figure_params, tol=1e-12)
            assert spectral > 0.0
            assert abs(spectral - closed) <= 1e-10 * max(1.0, closed)

    def test_random_match(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_params(rng)
            d = derive(p)
            q = d.delta_c * rng.uniform(1.01, 6.0)
            closed = exposure_closed_form(q, p).value
            spectral = exposure_spectral_form(q, p, tol=1e-12)
            assert abs(spectral - closed) <= 1e-9 * max(1.0, closed)


class TestCliTable:
    """``exposure`` CLI rows carry the bits of the scalar functions, edges included."""

    @settings(max_examples=200, deadline=None)
    @given(params=rate_sets, eps_thr=st.sampled_from([1e-12, 1e-9, 1e-6, 5e-324]),
           overshoots=st.lists(st.floats(-1.0, 4.0), max_size=6))
    def test_rows_are_the_scalar_bits(self, params, eps_thr, overshoots):
        edge = derive(params).delta_c + eps_thr
        sizes = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), 0.0,
                 *(max(0.0, edge * (1.0 + x)) for x in overshoots)]
        rates = {name: getattr(params, name) for name in ("beta", "mu", "delta", "rho")}
        document = {"params": rates, "exposure": {"q": sizes}, "eps_thr": eps_thr}
        rows = run(parse_config(document), meta_time=False).payload["rows"]
        assert [row[0] for row in rows] == sizes
        for q, value, derivative, duration in rows:
            expected = exposure_closed_form(q, params, eps_thr=eps_thr)
            assert value.hex() == expected.value.hex()
            assert duration.hex() == expected.active_duration.hex()
            assert derivative.hex() == exposure_derivative(q, params, eps_thr=eps_thr).hex()
            assert (value == 0.0) == (duration == 0.0) == (q <= edge)

def _error(call):
    """The text of the :class:`LeakyStageError` that ``call()`` raises, or None."""
    try:
        call()
    except LeakyStageError as error:
        return str(error)
    return None


#: Sizes that no check passes, each of another kind: negative, NaN, infinite, past the
#: domain's bound, a bool, text, None, an integer past the float range and a numpy NaN.
_BAD_SIZES = (-1.0, math.nan, math.inf, -math.inf, math.nextafter(1e100, math.inf), True,
              "1e300", None, 2**1100, np.float64("nan"))


@st.composite
def _table_inputs(draw):
    """Rates from ``rate_sets`` or the domain's corners, a tolerance, and a list of
    float, int and ``np.float64`` sizes a few ulps around the plateau's edge, the series
    switch or the size bound, or log-uniform up to it, with at most two bad sizes in it."""
    if draw(st.booleans()):
        params, eps_thr = draw(rate_sets), draw(st.sampled_from([EPS_THR, 0.0, 1e-3]))
    else:
        params, eps_thr = draw(corner_rate_sets), draw(corner_tolerances)
    d = derive(params)
    edge = d.delta_c + eps_thr
    anchors = [a for a in (edge, d.delta_c * (1.0 + _SERIES_SWITCH), 1e100) if a <= 1e100]

    def size():
        kind = draw(st.sampled_from(["anchor", "anchor", "wide", "int"]))
        if kind == "int":
            return draw(st.one_of(st.integers(0, 3), *(
                st.integers(-2, 2).map(lambda k, a=a: max(0, int(a) + k)) for a in anchors)))
        if kind == "wide":
            q = math.exp(draw(st.floats(math.log(1e-300), math.log(1e100))))
        else:
            q = draw(st.sampled_from(anchors))
            for _ in range(draw(st.integers(0, 3))):
                q = math.nextafter(q, draw(st.sampled_from([0.0, 1e100])))
        return np.float64(q) if draw(st.integers(0, 4)) == 0 else q

    sizes = [size() for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 2))):
        sizes.insert(draw(st.integers(0, len(sizes))), draw(st.sampled_from(_BAD_SIZES)))
    return params, eps_thr, sizes


@settings(max_examples=400, deadline=None)
@given(_table_inputs())
@example((ModelParams(0.6, 1.0, 1.8, 0.5), EPS_THR, [0.5, 1e308, -1.0, 0.2]))  # two bad sizes
@example((ModelParams(0.6, 1.0, 1.8, 0.5), EPS_THR, [0.5, 1e100, 2**400, 0.2]))  # an int past
@example((ModelParams(1e-30, math.nextafter(1e-30, 1.0), 1e30, 1e-30), 0.0,
          [1e100, 0.5, math.nan]))  # the corners
def test_table_matches_the_per_row_loop(inputs):
    # the rows, or the text of the first bad size, of the column kernel, which checks
    # float lists at once, are the per-row loop's
    params, eps_thr, sizes = inputs
    rows, expected = [], []
    error = _error(lambda: rows.append(exposure_table(sizes, params, eps_thr=eps_thr)))
    assert error == _error(lambda: expected.append(exposure_table_loop(sizes, params,
                                                                       eps_thr=eps_thr)))
    assert repr(rows) == repr(expected)
    if error and all(type(q) is float for q in sizes):  # the batch names the index alike
        assert _error(lambda: exposure_batch(sizes, params, eps_thr=eps_thr)) == error
