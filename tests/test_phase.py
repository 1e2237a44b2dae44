import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakystage import (
    LeakyStageError,
    PhaseGrid,
    feasibility_curves,
    horizon_capacity,
    k_safe,
    overhead_optimal_count,
    panel_c_comparison,
    sawtooth_frontier,
)
from leakystage.phase import _linspace
from util import linspace_oracle

GRID = PhaseGrid(
    r_range=(1.05, 4.0, 60),
    h_range=(0.0, 4.0, 41),
    k_range=(0.0, 1.5, 7),
    n_curves=(1, 2, 3, 4, 6),
)


class TestFeasibilityCurves:
    def test_single_release_curve_is_flat(self):
        feasibility, _ = feasibility_curves(GRID)
        ones = [value for h, n, value in feasibility if n == 1]
        assert all(value == 1.0 for value in ones)

    def test_worked_row(self):
        feasibility, _ = feasibility_curves(GRID)
        row = [value for h, n, value in feasibility if n == 3 and abs(h - 2.0) < 1e-12]
        assert len(row) == 1
        assert row[0] == pytest.approx(2.264, abs=1e-3)

    def test_curves_ordered_and_below_frontier(self):
        feasibility, frontier = feasibility_curves(GRID)
        frontier_map = dict(frontier)
        by_h: dict = {}
        for h, n, value in feasibility:
            by_h.setdefault(h, {})[n] = value
            if h > 0.0:
                assert value < frontier_map[h]
        for h, curves in by_h.items():
            if h == 0.0:
                continue
            ns = sorted(curves)
            for a, b in zip(ns, ns[1:]):
                assert curves[a] < curves[b]

    def test_rows_reproducible(self):
        feasibility, frontier = feasibility_curves(GRID)
        rng = np.random.default_rng(107)
        for idx in rng.choice(len(feasibility), size=10, replace=False):
            h, n, value = feasibility[idx]
            assert value == horizon_capacity(n, h)
        for h, value in frontier[:5]:
            assert value == 1.0 + h

    def test_missing_range_rejected(self):
        with pytest.raises(LeakyStageError):
            feasibility_curves(PhaseGrid(n_curves=(2, 3)))


class TestSawtoothFrontier:
    def test_single_candidate_band(self):
        grid = PhaseGrid(r_range=(1.1, 2.0, 10))
        ksafe_rows, _ = sawtooth_frontier(grid)
        for r, value in ksafe_rows:
            assert value == pytest.approx(r - 1 - math.log(r), rel=1e-12)

    def test_rows_reproducible(self):
        ksafe_rows, nstar_rows = sawtooth_frontier(GRID)
        assert all(value == k_safe(r) for r, value in ksafe_rows)
        rng = np.random.default_rng(109)
        for idx in rng.choice(len(nstar_rows), size=15, replace=False):
            r, k, n = nstar_rows[idx]
            assert n == overhead_optimal_count(r, k).n_star

    def test_safe_regime_below_frontier(self):
        _, nstar_rows = sawtooth_frontier(GRID)
        for r, k, n in nstar_rows:
            if k < k_safe(r):
                assert n == math.ceil(r - 1e-12 * max(1.0, r))

    def test_integer_resolution_straddles_drop(self):
        grid = PhaseGrid(r_range=(2.0, 3.0, 3))  # samples exactly 2, 2.5, 3
        ksafe_rows, _ = sawtooth_frontier(grid, resolve_integers=True)
        rs = [r for r, _ in ksafe_rows]
        assert any(abs(r - (2 - 1e-6)) < 1e-9 for r in rs)
        assert any(abs(r - (2 + 1e-6)) < 1e-9 for r in rs)
        left = next(v for r, v in ksafe_rows if abs(r - (3 - 1e-6)) < 1e-9)
        right = next(v for r, v in ksafe_rows if abs(r - (3 + 1e-6)) < 1e-9)
        assert left > 1000 * right  # the drop at the integer crossing


class TestPanelC:
    def test_worked_values(self):
        tables = panel_c_comparison(r=2.1, n=3, h=2.0)
        uniform = [level for _, _, level in tables.uniform_levels]
        assert uniform[0] == pytest.approx(0.700, abs=1e-3)
        assert uniform[1] == pytest.approx(0.958, abs=1e-3)
        assert uniform[2] == pytest.approx(1.052, abs=1e-3)
        assert uniform[2] > 1.0
        front = [level for _, _, level in tables.front_levels]
        assert all(level == pytest.approx(0.928, abs=1e-3) for level in front)
        assert tables.capacity == pytest.approx(2.264, abs=1e-3)

    def test_front_releases_sum_to_load(self):
        tables = panel_c_comparison(r=2.1, n=3, h=2.0)
        assert math.fsum(tables.front_releases) == pytest.approx(2.1, rel=1e-12)
        assert math.fsum(tables.uniform_releases) == pytest.approx(2.1, rel=1e-12)

    def test_paths_decay_between_stages(self):
        tables = panel_c_comparison(r=2.1, n=3, h=2.0, path_points=11)
        xs = [x for x, _ in tables.front_path]
        assert xs == sorted(xs)
        # every path sample is the stage level decayed by the elapsed time
        spacing = 2.0 / 2
        for x, level in tables.front_path:
            stage = min(int(x / spacing), 2)
            stage_level = tables.front_levels[stage][2]
            assert level == pytest.approx(
                stage_level * math.exp(-(x - stage * spacing)), rel=1e-12
            )

    def test_single_release_rejected(self):
        with pytest.raises(LeakyStageError):
            panel_c_comparison(r=2.1, n=1, h=2.0)

    @pytest.mark.parametrize("h, message", [
        (1000.0, "release count n=4611686018427387904 must be small enough to allocate"),
        (2.0, "release count n=4611686018427387904 and horizon h=2.0 give a carry-over"),
    ], ids=["unallocatable", "carry-over-rounds-to-1"])
    def test_huge_count_rejected(self, h, message):
        # 2**62 releases fail Python's size check before anything is allocated
        with pytest.raises(LeakyStageError, match=message):
            panel_c_comparison(r=2.1, n=2**62, h=h)


class TestPhaseGrid:
    def test_bad_count_rejected(self):
        with pytest.raises(LeakyStageError):
            PhaseGrid(r_range=(1.0, 2.0, 1))

    def test_bad_bounds_rejected(self):
        with pytest.raises(LeakyStageError):
            PhaseGrid(h_range=(2.0, 1.0, 10))
        with pytest.raises(LeakyStageError):
            PhaseGrid(h_range=(-1.0, 1.0, 10))


# Finite endpoints anywhere in the float range, with subnormal and signed-zero
# values drawn often, since that is where a zero step and the ``i / div``
# branch come in.
_ENDPOINTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)


class TestLinspace:
    @settings(max_examples=600, deadline=None)
    @given(
        lo=_ENDPOINTS,
        hi=_ENDPOINTS,
        equal=st.booleans(),
        count=st.one_of(st.integers(0, 3), st.integers(0, 3000)),
        endpoint=st.booleans(),
    )
    def test_matches_numpy_bit_for_bit(self, lo, hi, equal, count, endpoint):
        if equal:
            hi = lo
        grid = _linspace(lo, hi, count, endpoint=endpoint)
        assert all(type(x) is float for x in grid)
        expected = linspace_oracle(lo, hi, count, endpoint=endpoint)
        assert np.array(grid, dtype=float).tobytes() == expected.tobytes()

    def test_integer_endpoints_give_floats(self):
        grid = _linspace(0, 4, 41)
        assert all(type(x) is float for x in grid)
        assert np.array(grid).tobytes() == linspace_oracle(0, 4, 41).tobytes()
