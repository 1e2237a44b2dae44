import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from util import horizon_capacity_per_point, linspace_oracle

GRID = PhaseGrid(
    r_range=(1.05, 4.0, 60),
    h_range=(0.0, 4.0, 41),
    k_range=(0.0, 1.5, 7),
    n_curves=(1, 2, 3, 4, 6),
)


def _range(lo: float, hi: float, count: int) -> tuple[float, float, int]:
    return (min(lo, hi), max(lo, hi), count)


# Loads and horizons across the domain: small values, integers (on which
# resolve_integers acts), both sides of 2**53 (where k_safe changes its formula) and
# up to the bound 1e100.
_VALUES = st.one_of(
    st.floats(0.0, 50.0),
    st.integers(0, 10**7).map(float),
    st.floats(2.0**52, 2.0**54),
    st.floats(0.0, 1e100),
)
_RANGES = st.builds(_range, _VALUES, _VALUES, st.integers(2, 12)).filter(
    lambda rng: rng[0] < rng[1])
# overheads below 1e-9, where r e^-k lies within rounding of r
_TINY_RANGES = st.builds(_range, st.just(0.0), st.floats(5e-324, 1e-9), st.integers(2, 4))
_COUNTS = st.one_of(st.integers(1, 50), st.integers(1, 2**62))


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

    @settings(max_examples=150, deadline=None)
    @given(h_range=_RANGES, n_curves=st.lists(_COUNTS, max_size=4))
    @example(h_range=GRID.h_range, n_curves=list(GRID.n_curves))
    def test_rows_reproducible(self, h_range, n_curves):
        # every row is the public per-point call and the per-point oracle, bit for bit
        grid = PhaseGrid(h_range=h_range, n_curves=(1, *n_curves, 10**6))
        feasibility, frontier = feasibility_curves(grid)
        assert len(feasibility) == len(grid.n_curves) * len(frontier)
        for h, n, value in feasibility:
            assert repr(value) == repr(horizon_capacity(n, h))
            assert repr(value) == repr(horizon_capacity_per_point(n, h))
        for h, value in frontier:
            assert repr(value) == repr(1.0 + h)

    def test_missing_range_rejected(self):
        with pytest.raises(LeakyStageError):
            feasibility_curves(PhaseGrid(n_curves=(2, 3)))


class TestSawtoothFrontier:
    def test_single_candidate_band(self):
        grid = PhaseGrid(r_range=(1.1, 2.0, 10))
        ksafe_rows, _ = sawtooth_frontier(grid)
        for r, value in ksafe_rows:
            assert value == pytest.approx(r - 1 - math.log(r), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(r_range=_RANGES, k_range=_RANGES | _TINY_RANGES, resolve_integers=st.booleans())
    @example(r_range=GRID.r_range, k_range=GRID.k_range, resolve_integers=False)
    @example(r_range=(2.0, 2.0**54, 5), k_range=(0.0, 40.0, 9), resolve_integers=True)
    @example(r_range=(0.0, 1e100, 4), k_range=(0.0, 1e-10, 3), resolve_integers=True)
    def test_rows_reproducible(self, r_range, k_range, resolve_integers):
        # every row is the public per-point call and the per-point oracle, bit for bit
        grid = PhaseGrid(r_range=r_range, k_range=k_range)
        ksafe_rows, nstar_rows = sawtooth_frontier(grid, resolve_integers=resolve_integers)
        ks = _linspace(*k_range)
        assert len(nstar_rows) == len(ksafe_rows) * len(ks)
        for i, (r, value) in enumerate(ksafe_rows):
            assert repr(value) == repr(k_safe(r))
            for k, row in zip(ks, nstar_rows[i * len(ks):(i + 1) * len(ks)]):
                assert repr(row) == repr((r, k, overhead_optimal_count(r, k).n_star))

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

    def test_integer_resolution_keeps_one_sample_where_floats_do_not_resolve(self):
        # past about 1.7e10 the float spacing reaches 1e-6 and integer ± 1e-6 rounds back
        # to the integer: the sample stays single, not printed twice
        grid = PhaseGrid(r_range=(1e16, 3e16, 3), k_range=(0.0, 1.0, 2))
        resolved = sawtooth_frontier(grid, resolve_integers=True)
        assert [len(rows) for rows in resolved] == [3, 6]
        assert resolved == sawtooth_frontier(grid)
        # 1e10 still has floats 1e-6 either side, 2e10 does not
        ksafe_rows, _ = sawtooth_frontier(PhaseGrid(r_range=(1e10, 2e10, 2)),
                                          resolve_integers=True)
        assert [r for r, _ in ksafe_rows] == [1e10 - 1e-6, 1e10 + 1e-6, 2e10]


    def test_grid_without_r_range_rejected(self):
        with pytest.raises(LeakyStageError, match="^the sawtooth frontier needs r_range$"):
            sawtooth_frontier(PhaseGrid(k_range=(0.0, 1.0, 3)))

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

    def test_unallocatable_path_rejected(self):
        # 2**62 path samples fail Python's size check before anything is allocated
        with pytest.raises(LeakyStageError, match="path_points must be small enough to allocate"):
            panel_c_comparison(2.1, 3, 2.0, path_points=2**62)


class TestPhaseGrid:
    def test_bad_count_rejected(self):
        with pytest.raises(LeakyStageError):
            PhaseGrid(r_range=(1.0, 2.0, 1))

    def test_bad_bounds_rejected(self):
        with pytest.raises(LeakyStageError):
            PhaseGrid(h_range=(2.0, 1.0, 10))
        with pytest.raises(LeakyStageError):
            PhaseGrid(h_range=(-1.0, 1.0, 10))

    @pytest.mark.parametrize("field", ["r_range", "h_range", "k_range"])
    def test_unallocatable_count_names_the_range(self, field):
        # 2**62 samples fail Python's size check before anything is allocated
        ranges = {"r_range": (1.0, 4.0, 3), "h_range": (0.0, 4.0, 3), "k_range": (0.0, 1.0, 3)}
        grid = PhaseGrid(**{**ranges, field: (0.0, 4.0, 2**62)}, n_curves=(2,))
        table = feasibility_curves if field == "h_range" else sawtooth_frontier
        with pytest.raises(LeakyStageError, match=f"{field} count must be small enough"):
            table(grid)


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
