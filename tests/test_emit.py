"""The CSV and JSON emitters write the same bytes as the plain emit path they replace.

Both emitters write a table column by column (``cli._table``): runs of up to
``cli._RUN`` rows of one width, each through one %-template whose slot per column
follows from the column's cell types.  A column whose cells in a run are equal and of
one exact float, int, str or bool type is folded into the template as its text, with
``%`` doubled; a float column led by a zero and any numpy scalar or subclass column
is not, as ``-0.0 == 0.0`` and a subclass may print otherwise.  ``cli.to_json``
writes the ``json.dumps(..., indent=2)`` layout itself.  The oracles in
``tests/util.py`` are the old per-cell path and ``json.dumps``; on every CPython the
suite runs on, the two must agree byte for byte, non-finite floats, huge integers,
escapes and numpy scalars included.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakystage.cli import _RUN, OutputEnvelope, parse_config, run, to_csv, to_json
from leakystage.presets import PRESETS
from util import to_csv_oracle, to_json_oracle

EDGE_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
               1e300, -1e300, 1e16, 0.1, 1 / 3)
EDGE_STRINGS = ('say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "café ≤ \U0001f600",
                "inf", "", ",", "%s %d %%")


class _Int(int):
    """An int whose ``str`` is not its digits, as an ``IntEnum``'s may be."""

    def __str__(self) -> str:
        return f"Int({int(self)})"


class _Str(str):
    """A str whose ``str`` is not its characters."""

    def __str__(self) -> str:
        return f"Str({str.__str__(self)})"


_floats = st.floats() | st.sampled_from(EDGE_FLOATS)
_texts = st.text() | st.sampled_from(EDGE_STRINGS)
_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80) | st.sampled_from([2**70, -(2**64)]),
    st.integers().map(_Int),
    _floats,
    _floats.map(np.float64),
    _texts,
    _texts.map(_Str),
)
#: Cells that only the CSV writes: JSON cannot encode numpy bools and integers.
_csv_cells = _cells | st.booleans().map(np.bool_) | st.integers(-2**63, 2**63 - 1).map(np.int64)
_keys = st.text() | st.sampled_from(EDGE_STRINGS)
#: Nested config echoes: dicts with string keys, lists and tuples, empty ones included.
_echo = st.recursive(
    _cells,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=20,
)
#: Containers only the encoder writes: non-string keys and dict subclasses.
_other = st.dictionaries(st.integers() | st.booleans() | st.none(), _echo, max_size=3) | st.builds(
    type("DictSubclass", (dict,), {}), st.dictionaries(_keys, _echo, max_size=3))


@st.composite
def _envelopes(draw, cells=_cells) -> OutputEnvelope:
    """An envelope whose metadata values and rows hold ``cells``."""
    texts = st.text() | st.text().map(_Str)
    metadata = {
        "tool": draw(texts), "version": draw(texts), "command": draw(texts),
        **{name: draw(cells) for name in ("delta_c", "alpha", "gamma")},
        "dimensionless": {name: draw(cells) for name in "rhk"},
        "config": draw(st.dictionaries(_keys, _echo, max_size=4)),
    }
    if draw(st.booleans()):
        metadata["generated"] = draw(st.text())
    if draw(st.booleans()):
        metadata["other"] = draw(_other)  # JSON only: the CSV echoes only the config
    width = draw(st.integers(0, 6))
    rows = st.lists(cells, min_size=width, max_size=width) | st.lists(cells, max_size=8)
    payload = {"columns": draw(st.lists(st.text(), max_size=6)),
               "rows": draw(st.lists(rows, max_size=12))}
    return OutputEnvelope(metadata=metadata, payload=payload,
                          warnings=tuple(draw(st.lists(st.text(), max_size=3))))


@st.composite
def _repeated_rows(draw, cells=_cells) -> OutputEnvelope:
    """An envelope whose table is a drawn row repeated, across a run boundary at times,
    with a few rows of the same width changed, so that most columns are constant over
    a run and some are not."""
    envelope = draw(_envelopes(cells))
    row = draw(st.lists(cells, min_size=1, max_size=6))
    rows = [list(row) for _ in range(draw(st.sampled_from([2, 3, 50, _RUN, _RUN + 3])))]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, len(row) - 1))] = \
            draw(cells)
    return OutputEnvelope(metadata=envelope.metadata,
                          payload={"columns": envelope.payload["columns"], "rows": rows},
                          warnings=envelope.warnings)


@settings(max_examples=300, deadline=None)
@given(_envelopes())
def test_emitters_match_the_oracles(envelope):
    assert to_csv(envelope) == to_csv_oracle(envelope)
    assert to_json(envelope) == to_json_oracle(envelope)


@settings(max_examples=150, deadline=None)
@given(_envelopes(_csv_cells))
def test_csv_matches_the_oracle_on_numpy_bools_and_integers(envelope):
    assert to_csv(envelope) == to_csv_oracle(envelope)


@settings(max_examples=150, deadline=None)
@given(_repeated_rows())
def test_repeated_rows_match_the_oracles(envelope):
    assert to_csv(envelope) == to_csv_oracle(envelope)
    assert to_json(envelope) == to_json_oracle(envelope)


def test_edge_payload_matches_the_oracles():
    row = [*EDGE_FLOATS, 2**70, -(2**64), True, False, None, *EDGE_STRINGS, np.float64(-0.0)]
    envelope = OutputEnvelope(
        metadata={"tool": "leakystage", "version": "0", "command": "x", "delta_c": math.nan,
                  "alpha": 2**70, "gamma": -0.0, "dimensionless": {"r": None, "h": 1.5, "k": True},
                  "config": {"q": list(EDGE_FLOATS), "empty": [], "nested": {"e": {}, "t": ()}}},
        payload={"columns": ["a", "b"], "rows": [row, [], row[::-1], [None], []]},
        warnings=("wé", ""),
    )
    assert to_csv(envelope) == to_csv_oracle(envelope)
    assert to_json(envelope) == to_json_oracle(envelope)


def test_each_json_route_matches_the_oracles():
    # one fixed value per route of the writer: a dict with string keys key by key, a
    # table, a flat list or a lone scalar through the column kernel, and whatever the
    # kernel refuses through the encoder
    envelope = _table_envelope([[1.0]])
    envelope.metadata.update(delta_c=np.float64("nan"), alpha=_Int(3))
    envelope.metadata["config"].update(
        empty={"dict": {}, "list": [], "tuple": (), "rows": [[], ()], "held": [{}]},
        echo=[0.5, {"a": 1.0}, 2],
        pair=(np.float64(0.25), 1),
    )
    assert to_csv(envelope) == to_csv_oracle(envelope)
    assert to_json(envelope) == to_json_oracle(envelope)
    # the kernel refuses the numpy scalar in the last row only, in the table's third run
    rows = [[i / 7, i] for i in range(2 * _RUN + 5)] + [[0.5, np.float64(1.5)]]
    _assert_matches(rows)


def test_presets_match_the_oracles():
    for name, document in PRESETS.items():
        command = next(key for key in document if key != "params")
        envelope = run(parse_config(document, command=command), meta_time=False)
        assert to_csv(envelope) == to_csv_oracle(envelope), name
        assert to_json(envelope) == to_json_oracle(envelope), name


FIG = {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5}
#: A 2e4-row config of each command the bulk-emit benchmark emits.
BULK = {
    "simulate": {"schedule": [[0.5, 0.3], [2.0, 0.4], [4.0, 0.2]], "S0": 0.1, "T": 6.0,
                 "step": 6.0 / 20000},
    "overhead": {"r": 19999.6, "k": 0.7},
    "exposure": {"q": np.random.default_rng(30).uniform(0.0, 1.6, 20000).tolist()},
    "phase": {"panel": "a", "h_range": [0.0, 5.0, 3333]},
}


def _table_envelope(rows) -> OutputEnvelope:
    metadata = {"tool": "leakystage", "version": "0", "command": "x", "delta_c": 0.4,
                "alpha": 1.25, "gamma": 0.5, "dimensionless": {"r": None, "h": None, "k": None},
                "config": {"q": [0.5, 1.0]}}
    return OutputEnvelope(metadata=metadata, payload={"columns": ["a", "b"], "rows": rows})


def _assert_matches(rows) -> None:
    envelope = _table_envelope(rows)
    assert to_csv(envelope) == to_csv_oracle(envelope)
    assert to_json(envelope) == to_json_oracle(envelope)


@pytest.fixture(scope="module")
def bulk_envelopes() -> dict[str, OutputEnvelope]:
    return {command: run(parse_config({"params": FIG, command: block}, command=command),
                         meta_time=False) for command, block in BULK.items()}


@pytest.mark.parametrize("count", [_RUN - 1, _RUN, _RUN + 1, 3 * _RUN + 7])
def test_tables_across_the_run_cap(count):
    # each column's cell types change at a row that is no run boundary, so some runs
    # write a column through one slot and others cell by cell
    rows = [[i / 7, i, None if i % 3 else i, f"s{i}", i % 2 == 0, "x" if i > 1500 else None]
            for i in range(count)]
    _assert_matches(rows)
    assert to_csv(_table_envelope(rows)).count("\n") == 5 + count


def test_alternating_widths_with_empty_rows_between():
    rows = []
    for i in range(2 * _RUN + 40):
        width = (i // 37) % 4  # runs of 37 rows of widths 0, 1, 2 and 3 in turn
        rows.append([float(i)] * width)
        if i % 500 == 0:
            rows.extend([[], []])
    _assert_matches(rows)
    _assert_matches([[], [1.5], [], [], [2, 3], []])
    _assert_matches([[]] * (_RUN + 3))


def test_int_and_none_column():
    # phase's n column: an int on the B_n rows, None on the frontier rows
    rows = [["a", "B_n", n, None, h / 10, None, None, None, 1.0 + h] for h in range(300)
            for n in (2, 3)] + [["a", "frontier", None, None, h / 10, None, None, None, 2.0]
                                 for h in range(900)]
    _assert_matches(rows)


def test_non_finite_floats_in_a_column():
    for special in (math.inf, -math.inf, math.nan, -0.0):
        rows = [[i / 3, special if i in (5, _RUN + 2) else i * 0.5] for i in range(_RUN + 9)]
        _assert_matches(rows)
        _assert_matches([[special]] * 3)


def test_finite_floats_whose_sum_overflows():
    _assert_matches([[1e308, 0.5], [1e308, 1.5]])
    _assert_matches([[-1e308], [-1e308], [1e308]])
    # the config echo's flat list takes the same column rule
    envelope = _table_envelope([[1.0]])
    envelope.metadata["config"]["q"] = [1e308, 1e308, math.inf]
    assert to_csv(envelope) == to_csv_oracle(envelope)
    assert to_json(envelope) == to_json_oracle(envelope)


def test_bools_beside_other_cells_and_tuple_rows():
    rows = [(True, 1, _Str("s"), np.float64(0.25)), [False, 0, "t", 0.5],
            (True, False, 2, None), [1, True, _Int(3), "u"], (np.float64(-0.0), True, 1.5, 2)]
    _assert_matches(rows)
    _assert_matches(rows * 400)
    _assert_matches([(True, 2), (False, 3)] * (_RUN + 1))
    # a nested container or numpy scalar sends the whole table down the generic writer
    _assert_matches([[1.0, 2.0]] * _RUN + [[[1.0], {"a": 2}]] + [[3.0, 4.0]] * 5)


def test_a_column_constant_in_one_run_and_varying_in_the_next():
    # overhead's layout: n_star and its flag inside the second of three runs, k_safe and
    # the tie flag constant throughout
    n_star = _RUN + 500
    rows = [[n, n / 3, n_star, 7, n == n_star, False] for n in range(1, 2 * _RUN + 100)]
    _assert_matches(rows)
    assert to_csv(_table_envelope(rows)).count(f",{n_star},7,false,false") == len(rows) - 1


def test_signed_zeros_do_not_fold():
    for zero, other in ((0.0, -0.0), (-0.0, 0.0)):
        for kind in (float, np.float64):
            _assert_matches([[kind(zero)], [kind(other)], [kind(zero)]])
            _assert_matches([[kind(zero), 1.5]] * (_RUN - 1) + [[kind(other), 1.5]] * 3)
            _assert_matches([[kind(zero)]] * 3)


def test_non_finite_constant_columns():
    nan = math.nan
    _assert_matches([[nan, 1]] * 5)  # one NaN object, repeated
    _assert_matches([[float("nan"), 1] for _ in range(5)])  # distinct NaNs
    _assert_matches([[math.inf, -math.inf]] * (_RUN + 2))
    # a constant column whose sum overflows: one cell's text, not the overflowed sum's
    _assert_matches([[1e308, -1e308]] * 4)


def test_constant_strings_holding_percent_signs():
    for text in ("%", "%%", "%s", "100% of %d"):
        _assert_matches([[text, 0.5]] * 3 + [[text, 1.5]])
        _assert_matches([[text]] * (_RUN + 1))


def test_constant_columns_of_each_cell_type():
    for cell in (True, False, 3, 2**70, _Int(3), "s", _Str("s"), np.float64(0.25), 0.25, None):
        _assert_matches([[cell, 1.0]] * 3)
        _assert_matches([[cell] for _ in range(_RUN + 1)])
    # equal cells of mixed types do not fold: 1 == 1.0 == True
    _assert_matches([[1], [1.0], [True]])


def test_bulk_emit_payloads_match_the_oracles(bulk_envelopes):
    for command, envelope in bulk_envelopes.items():
        assert len(envelope.payload["rows"]) >= 19998, command
        assert to_csv(envelope) == to_csv_oracle(envelope), command
        assert to_json(envelope) == to_json_oracle(envelope), command


@pytest.mark.parametrize("command", ["exposure", "overhead", "phase", "simulate"])
def test_emit_peak_memory_is_bounded_by_the_text(bulk_envelopes, command):
    # the text and the parts it is joined from are alive together at the end, 2x its
    # length; a writer that holds whole-table temporaries (a string per cell, a line per
    # row) reaches about 3x
    envelope = bulk_envelopes[command]
    for emit in (to_csv, to_json):
        tracemalloc.start()
        try:
            text = emit(envelope)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), (emit.__name__, peak / len(text))
