"""The CSV and JSON emitters write the same bytes as the plain emit path they replace.

``cli.to_csv`` formats each row through a %-template chosen once per row type
signature, and ``cli.to_json`` writes the ``json.dumps(..., indent=2)`` layout
itself.  The oracles in ``tests/util.py`` are the old per-cell path and
``json.dumps``; on every CPython the suite runs on, the two must agree byte for
byte, non-finite floats, huge integers, escapes and numpy scalars included.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leakystage.cli import OutputEnvelope, parse_config, run, to_csv, to_json
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


@settings(max_examples=300, deadline=None)
@given(_envelopes())
def test_emitters_match_the_oracles(envelope):
    assert to_csv(envelope) == to_csv_oracle(envelope)
    assert to_json(envelope) == to_json_oracle(envelope)


@settings(max_examples=150, deadline=None)
@given(_envelopes(_csv_cells))
def test_csv_matches_the_oracle_on_numpy_bools_and_integers(envelope):
    assert to_csv(envelope) == to_csv_oracle(envelope)


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


def test_presets_match_the_oracles():
    for name, document in PRESETS.items():
        command = next(key for key in document if key != "params")
        envelope = run(parse_config(document, command=command), meta_time=False)
        assert to_csv(envelope) == to_csv_oracle(envelope), name
        assert to_json(envelope) == to_json_oracle(envelope), name
