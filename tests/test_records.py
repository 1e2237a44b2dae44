"""Every record type behaves as the frozen dataclass it replaced.

The package's records derive from ``model.FrozenRecord`` instead of carrying
``@dataclass(frozen=True)``.  ``util.dataclass_oracle`` rebuilds each record
class as that dataclass, and the tests compare the two on construction
(positional, keyword, defaulted and malformed calls), ``__post_init__``
errors, ``repr``, equality within and across classes, hashing, match
arguments and the frozen-instance errors.
"""
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakystage
from leakystage import (
    ImpulseSchedule,
    ModelParams,
    PhaseGrid,
    RecoveryConfig,
    SplitProblem,
    capacity_report,
    cli,
    derive,
    envelope,  # noqa: F401 - defines three of the records
    exposure_closed_form,
    horizon_feasibility,
    min_peak_plan,
    optimal_split,
    overhead_optimal_count,
    panel_c_comparison,
    simulate_envelope,
    verify_envelope_dominance,
)
from leakystage.model import FrozenRecord
from util import dataclass_oracle

MODULES = ("model", "exposure", "allocation", "recovery", "phase", "envelope", "cli")
RECORDS = sorted(
    (value for name in MODULES for value in vars(getattr(leakystage, name)).values()
     if inspect.isclass(value) and issubclass(value, FrozenRecord) and value is not FrozenRecord
     and value.__module__ == f"leakystage.{name}"),
    key=lambda cls: (cls.__module__, cls.__name__),
)


def _examples() -> dict[type, FrozenRecord]:
    """One valid instance of each record class, mostly as the package builds them."""
    params = ModelParams(beta=0.6, mu=1.0, delta=1.8, rho=0.5)
    recovery = RecoveryConfig(lam=0.5, n=3, Q=0.7)
    grid = PhaseGrid(r_range=(1.02, 4.0, 4), h_range=(0.0, 4.0, 3), k_range=(0.0, 1.5, 3),
                     n_curves=(2, 3))
    schedule = ImpulseSchedule(((0.0, 0.4), (2.0, 0.3)))
    config = cli.parse_config({"params": {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5},
                               "peak": {"Q": 0.7, "n": 3, "tau": 2.0}})
    examples = [
        params, derive(params), leakystage.DimensionlessPoint(r=2.1, h=2.0, k=0.3),
        exposure_closed_form(1.0, params), SplitProblem(Q=1.0, n=3, params=params),
        optimal_split(SplitProblem(Q=1.0, n=3, params=params)), overhead_optimal_count(4.5, 0.3),
        horizon_feasibility(2.1, 2.0), recovery, min_peak_plan(recovery),
        capacity_report(params, 0.7, 3, 0.5, 2.0), grid, panel_c_comparison(path_points=3),
        schedule, simulate_envelope(schedule, params, 3.0, 0.5),
        verify_envelope_dominance(schedule, params, 0.1, 3.0, 0.5),
        cli._Field("number", "a number", minimum=1.0), config, cli.run(config, meta_time=False),
    ]
    return {type(example): example for example in examples}


EXAMPLES = _examples()
ORACLES = {cls: dataclass_oracle(cls) for cls in RECORDS}

#: Field values of every kind the records see, valid or not.
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_infinity=True),
    st.floats(0.01, 5.0), st.text(max_size=3), st.just(()), st.just({"a": [1]}),
    st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.integers(0, 6)),
    st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(-1.0, 5.0)), max_size=3).map(tuple),
    st.sampled_from([np.zeros(2), np.arange(3.0)]),
)


def outcome(action):
    """``("ok", result)`` of ``action()``, or ``("raised", type, message)`` of its error."""
    try:
        return "ok", action()
    except Exception as exc:  # noqa: BLE001 - the error is what is compared
        return "raised", type(exc), str(exc)


def test_every_record_class_is_covered():
    assert len(RECORDS) == 19
    assert set(EXAMPLES) == set(RECORDS)
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_behaves_as_its_dataclass(cls, data):
    oracle, example = ORACLES[cls], EXAMPLES[cls]
    fields = cls._fields
    assert cls.__match_args__ == oracle.__match_args__ == fields
    # the example's values, or some of them replaced by arbitrary ones
    values = [getattr(example, name) for name in fields]
    if data.draw(st.booleans()):
        values = [data.draw(ANY_VALUE) if data.draw(st.booleans()) else value
                  for value in values]
    defaulted = [name for name in fields if hasattr(cls, name)]
    omit = data.draw(st.integers(0, len(defaulted)))
    call = data.draw(st.sampled_from(["positional", "keyword", "defaulted", "extra", "unknown"]))
    if call == "positional":
        args, kwargs = values, {}
    elif call == "keyword":
        args, kwargs = [], dict(zip(fields, values))
    elif call == "defaulted":
        args, kwargs = values[:len(fields) - omit], {}
    elif call == "extra":
        args, kwargs = [*values, 1.0], {}
    else:
        args, kwargs = values, {"zeta": 1.0}

    built = outcome(lambda: cls(*args, **kwargs))
    expected = outcome(lambda: oracle(*args, **kwargs))
    assert built[0] == expected[0]
    if built[0] == "raised":
        assert built == expected
        return
    record, twin = built[1], expected[1]
    assert repr(record) == repr(twin)
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(twin))
    same = outcome(lambda: record == cls(*args, **kwargs))
    assert same == outcome(lambda: twin == oracle(*args, **kwargs))
    assert outcome(lambda: record == example) == outcome(
        lambda: twin == oracle(*(getattr(example, name) for name in fields)))
    other = EXAMPLES[RECORDS[(RECORDS.index(cls) + 1) % len(RECORDS)]]
    for foreign in (other, tuple(values)):
        assert outcome(lambda: record == foreign) == outcome(lambda: twin == foreign) == (
            "ok", False)
        assert (record != foreign) is (twin != foreign) is True
        assert record.__eq__(foreign) is twin.__eq__(foreign) is NotImplemented
    assert (record == twin, twin == record, record != twin) == (False, False, True)
    for name in (*fields, "unrelated"):
        assigned = outcome(lambda: setattr(record, name, 1))
        assert assigned[:2] == ("raised", dataclasses.FrozenInstanceError)
        assert assigned == outcome(lambda: setattr(twin, name, 1))
        deleted = outcome(lambda: delattr(record, name))
        assert deleted[:2] == ("raised", dataclasses.FrozenInstanceError)
        assert deleted == outcome(lambda: delattr(twin, name))


def test_defaults_follow_the_fields_they_extend():
    class Base(FrozenRecord):
        a: int
        b: int = 2

    class Extended(Base):
        c: int = 3

    assert Extended._fields == ("a", "b", "c")
    assert repr(Extended(1)) == f"{Extended.__qualname__}(a=1, b=2, c=3)"
    assert Extended(1, c=4) != Base(1)
    with pytest.raises(TypeError, match="non-default field 'd' follows a field with a default"):
        class Broken(Base):  # noqa: F841
            d: int


def test_post_init_runs_after_every_field_is_set():
    seen = []

    class Checked(FrozenRecord):
        x: float
        y: float = 1.0

        def __post_init__(self):
            seen.append((self.x, self.y))

    Checked(0.5)
    Checked(y=3.0, x=2.0)
    assert seen == [(0.5, 1.0), (2.0, 3.0)]
