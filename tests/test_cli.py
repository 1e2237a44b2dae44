import hashlib
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import leakystage
from leakystage import ConfigError, LeakyStageError, ModelParams, derive, excess_exposure, k_safe
from leakystage.cli import (
    _DOCUMENT, _FIELDS, _PARAMS, COMMANDS, _check, _Field, _scalar, main, parse_config, run,
    schema, to_csv, to_json,
)
from leakystage.presets import PRESETS, preset

FIG = {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5}
FIG_FLAGS = ["--beta", "0.6", "--mu", "1.0", "--delta", "1.8", "--rho", "0.5"]
ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "config.schema.json").read_text(encoding="utf-8"))
#: SHA-256 digests of every preset's ``--no-meta-time`` CSV and JSON output,
#: shared with the benchmark, which checks the same bytes from fresh processes.
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))


class TestParseConfig:
    def test_missing_mu_names_field(self):
        with pytest.raises(ConfigError, match="'mu'"):
            parse_config({"params": {"beta": 0.6, "delta": 1.8, "rho": 0.5}, "split": {"Q": 1.0, "n": 2}})

    def test_regime_violation_cites_ordering(self):
        document = {"params": dict(FIG, beta=1.2), "split": {"Q": 1.0, "n": 2}}
        with pytest.raises(LeakyStageError, match="beta < mu"):
            parse_config(document)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"params": FIG, "split": {"Q": 1.0, "n": 2}, "extra": 1})

    def test_horizon_before_the_last_event_rejected(self):
        block = {"schedule": [[0.0, 0.3], [2.0, 0.2]], "S0": 0.05, "T": 1.0, "step": 0.1}
        with pytest.raises(ConfigError, match=r"^simulate: field 'T' must be >= the last event "
                           r"time 2\.0$"):
            parse_config({"params": FIG, "simulate": block})

    def test_unknown_block_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"params": FIG, "split": {"Q": 1.0, "n": 2, "mode": "x"}})

    def test_unknown_keys_of_mixed_types_are_named(self):
        # an int key beside str keys: the names are ordered without comparing the two
        with pytest.raises(ConfigError, match=r"^split: unknown key\(s\) 1, 'x'$"):
            parse_config({"params": FIG, "split": {"Q": 1.0, "n": 2, 1: 2, "x": 3}})
        with pytest.raises(ConfigError, match=r"unknown key\(s\) None, 2\.5, 'a', 'b'$"):
            parse_config({"params": FIG, "split": {"Q": 1.0, "n": 2, "b": 1, 2.5: 1, None: 1,
                                                    "a": 1}})

    @pytest.mark.parametrize("value, spelled", [
        ("1e50", "1.0e+50"), ("-2e-5", "-2.0e-05"), ("0.5", "0.5"), ("3", "3.0")])
    def test_number_read_as_text_is_named_as_text(self, value, spelled):
        # YAML 1.1 reads 1e50 (no dot, no exponent sign) as a string
        message = (f"phase: field 'r_range' max must be finite and >= 0.0 and <= 1e+100 "
                   f"(got '{value}'); "
                   f"the value was read as text: write it as {spelled}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config({"params": FIG, "phase": {"panel": "b", "r_range": [1.0, value, 3]}})

    @pytest.mark.parametrize("value", ["inf", "nan", "1e300x", "x"])
    def test_other_text_keeps_the_number_message(self, value):
        with pytest.raises(ConfigError, match=(
                rf"^split: field 'Q' must be finite and > 0\.0 and <= 1e\+100 "
                rf"\(got '{value}'\)$")):
            parse_config({"params": FIG, "split": {"Q": value, "n": 2}})

    @pytest.mark.parametrize("bad, message", [
        (True, "must be finite and >= 0.0 and <= 1e+100 (got True)"),
        (math.nan, "must be finite and >= 0.0 and <= 1e+100 (got nan)"),
        (-1.0, "must be >= 0.0 and <= 1e+100 (got -1.0)"),
        (1.0000000000000002e100, "must be >= 0.0 and <= 1e+100 (got 1.0000000000000002e+100)"),
        (2**1100, f"must be finite and >= 0.0 and <= 1e+100 (got {2**1100})"),
        ("1e50", "must be finite and >= 0.0 and <= 1e+100 (got '1e50'); the value was read as "
                 "text: write it as 1.0e+50"),
    ])
    @pytest.mark.parametrize("size, at", [(6000, 5000), (3500, 3000)])
    def test_long_size_list_names_its_bad_item(self, bad, message, size, at):
        # a list of floats is checked at once; one bad item sends it to the per-item path,
        # which names the item by its index
        q = [0.001 * i for i in range(size)]
        q[at] = bad
        with pytest.raises(ConfigError) as info:
            parse_config({"params": FIG, "exposure": {"q": q}})
        assert str(info.value) == f"exposure: q[{at}] {message}"

    def test_integer_sizes_echo_as_floats(self):
        q = [0.001 * i for i in range(6000)]
        q[10::10] = range(1, 600)
        config = parse_config({"params": FIG, "exposure": {"q": q}})
        assert config.options["q"] == q
        assert {type(v) for v in config.options["q"]} == {float}
        assert {type(v) for v in config.echo()["exposure"]["q"]} == {float}

    def test_exactly_one_command_block(self):
        with pytest.raises(ConfigError, match="exactly one command block"):
            parse_config({"params": FIG})
        with pytest.raises(ConfigError, match="exactly one command block"):
            parse_config(
                {"params": FIG, "split": {"Q": 1.0, "n": 2}, "peak": {"Q": 1.0, "n": 2, "lam": 0.5}}
            )

    def test_yaml_file_source(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            yaml.safe_dump({"params": FIG, "split": {"Q": 1.0, "n": 3}}), encoding="utf-8"
        )
        config = parse_config(path)
        assert config.command == "split"
        assert config.options == {"Q": 1.0, "n": 3}

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.yaml")

    @pytest.mark.parametrize(
        "entry", [["a", 0.1], [True, 0.2], ["0.5", "0.2"], [0.0, math.inf], [10**400, 0.2]]
    )
    def test_schedule_entries_must_be_finite_numbers(self, entry):
        block = {"schedule": [entry], "S0": 0.05, "T": 2.0, "step": 0.1}
        with pytest.raises(ConfigError, match=r"simulate: schedule\[0\]"):
            parse_config({"params": FIG, "simulate": block})

    def test_overhead_requires_one_parameterisation(self):
        with pytest.raises(ConfigError, match="exactly one of r/Q"):
            parse_config({"params": FIG, "overhead": {"r": 2.0, "Q": 0.7, "k": 0.1}})

    @pytest.mark.parametrize("q", [[1.0, math.nan], [1.0, math.inf], [1.0, -0.5], [1.0, "2"],
                                   [1.0, True], [1.0, 10**400]])
    def test_release_sizes_must_be_finite_and_nonnegative(self, q):
        with pytest.raises(ConfigError, match=r"exposure: q\[1\]"):
            parse_config({"params": FIG, "exposure": {"q": q}})

    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(["numbers", "counts"]), minimum=st.sampled_from([0.0, 1, 2.5]),
           value=st.lists(st.one_of(
               st.integers(-2, 6), st.floats(-1.0, 6.0), st.sampled_from(
                   [True, math.nan, -math.inf, 2.0, 10**400, "1", None, np.float64(1.5)])),
               min_size=1, max_size=6))
    def test_list_items_match_the_item_by_item_check(self, kind, minimum, value):
        # each list item checked on its own and labelled with its index, as before the
        # labels were formatted only for a failing item
        field, item = _Field(kind, minimum=minimum), _Field(kind[:-1], minimum=minimum)

        def outcome(check):
            try:
                return [(type(v), v) for v in check()]
            except ConfigError as exc:
                return str(exc)

        assert outcome(lambda: _check(field, value, "w", "x")) == outcome(
            lambda: [_scalar(v, f"w: x[{i}]", item) for i, v in enumerate(value)])

    def test_release_sizes_must_be_a_list(self):
        with pytest.raises(ConfigError, match="nonempty list"):
            parse_config({"params": FIG, "exposure": {"q": 0.5}})

    @pytest.mark.parametrize("command, block, path", [
        ("split", {"Q": 1.0, "n": 2.0}, ["n"]),
        ("horizon", {"r": 2.0, "h": 1.0, "n_list": [2.0, 3]}, ["n_list", 0]),
        ("phase", {"panel": "b", "r_range": [1.0, 3.0, 2.0]}, ["r_range", 2]),
        ("phase", {"panel": "c", "panel_c": {"n": 2.0}}, ["panel_c", "n"]),
    ])
    def test_integral_float_counts_are_integers(self, command, block, path):
        # JSON Schema's "integer" accepts 2.0, so the contract does too
        value = parse_config({"params": FIG, command: block}).options
        for key in path:
            value = value[key]
        assert value == 2 and type(value) is int  # the config echo prints 2

    @pytest.mark.parametrize("n", [True, 2.5, "2", math.nan, math.inf])
    def test_counts_must_be_integers(self, n):
        with pytest.raises(ConfigError, match="split: field 'n' must be an integer"):
            parse_config({"params": FIG, "split": {"Q": 1.0, "n": n}})

    @pytest.mark.parametrize("value", [True, Decimal("1"), Fraction(1, 2)])
    @pytest.mark.parametrize("name", ["Q", "n"])
    def test_non_numbers_name_the_field(self, name, value):
        # the library's rule: a bool, a Decimal or a Fraction is neither a number nor a count
        block = dict({"Q": 1.0, "n": 2}, **{name: value})
        with pytest.raises(ConfigError, match=f"split: field '{name}' must be "):
            parse_config({"params": FIG, "split": block})

    @pytest.mark.parametrize("name", ["panel", "resolve_integers"])
    def test_integer_past_repr_digits_is_shown_by_length(self, name):
        # repr refuses integers past 4300 digits
        with pytest.raises(ConfigError, match=rf"phase: field '{name}' must be .* "
                                              r"\(got <int with 5001 digits>\)"):
            parse_config({"params": FIG, "phase": {name: 10**5000}})
        with pytest.raises(ConfigError, match=r"unknown key\(s\) <int with 5001 digits>"):
            parse_config({"params": FIG, "phase": {10**5000: name}})

    def test_range_ends_name_the_field(self):
        with pytest.raises(ConfigError, match=r"phase: field 'r_range' min must be >= 0\.0"):
            parse_config({"params": FIG, "phase": {"r_range": [-1.0, 2.0, 5]}})
        with pytest.raises(LeakyStageError, match="r_range must satisfy 0 <= min < max"):
            parse_config({"params": FIG, "phase": {"r_range": [3, 2, 5]}})

    def test_field_errors_come_before_the_rate_ordering(self):
        # a schema-invalid block fails as ConfigError even with misordered rates
        document = {"params": dict(FIG, beta=1.2), "split": {"Q": 1.0, "n": 0}}
        with pytest.raises(ConfigError, match="split: field 'n' must be >= 1"):
            parse_config(document)

    def test_figure_preset_resolves(self):
        config = parse_config(PRESETS["fig-envelope"], command="simulate")
        assert config.params.beta == 0.6 and config.params.rho == 0.5
        assert config.options["S0"] == 0.08
        assert config.options["schedule"][0] == [0.0, 0.46]
        assert len(config.options["schedule"]) == 5

    def test_command_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="configures"):
            parse_config(PRESETS["fig-envelope"], command="peak")


class TestRun:
    def test_split_safe_decomposition(self, figure_params):
        d = derive(figure_params)
        config = parse_config({"params": FIG, "split": {"Q": 3 * d.delta_c, "n": 3}})
        envelope = run(config)
        assert envelope.warnings == ()
        releases = [row[1] for row in envelope.payload["rows"]]
        assert releases == [d.delta_c] * 3
        assert all(row[3] is True for row in envelope.payload["rows"])

    def test_split_nonunique_warns(self):
        config = parse_config({"params": FIG, "split": {"Q": 0.4, "n": 3}})
        envelope = run(config)
        assert any("not unique" in w for w in envelope.warnings)

    def test_overhead_tie_warns(self):
        # at k = k_safe(2.5) the costs of n = 2 and n = 3 tie
        config = parse_config({"params": FIG, "overhead": {"r": 2.5, "k": k_safe(2.5)}})
        envelope = run(config)
        assert envelope.warnings == (
            "cost-optimal count is tied among [2, 3]; smallest reported as n_star",)
        assert [row[0] for row in envelope.payload["rows"] if row[3]] == [2, 3]
        # n = 2 and n = 3 of r = 10.5 about the edge of the tie band, at a cost near 8
        # where the band is relative: over 200 ulps of k the ties keep the rule
        # best + 1e-12 * max(1, best) on the table's own costs
        r = 10.5
        k = excess_exposure(r, 2) - excess_exposure(r, 3)  # the two costs tie
        k += 1e-12 * (2.0 * k + excess_exposure(r, 2))
        for _ in range(100):
            k = math.nextafter(k, 0.0)
        seen = set()
        for _ in range(200):
            rows = run(parse_config({"params": FIG, "overhead": {"r": r, "k": k}})).payload["rows"]
            cost = {row[0]: row[1] for row in rows}
            best = min(cost[2], cost[3])
            ties = [n for n in (2, 3) if cost[n] <= best + 1e-12 * max(1.0, best)]
            assert [row[0] for row in rows if row[3]] == ties, k
            seen.add(len(ties))
            k = math.nextafter(k, math.inf)
        assert seen == {1, 2}

    def test_peak_at_the_critical_level_warns(self):
        # Q = 2 delta_c over three releases at lam = 0.5 peaks at delta_c itself
        config = parse_config({"params": FIG, "peak": {"Q": 0.6666666666666666, "n": 3,
                                                       "lam": 0.5}})
        envelope = run(config)
        assert envelope.warnings == ("peak sits exactly at the critical level (within eps_thr)",)
        assert all(row[5] == 1.0 and row[6] is True for row in envelope.payload["rows"])

    @pytest.mark.parametrize("rates", [FIG, {"beta": 0.1, "mu": 0.3, "delta": 0.9, "rho": 1.0}],
                             ids=["figure", "outward-rounded-ends"])
    def test_peak_verdicts_at_the_ends_of_the_band(self, rates):
        # one release peaks at its size; five ulps about each end of the band about delta_c.
        # is_safe keeps its rule, peak <= delta_c + eps_thr rounded.  The warning holds on
        # the same rounded band, delta_c - eps_thr to delta_c + eps_thr; at the second
        # rates both ends round outwards, where a test of |peak - delta_c| <= eps_thr
        # differs on the end floats
        delta_c = derive(ModelParams(**rates)).delta_c
        for end in (delta_c - 1e-12, delta_c + 1e-12):
            peaks = [end]
            for _ in range(5):
                peaks = [math.nextafter(peaks[0], 0.0), *peaks, math.nextafter(peaks[-1], 1.0)]
            for peak in peaks:
                envelope = run(parse_config({"params": rates,
                                             "peak": {"Q": peak, "n": 1, "lam": 0.5}}))
                [row] = envelope.payload["rows"]
                assert row[3] == peak and row[6] is (peak <= delta_c + 1e-12)
                warned = "peak sits exactly at the critical level (within eps_thr)" in \
                    envelope.warnings
                assert warned is (delta_c - 1e-12 <= peak <= delta_c + 1e-12)

    def test_peak_worked_example(self):
        config = parse_config(PRESETS["peak-c"], command="peak")
        envelope = run(config)
        ratio = envelope.payload["rows"][0][5]
        assert ratio == pytest.approx(0.928, abs=1e-3)
        assert envelope.exit_code == 0

    def test_horizon_infeasible_exit_code(self):
        config = parse_config(
            {"params": FIG, "horizon": {"r": 3.5, "h": 2.0, "n_list": [2, 3]}}
        )
        envelope = run(config)
        assert envelope.exit_code == 2
        assert envelope.payload["rows"][0][4] == "Infeasible"
        assert envelope.payload["rows"][0][5] == "unbounded"

    def test_horizon_worked_example(self):
        config = parse_config(PRESETS["horizon-c"], command="horizon")
        envelope = run(config)
        verdicts = {row[4] for row in envelope.payload["rows"]}
        assert verdicts == {"SafeWithN(3)"}
        b3 = [row[1] for row in envelope.payload["rows"] if row[0] == 3]
        assert b3[0] == pytest.approx(2.264, abs=1e-3)

    def test_phase_loads_up_to_the_bound_finish(self):
        # near r = 1e100 neighbouring counts round to one double, so every cost ties
        envelope = run(parse_config(
            {"params": FIG, "phase": {"panel": "b", "r_range": [1.0, 1e100, 3]}}))
        assert envelope.exit_code == 0
        assert len(envelope.payload["rows"]) == 3 + 3 * 7

    def test_phase_all_panels_are_the_panel_presets_in_order(self):
        # the defaults of a phase block are the ranges of the three panel presets
        rows = run(parse_config({"params": FIG, "phase": {}})).payload["rows"]
        panels = [run(parse_config(preset(name))).payload["rows"]
                  for name in ("panel-a", "panel-b", "panel-c")]
        assert rows == panels[0] + panels[1] + panels[2]
        series = list(dict.fromkeys(row[1] for row in rows))
        assert series == ["B_n", "frontier", "k_safe", "n_star", "uniform_level", "front_level",
                          "uniform_release", "front_release", "uniform_path", "front_path"]

    def test_exposure_table(self):
        config = parse_config({"params": FIG, "exposure": {"q": [0.2, 1.0]}})
        envelope = run(config)
        rows = envelope.payload["rows"]
        assert rows[0][1] == 0.0 and rows[0][3] == 0.0
        assert rows[1][1] > 0.0

    def test_simulate_columns(self):
        config = parse_config(
            {
                "params": FIG,
                "simulate": {"schedule": [[0.0, 0.4]], "S0": 0.05, "T": 2.0, "step": 0.1},
            }
        )
        envelope = run(config)
        assert envelope.payload["columns"] == ["t", "A_red", "S_full", "A_full", "g_full", "g_red"]
        # duplicated pre/post rows at the jump
        assert envelope.payload["rows"][0][0] == envelope.payload["rows"][1][0] == 0.0

    def test_metadata_roundtrip_reproduces_payload(self):
        for name, preset_doc in PRESETS.items():
            command = next(k for k in preset_doc if k != "params")
            first = run(parse_config(preset_doc, command=command), meta_time=False)
            echoed = first.metadata["config"]
            second = run(parse_config(json.loads(json.dumps(echoed))), meta_time=False)
            assert to_csv(first) == to_csv(second), name


class TestEmission:
    def test_csv_uses_17_significant_digits(self):
        config = parse_config({"params": FIG, "exposure": {"q": [1.0]}})
        text = to_csv(run(config, meta_time=False))
        cell = text.splitlines()[-1].split(",")[1]
        from leakystage import ModelParams, exposure_closed_form

        exact = exposure_closed_form(1.0, ModelParams(**FIG)).value
        assert float(cell) == exact  # round-trips to the exact double
        digits = cell.replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) == 17
        assert "," not in cell and "e" not in cell

    def test_json_structure(self):
        config = parse_config({"params": FIG, "overhead": {"r": 0.5, "k": 0.1}})
        document = json.loads(to_json(run(config, meta_time=False)))
        assert set(document) == {"metadata", "payload", "warnings"}
        assert document["metadata"]["delta_c"] == pytest.approx(1 / 3)
        # k_safe is infinite below one threshold unit; JSON carries "inf"
        k_safe_cell = document["payload"]["rows"][0][6]
        assert k_safe_cell == "inf"

    def test_csv_metadata_config_echo_parses(self):
        config = parse_config({"params": FIG, "split": {"Q": 1.0, "n": 3}})
        text = to_csv(run(config, meta_time=False))
        config_line = next(l for l in text.splitlines() if l.startswith("# config="))
        echoed = json.loads(config_line[len("# config=") :])
        assert echoed["split"] == {"Q": 1.0, "n": 3}
        # the file-embedded echo is itself a runnable config
        rerun = to_csv(run(parse_config(echoed), meta_time=False))
        assert rerun == text

    def test_overhead_dimensional_matches_dimensionless(self):
        d = derive(parse_config({"params": FIG, "exposure": {"q": [0.0]}}).params)
        dimensional = run(
            parse_config({"params": FIG, "overhead": {"Q": 0.7, "K": 0.8}}),
            meta_time=False,
        )
        # K rho / gamma = 0.8 * 0.5 / 0.4 = 1
        assert dimensional.metadata["dimensionless"]["k"] == pytest.approx(1.0, rel=1e-12)
        assert dimensional.metadata["dimensionless"]["r"] == pytest.approx(
            0.7 / d.delta_c, rel=1e-12
        )
        dimensionless = run(
            parse_config(
                {
                    "params": FIG,
                    "overhead": {
                        "r": dimensional.metadata["dimensionless"]["r"],
                        "k": dimensional.metadata["dimensionless"]["k"],
                    },
                }
            ),
            meta_time=False,
        )
        assert dimensional.payload["rows"] == dimensionless.payload["rows"]

    def test_simulate_event_at_horizon_end(self):
        config = parse_config(
            {
                "params": FIG,
                "simulate": {"schedule": [[0.0, 0.3], [2.0, 0.2]], "S0": 0.05,
                             "T": 2.0, "step": 0.1},
            }
        )
        envelope = run(config, meta_time=False)
        rows = envelope.payload["rows"]
        assert rows[-1][0] == rows[-2][0] == 2.0  # pre/post samples at the final jump
        assert rows[-1][3] - rows[-2][3] == pytest.approx(0.2, abs=1e-12)


class TestMain:
    def test_preset_runs_deterministically(self, tmp_path):
        for name in PRESETS:
            command = next(k for k in PRESETS[name] if k != "params")
            outputs = []
            for attempt in (1, 2):
                out = tmp_path / f"{name}-{attempt}.csv"
                code = main(
                    [command, "--preset", name, "--out", str(out), "--no-meta-time"]
                )
                assert code == 0, name
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name

    def test_golden_digests_cover_every_preset(self):
        assert sorted(GOLDEN) == sorted(PRESETS)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_preset_output_matches_golden_digest(self, name):
        entry = GOLDEN[name]
        envelope = run(parse_config(preset(name), command=entry["command"]), meta_time=False)
        for fmt, text in (("csv", to_csv(envelope)), ("json", to_json(envelope))):
            assert hashlib.sha256(text.encode()).hexdigest() == entry[fmt], f"{name} {fmt}"

    def test_flags_override_preset(self, tmp_path, capsys):
        code = main(["peak", "--preset", "peak-c", "--n", "4", "--no-meta-time"])
        assert code == 0
        text = capsys.readouterr().out
        assert '"n":4' in text.splitlines()[3]  # config echo carries the override
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 5  # header + 4 stages

    def test_peak_prints_no_level_above_the_peak(self, capsys):
        # the recurrence of the releases settled an ulp above the closed-form peak, and
        # printed it so on 1396 of these 1397 rows
        code = main(["peak", "--lam", "0.03709543994381185", "--n", "1397",
                     "--Q", "1012.2854405333443", *FIG_FLAGS, "--no-meta-time"])
        assert code == 0
        header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                         if not line.startswith("#")]
        level, peak = header.index("post_level"), header.index("peak")
        assert len(rows) == 1397
        assert all(float(row[level]) <= float(row[peak]) for row in rows)

    def test_error_exit_code(self, capsys):
        code = main(["split", "--Q", "1.0"])  # params missing entirely
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_infeasible_exit_code(self, tmp_path):
        code = main(
            [
                "horizon", "--r", "3.5", "--h", "2.0",
                "--beta", "0.6", "--mu", "1.0", "--delta", "1.8", "--rho", "0.5",
                "--out", str(tmp_path / "h.csv"),
            ]
        )
        assert code == 2

    def test_unknown_preset(self, capsys):
        code = main(["peak", "--preset", "nope"])
        assert code == 1
        assert "available" in capsys.readouterr().err

    def test_config_and_preset_together_exit_1(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"params": FIG, "exposure": {"q": [0.5]}}),
                        encoding="utf-8")
        code = main(["simulate", "--config", str(path), "--preset", "fig-envelope"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: use either --config or --preset, not both\n"

    def test_config_file_run(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(
            yaml.safe_dump({"params": FIG, "exposure": {"q": [0.5]}}), encoding="utf-8"
        )
        code = main(["exposure", "--config", str(path), "--format", "json", "--no-meta-time"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["payload"]["rows"][0][0] == 0.5

    @pytest.mark.parametrize("entry", [["a", 0.1], [True, 0.2], ["0.5", "0.2"]])
    def test_bad_schedule_entry_exits_1(self, tmp_path, capsys, entry):
        path = tmp_path / "run.yaml"
        block = {"schedule": [[0.0, 0.3], entry], "S0": 0.05, "T": 2.0, "step": 0.1}
        path.write_text(yaml.safe_dump({"params": FIG, "simulate": block}), encoding="utf-8")
        code = main(["simulate", "--config", str(path), "--no-meta-time"])
        err = capsys.readouterr().err
        assert code == 1
        assert "simulate: schedule[1]" in err
        assert "Traceback" not in err

    def test_overflowing_step_exits_1(self, tmp_path, capsys):
        # a step far too coarse for the rates makes RK4 overflow math.exp
        path = tmp_path / "run.yaml"
        block = {"schedule": [[0.0, 3.0]], "S0": 0.9, "T": 8.0, "step": 2.5}
        path.write_text(yaml.safe_dump({"params": FIG, "simulate": block}), encoding="utf-8")
        code = main(["simulate", "--config", str(path), "--no-meta-time"])
        err = capsys.readouterr().err
        assert code == 1
        assert "RK4 overflowed at step 2.5; reduce the step" in err
        assert "Traceback" not in err

    def test_coarse_step_on_a_long_horizon_names_the_step(self, tmp_path, capsys):
        # alpha * A * ulp(T) is 4.4e-10 at T = 1e6: a finer step resolves the level 3.0
        path = tmp_path / "run.json"
        block = {"schedule": [[0.0, 3.0]], "S0": 0.9, "T": 1e6, "step": 2.5}
        path.write_text(json.dumps({"params": FIG, "simulate": block}), encoding="utf-8")
        code = main(["simulate", "--config", str(path), "--no-meta-time"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: RK4 overflowed at step 2.5; reduce the step\n"

    def test_release_no_step_up_to_the_horizon_resolves_exits_1(self, tmp_path, capsys):
        # the second release at 1e-60 ends the first segment, where the times' spacing
        # still admits the step 1 / (alpha * A); up to T it does not, so the release is
        # named, not the step
        path = tmp_path / "run.json"
        block = {"schedule": [[0.0, 1e70], [1e-60, 1.0]], "S0": 0.1, "T": 1.0, "step": 0.5}
        path.write_text(json.dumps({"params": FIG, "simulate": block}), encoding="utf-8")
        code = main(["simulate", "--config", str(path), "--no-meta-time"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "error: RK4 overflowed on the level A=1e+70 at t=0.0, whose growth rate alpha * A "
            "no step up to T=1.0 resolves; reduce the release\n")

    @pytest.mark.parametrize("step", [0.0001, 0.1])
    def test_overflowing_release_exits_1(self, tmp_path, capsys, step):
        # no step resolves a growth rate alpha * A of about 1.2e60
        path = tmp_path / "run.yaml"
        block = {"schedule": [[0.0, 1e60]], "S0": 0.08, "T": 2.0, "step": step}
        path.write_text(yaml.safe_dump({"params": FIG, "simulate": block}), encoding="utf-8")
        code = main(["simulate", "--config", str(path), "--no-meta-time"])
        err = capsys.readouterr().err
        assert code == 1
        assert "RK4 overflowed on the level A=1e+60 at t=0.0" in err
        assert "reduce the step" not in err
        assert "Traceback" not in err

    def test_unallocatable_step_exits_1(self, capsys):
        # 1e-300 asks for some 1e300 nodes: numpy refuses before allocating anything
        code = main(["simulate", "--preset", "fig-envelope", "--step", "1e-300", "--no-meta-time"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: step size 1e-300 needs more samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("block, message", [
        ("{Q: 1.0, n: " + "1" * 5000 + "}", "has a value YAML cannot read"),
        ("{Q: 1.0, n: 1.0e+300}", "release count n must be small enough to allocate its split"),
    ], ids=["5000-digit-count", "unallocatable-count"])
    def test_unreadable_or_unallocatable_count_exits_1(self, tmp_path, capsys, block, message):
        # YAML's int() refuses more than 4300 digits, and 1e300 releases cannot be
        # allocated
        path = tmp_path / "run.yaml"
        path.write_text(f"params: {json.dumps(FIG)}\nsplit: {block}\n", encoding="utf-8")
        code = main(["split", "--config", str(path), "--no-meta-time"])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, block, message", [
        ("split", "{Q: 1.0, n: 2, 1: 2, x: 3}", "split: unknown key(s) 1, 'x'"),
        ("phase", "{panel: b, r_range: [1.0, 1e50, 3]}",
         "(got '1e50'); the value was read as text: write it as 1.0e+50"),
    ], ids=["mixed-key-types", "number-read-as-text"])
    def test_yaml_key_and_value_types_exit_1(self, tmp_path, capsys, command, block, message):
        path = tmp_path / "run.yaml"
        path.write_text(f"params: {json.dumps(FIG)}\n{command}: {block}\n", encoding="utf-8")
        code = main([command, "--config", str(path), "--no-meta-time"])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("h", ["1000.0", "2.0"])
    def test_huge_panel_c_count_exits_1(self, tmp_path, capsys, h):
        path = tmp_path / "run.yaml"
        path.write_text(f"params: {json.dumps(FIG)}\n"
                        f"phase: {{panel: c, panel_c: {{r: 2.1, n: {2**62}, h: {h}}}}}\n",
                        encoding="utf-8")
        code = main(["phase", "--config", str(path), "--no-meta-time"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: release count n={2**62} " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["r_range", "h_range", "k_range"])
    def test_unallocatable_phase_count_exits_1(self, tmp_path, capsys, field):
        # 2**62 samples fail Python's size check before anything is allocated
        block = {"panel": "a" if field == "h_range" else "b", field: [0.0, 4.0, 2**62]}
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"params": FIG, "phase": block}), encoding="utf-8")
        code = main(["phase", "--config", str(path), "--no-meta-time"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {field} count must be small enough to allocate its grid" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("r, k", [("1e8", "0"), ("1e19", "0.5"), ("1e100", "0.5")])
    def test_overhead_table_at_any_load_is_bounded(self, capsys, r, k):
        # the counts near 1, n_star and ceil r, however large ceil r is
        code = main(["overhead", "--r", r, "--k", k, *FIG_FLAGS, "--no-meta-time"])
        out, err = capsys.readouterr()
        rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
        assert code == 0, err
        assert 7 <= len(rows) <= 14, len(rows)
        assert rows[-1].startswith(f"{int(float(r))},")  # ceil r, an integer here
        # the last stage removes k_safe: the excess at ceil r - 1, about 1/(2r), is no 0
        cells = rows[-2].split(",")
        assert float(cells[2]) > 0.0
        assert float(cells[2]) == float(cells[6])
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["overhead", "--Q", "1e308", "--k", "0.5"],
         "overhead: field 'Q' must be > 0.0 and <= 1e+100 (got 1e+308)"),
        (["horizon", "--Q", "0.7", "--T", "1e308"],
         "horizon: field 'T' must be >= 0.0 and <= 1e+100 (got 1e+308)"),
        (["overhead", "--r", "3", "--K", "1e308"],
         "overhead: field 'K' must be >= 0.0 and <= 1e+100 (got 1e+308)"),
        (["peak", "--Q", "0.7", "--n", "3", "--tau", "1e-17"],
         "recovery rate rho=4.0 and inter-release time tau=1e-17 give a carry-over"),
    ], ids=["Q", "T", "K", "tau"])
    def test_errors_name_the_input_not_its_derived_value(self, capsys, argv, message):
        code = main([*argv, "--beta", "0.6", "--mu", "1.0", "--delta", "1.8", "--rho", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["-1", "1e308"])
    def test_exposure_errors_name_the_config_field(self, capsys, bad):
        # a negative size and one past the domain's bound name the same field, as the
        # config document spells it; the library's own text names its argument sizes[1]
        code = main(["exposure", "--q", "0.5", "--q", bad, *FIG_FLAGS, "--no-meta-time"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: exposure: q[1] ")
        assert "sizes" not in err
        assert "Traceback" not in err

    def test_config_errors_name_the_path_as_typed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.yaml").write_text("params: [unclosed\n", encoding="utf-8")
        assert main(["split", "--config", "./bad.yaml"]) == 1
        assert "config file './bad.yaml' is not valid YAML" in capsys.readouterr().err
        assert main(["split", "--config", "./absent.yaml"]) == 1
        assert "cannot read config file './absent.yaml'" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", ["yaml", "json"])
    def test_config_file_not_utf8_exits_1(self, tmp_path, monkeypatch, capsys, suffix):
        # read_text's UnicodeDecodeError is no OSError, and escaped as a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / f"bad.{suffix}").write_bytes(b"\xff\xfe\x00bad")
        assert main(["peak", "--config", f"./bad.{suffix}"]) == 1
        err = capsys.readouterr().err
        assert f"cannot read config file './bad.{suffix}'" in err
        assert "Traceback" not in err
        with pytest.raises(ConfigError, match="can't decode"):
            parse_config(tmp_path / f"bad.{suffix}")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_stdout_write_exits_1(self):
        # a write to a full device raised OSError past main, and shutdown's flush raised again
        src = str(Path(leakystage.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys\nfrom leakystage.cli import main\nsys.exit(main())\n"
        with open("/dev/full", "w") as full:
            child = subprocess.run(
                [sys.executable, "-c", code, "peak", "--preset", "peak-c", "--no-meta-time"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=path))
        assert child.returncode == 1
        assert child.stderr.startswith("error: cannot write to stdout: ")
        assert "Traceback" not in child.stderr
        assert "Exception ignored" not in child.stderr

    def test_json_file_reads_1e50_as_a_number(self, tmp_path, capsys):
        # YAML 1.1 reads 1e50 as text, JSON as a number: a .json file is read as JSON
        ranges = {"yaml": "[1.0, 1.0e+50, 3]", "json": "[1.0, 1e50, 3]"}
        outputs = {}
        for suffix, text in [("yaml", ranges["yaml"]), ("json", ranges["json"])]:
            path = tmp_path / f"p.{suffix}"
            path.write_text(f'{{"params": {json.dumps(FIG)}, "phase": {{"panel": "b", '
                            f'"r_range": {text}}}}}', encoding="utf-8")
            assert main(["phase", "--config", str(path), "--no-meta-time"]) == 0
            outputs[suffix] = capsys.readouterr().out
        assert outputs["json"] == outputs["yaml"]
        # the same JSON text under a YAML name is read as YAML
        (tmp_path / "p.json").rename(tmp_path / "q.yaml")
        assert main(["phase", "--config", str(tmp_path / "q.yaml"), "--no-meta-time"]) == 1
        assert "the value was read as text" in capsys.readouterr().err

    def test_deeply_nested_yaml_file_exits_1(self, tmp_path, capsys):
        # the YAML composer recursed past the stack and the CLI printed a traceback
        path = tmp_path / "deep.yaml"
        path.write_text("[" * 10**5, encoding="utf-8")
        assert main(["split", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "has a value YAML cannot read" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        '{"params": {"beta": 0.6,', "params: {beta: 0.6}", "[" * 10**5,
        '{"split": {"n": ' + "1" * 5000 + "}}",
    ], ids=["truncated", "yaml", "deep", "5000-digit-count"])
    def test_malformed_json_file_exits_1(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(text, encoding="utf-8")
        assert main(["split", "--config", "./bad.json"]) == 1
        err = capsys.readouterr().err
        assert "config file './bad.json' is not valid JSON" in err
        assert "Traceback" not in err

    def test_tol_flag_overrides_threshold_tolerance(self, capsys):
        # within --tol of the supremal frontier r = 1 + h, the verdict is
        # the boundary classification instead of SafeWithN
        base = ["horizon", "--r", "2.999999", "--h", "2.0",
                "--beta", "0.6", "--mu", "1.0", "--delta", "1.8", "--rho", "0.5",
                "--no-meta-time"]
        assert main(base) == 0
        assert "SafeWithN" in capsys.readouterr().out
        assert main(base + ["--tol", "1e-3"]) == 0
        assert "SupremalBoundary" in capsys.readouterr().out

    def test_non_finite_q_flags_exit_1(self, capsys):
        code = main(["exposure", "--q", "nan", "--q", "inf", *FIG_FLAGS, "--no-meta-time"])
        captured = capsys.readouterr()
        assert code == 1
        assert "exposure: q[0] must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mixed", [["--r", "2.5", "--K", "0.1"], ["--Q", "0.8", "--k", "0.1"]])
    def test_overhead_mixed_pairs(self, capsys, mixed):
        d = derive(parse_config({"params": FIG, "exposure": {"q": [0.0]}}).params)
        # each coordinate picked on its own: k = K rho / gamma, r = Q / delta_c
        if "--K" in mixed:
            r, k = 2.5, 0.1 * FIG["rho"] / d.gamma
        else:
            r, k = 0.8 / d.delta_c, 0.1
        outputs = []
        for flags in (mixed, ["--r", repr(r), "--k", repr(k)]):
            assert main(["overhead", *flags, *FIG_FLAGS, "--no-meta-time"]) == 0
            outputs.append([l for l in capsys.readouterr().out.splitlines()
                            if not l.startswith("# config=")])
        assert outputs[0] == outputs[1]
        assert outputs[0][2] == f"# r={r:.17g} h= k={k:.17g}"

    def test_bad_n_list_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["horizon", "--r", "2.0", "--h", "1.0", "--n-list", "2,x", *FIG_FLAGS])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert "--n-list" in err and "'2,x'" in err

    @pytest.mark.parametrize("integral, literal", [
        (["split", "--Q", "1.0", "--n", "2.0"], ["split", "--Q", "1.0", "--n", "2"]),
        (["peak", "--preset", "peak-c", "--n", "4.0"],
         ["peak", "--preset", "peak-c", "--n", "4"]),
        (["horizon", "--r", "2.0", "--h", "1.0", "--n-list", "2.0,3e0"],
         ["horizon", "--r", "2.0", "--h", "1.0", "--n-list", "2,3"]),
    ])
    def test_integral_float_count_flags_are_integers(self, capsys, integral, literal):
        # a count flag follows the document's rule: 2.0 is 2, in the payload and the echo
        outputs = []
        for argv in (integral, literal):
            assert main([*argv, *FIG_FLAGS, "--no-meta-time"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n", ["2.5", "0"])
    def test_fractional_count_flag_names_the_field(self, capsys, n):
        # a fraction, and a count below 1
        assert main(["split", "--Q", "1.0", "--n", n, *FIG_FLAGS]) == 1
        assert "field 'n'" in capsys.readouterr().err

    def test_non_numeric_count_flag_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["split", "--Q", "1.0", "--n", "x", *FIG_FLAGS])
        assert exit_info.value.code == 1
        assert "argument --n: expected an integer (got 'x')" in capsys.readouterr().err

    def test_repeated_q_flags(self, capsys):
        code = main(["exposure", "--q", "0.2", "--q", "1.0",
                     "--beta", "0.6", "--mu", "1.0", "--delta", "1.8", "--rho", "0.5",
                     "--no-meta-time"])
        assert code == 0
        data_lines = [l for l in capsys.readouterr().out.splitlines()
                      if not l.startswith("#")]
        assert len(data_lines) == 3  # header + two releases

    def test_resolve_integers_flag(self, capsys):
        code = main(["phase", "--preset", "panel-b", "--resolve-integers",
                     "--no-meta-time"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"resolve_integers":true' in out

    def test_json_format_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                main(["phase", "--preset", "panel-c", "--format", "json",
                      "--out", str(out), "--no-meta-time"])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()


#: The messages of the cross-field rules, the only errors a schema-valid
#: document may raise.
CROSS_FIELD_RULES = (
    "shock-sensitive ordering violated",  # beta < mu < delta
    "event times must be strictly increasing",
    "must be >= the last event time",
    "must satisfy 0 <= min < max",  # phase ranges
)


def _documents() -> st.SearchStrategy:
    """Documents over the whole contract, valid and invalid.

    Every command block holds its required fields most of the time and each
    other field (and an unknown key) some of the time; ``params`` is the
    figure rate set or a block of the same kind, and ``eps_thr``, an unknown
    top-level key or a second command block appear now and then.  Values are
    drawn by field kind, with the bounds on both sides (zero, one, negatives,
    integral floats such as ``2.0``), schedules with unsorted times, short or
    long pairs, range triples of any length and order, ``panel_c`` subfields,
    and values of the wrong kind: bools, strings, None, lists and mappings.
    Non-finite floats and integers beyond the float range are not JSON, so
    they are not drawn.
    """

    def weighted(common, rare, odds):  # common odds times in odds + 1
        return st.sampled_from([True] * odds + [False]).flatmap(
            lambda pick: common if pick else rare)

    nothing = st.just({})
    wrong = st.sampled_from([True, False, None, "a", "2", [], {}, [1.0]])
    number = weighted(st.floats(1e-3, 20.0), st.sampled_from(
        [0, 0.0, 1, 1.0, 2.0, 2.5, -1, -0.5]) | st.floats(allow_nan=False, allow_infinity=False), 3)
    count = weighted(st.integers(1, 12), st.integers(-1, 12).map(float)
                     | st.sampled_from([0, -1, 0.0, 2.5]), 3)
    pair = weighted(st.tuples(number, number).map(list), st.lists(number, max_size=3), 3)
    kinds = {
        "number": number,
        "count": count,
        "numbers": st.lists(number, max_size=4),
        "counts": st.lists(count, max_size=4),
        "range": weighted(st.tuples(number, number, count).map(list),
                          st.lists(number | count, max_size=4), 3),
        "schedule": weighted(st.lists(pair, max_size=4).map(sorted),
                             st.lists(pair, max_size=4), 1),
        "enum": st.sampled_from(["a", "b", "c", "all", "d", "A"]),
        "bool": st.booleans(),
    }

    def value(field) -> st.SearchStrategy:
        return weighted(block(field) if field.kind == "object" else kinds[field.kind], wrong, 7)

    def entry(name, strategy, odds):  # {name: value} odds times in odds + 1, else {}
        return weighted(strategy.map(lambda v: {name: v}), nothing, odds)

    def merged(*parts):
        return st.tuples(*parts).map(lambda ds: {k: v for d in ds for k, v in d.items()})

    def block(field) -> st.SearchStrategy:
        return merged(*[entry(name, value(sub), 7 if sub.required else 1)
                        for name, sub in field.fields.items()],
                      weighted(nothing, number.map(lambda v: {"bogus": v}), 7))

    def document(command: str) -> st.SearchStrategy:
        other = st.sampled_from([c for c in COMMANDS if c != command])
        return merged(
            entry("params", weighted(st.just(FIG), value(_DOCUMENT.fields["params"]), 2), 15),
            entry(command, value(_FIELDS[command]), 15),
            entry("eps_thr", value(_DOCUMENT.fields["eps_thr"]), 1),
            weighted(nothing, number.map(lambda v: {"bogus": v}) | other.map(lambda c: {c: {}}), 7),
        )

    return st.one_of(*map(document, COMMANDS))


def _accepted_documents() -> st.SearchStrategy:
    """Documents with every required field and one field of each exclusive
    pair, with values in range: the overhead loads up to the domain's bound,
    every other magnitude within 1e3."""
    size = st.floats(0.0, 1.0) | st.floats(0.0, 1e3)
    wide = size | st.floats(0.0, 1e100)
    count = st.integers(1, 40)

    def one(*choices):  # one field of an exclusive pair
        return st.sampled_from(choices).flatmap(lambda c: c[1].map(lambda v: {c[0]: v}))

    def merged(*parts):
        return st.tuples(*parts).map(lambda ds: {k: v for d in ds for k, v in d.items()})

    load, fixed = one(("r", size), ("Q", size)), st.fixed_dictionaries({"Q": size, "n": count})
    n_list = st.fixed_dictionaries({}, optional={"n_list": st.lists(count, min_size=1)})
    blocks = {
        "overhead": merged(one(("r", wide), ("Q", wide)), one(("k", size), ("K", size))),
        "horizon": merged(load, one(("h", size), ("T", size)), n_list),
        "peak": merged(fixed, one(("lam", st.floats(0.0, 1.0, exclude_max=True)), ("tau", size))),
        "split": fixed,
    }
    return st.sampled_from(sorted(blocks)).flatmap(
        lambda command: blocks[command].map(lambda block: {"params": FIG, command: block})
    )


class TestSchemaContract:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_table_fields_are_the_schema_fields(self, command):
        assert list(_FIELDS[command].fields) == list(SCHEMA["properties"][command]["properties"])

    def test_commands_and_params_are_the_schema_ones(self):
        assert [entry["required"] for entry in SCHEMA["oneOf"]] == [[c] for c in COMMANDS]
        assert list(_PARAMS) == list(SCHEMA["properties"]["params"]["properties"])

    @settings(max_examples=600, deadline=None)
    @given(_documents())
    def test_schema_accepts_exactly_what_parse_config_accepts(self, document):
        jsonschema = pytest.importorskip("jsonschema")
        valid = jsonschema.Draft202012Validator(SCHEMA).is_valid(document)
        try:
            parse_config(document)
            error = None
        except LeakyStageError as exc:
            error = exc
        if valid:
            assert error is None or any(rule in str(error) for rule in CROSS_FIELD_RULES), error
        else:
            assert isinstance(error, ConfigError), document

    @settings(max_examples=400, deadline=None)
    @given(_accepted_documents())
    def test_accepted_documents_run_or_raise_leakystage_errors(self, document):
        try:
            run(parse_config(document), meta_time=False)
        except LeakyStageError:
            pass


    def test_presets_validate_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        for name, document in PRESETS.items():
            jsonschema.validate(document, SCHEMA)

    def test_schema_rejects_unknown_keys(self):
        jsonschema = pytest.importorskip("jsonschema")
        bad = {"params": FIG, "split": {"Q": 1.0, "n": 2}, "bogus": True}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, SCHEMA)

    def test_committed_schema_is_the_generated_one(self):
        text = (ROOT / "config.schema.json").read_text(encoding="utf-8")
        assert text == json.dumps(schema(), indent=2) + "\n"
