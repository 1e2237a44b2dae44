"""Self-tests of the benchmark harness, at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

They show that every workload runs and reports every declared metric, and
that a wrong output (a corrupted golden digest, a payload perturbed by one
ulp) is counted as a failed op instead of passing or crashing the run.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def test_declared_workloads_exist():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    result, info = run.measure(name, seed=7, seconds=0.4, trace=trace, scale=0.02)
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_same_seed_same_inputs():
    ctx = run.Context(run.ROOT)
    a, b = (workloads.EnvelopeVerify(ctx, 3, 0.02) for _ in range(2))
    assert [a.make(i).size for i in range(6)] == [b.make(i).size for i in range(6)]


def test_timing_summary_percentiles():
    summary = run.timing_summary([i / 1e3 for i in range(100, 0, -1)], 90.0)
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["tail_ms"] == pytest.approx(90.1)
    assert summary["samples_beyond_tail"] == 10
    assert summary["ops_per_s"] == pytest.approx(100 / 5.05)


def test_corrupted_golden_digest_is_a_failed_op(tmp_path, monkeypatch):
    golden = json.loads(workloads.GOLDEN_PATH.read_text(encoding="utf-8"))
    for entry in golden.values():
        entry["csv"] = entry["json"] = "0" * 64
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setattr(workloads, "GOLDEN_PATH", corrupted)
    result, info = run.measure("cli-presets", seed=0, seconds=0.1, trace=False)
    assert result["failed"] >= 1 and not result["correct"]
    assert info["error_rate"] > 0
    assert "digest differs" in info["failures"][0]


def test_perturbed_payload_is_a_failed_op(monkeypatch):
    import leakystage.cli

    original = leakystage.cli.to_json

    def off_by_one_ulp(envelope):
        rows = [list(row) for row in envelope.payload["rows"]]
        rows[0][-1] = math.nextafter(rows[0][-1], math.inf)
        payload = dict(envelope.payload, rows=rows)
        return original(leakystage.cli.OutputEnvelope(envelope.metadata, payload,
                                                      envelope.warnings, envelope.exit_code))

    monkeypatch.setattr(leakystage.cli, "to_json", off_by_one_ulp)
    result, info = run.measure("bulk-emit", seed=0, seconds=0.1, trace=False, scale=0.02)
    assert result["failed"] == result["attempted"] and info["error_rate"] == 1.0
    assert "JSON row 0 does not round-trip" in info["failures"][0]


def test_round_trip_check_accepts_exact_output():
    import leakystage.cli as cli

    envelope = cli.run(cli.parse_config({
        "params": {"beta": 0.6, "mu": 1.0, "delta": 1.8, "rho": 0.5},
        "overhead": {"r": 7.5, "k": 0.1},
    }), meta_time=False)
    assert workloads.round_trip_error(envelope.payload, cli.to_csv(envelope),
                                      cli.to_json(envelope)) is None


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
