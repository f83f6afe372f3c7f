"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "montecarlo": {"invariance": 400, "sweep": 100},
    "deep-ball": {"radius": 3, "batch": 2},
    "exact": {"indices": (3, 4), "random_index": 4, "enum_index": 3},
}


def tiny_run(name: str, trace: bool) -> dict:
    return run.measure(name, seed=7, seconds=0, trace=trace, sizes=TINY[name])


@pytest.fixture(scope="module")
def traced():
    return {name: tiny_run(name, True) for name in run.WORKLOADS}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, capsys):
    result = tiny_run(name, False)
    assert result["correct"] and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())

    run.report(name, 7, False, result)
    lines = capsys.readouterr().out.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert any(line.startswith("fail_ratio 0 ") for line in lines)
    for metric, _value, unit, _note in result["named"]:
        assert any(line.startswith(f"{metric} ") and f" {unit}" in line
                   for line in lines)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, traced):
    result = traced[name]
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert (run.BENCH / "out" / f"trace-{name}-seed7.json").is_file()


def test_traced_runs_bypass_the_layers_they_should(traced):
    def value(name, metric):
        return traced[name]["metrics"][metric]["value"]

    assert value("exact", "randomness.digest_calls") == 0
    assert value("deep-ball", "analysis.fingerprint_calls") == 0
    for metric in ("sgr.emit_self_s", "sgr.parse_self_s", "sgr.bytes"):
        assert value("deep-ball", metric) > 0
        assert value("montecarlo", metric) == 0
        assert value("exact", metric) == 0
    # rank 2: 3^n mark assignments for the index-3, index-4 and random
    # index-4 bases, 3^2 * (1 + 3 * 2) assignments and slots for index 3
    assert value("exact", "normalizer.enum_outcomes") == 27 + 81 + 81 + 9 * 7


def test_tracer_puts_the_program_back(traced):
    randomness = sys.modules["irslab.randomness"]
    normalizer = sys.modules["irslab.normalizer"]
    assert normalizer.digest128 is randomness.digest128
    assert randomness.digest128.__qualname__ == "digest128"
    assert "neighbor" in vars(sys.modules["irslab.poulsen"].PoulsenOracle)
    assert normalizer.NormalizerOracle.neighbor.__qualname__ == \
        "NormalizerOracle.neighbor"


def test_corrupted_expected_value_raises_fail_ratio(monkeypatch):
    monkeypatch.setitem(workloads.CYCLIC_AUT_TRIVIAL, 3, Fraction(56, 64))
    result = tiny_run("exact", False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any("cyclic index 3" in p for p in result["problems"])


def test_tail_needs_ten_samples_beyond_it():
    assert workloads.tail_rank(10) is None
    assert workloads.tail_rank(11) == 0
    _p50, tail, how = workloads.percentile_report(range(100))
    assert tail == 89 and how == "p90, n=100"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
