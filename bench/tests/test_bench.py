"""Tests of the benchmark itself (``python -m pytest bench/tests``).

Not part of tier-1: ``pyproject.toml``'s ``testpaths`` does not reach
here, so a slow or noisy host cannot turn the benchmark's own smoke run
into a tier-1 failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402
from stats import halves_ratio, percentile, spread  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str, out: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--out", out, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180)


def test_benchmark_json_names_what_the_runner_emits():
    doc = _benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in doc["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert "setup_s" in run.END_TO_END
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_smoke_emits_every_metric_for_every_workload(tmp_path):
    out = str(tmp_path / "smoke.json")
    done = _run("--smoke", "--trace", out=out)
    assert done.returncode == 0, done.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        records = json.load(fh)["runs"]
    seen = {(r["workload"], r["trace"]) for r in records}
    assert seen == {(name, mode) for name in WORKLOADS for mode in (0, 1)}
    for record in records:
        expected = run.PER_LAYER if record["trace"] else run.END_TO_END
        assert {n: m["unit"] for n, m in record["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float))
                   for m in record["metrics"].values())
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1
        assert set(record["stamp"]) == {"commit", "nproc", "python",
                                        "journal_fs", "transport"}
        if not record["trace"]:
            assert all(m["value"] > 0 for m in record["metrics"].values())
    for name in WORKLOADS:
        assert os.path.getsize(os.path.join(BENCH, "out", f"trace-{name}.jsonl"))
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0


def test_one_workload_prints_the_contract_line(tmp_path):
    done = _run("--smoke", "--workload", "exec_5ms", "--seed", "7",
                "--seconds", "1", "--trace", "0", out=str(tmp_path / "one.json"))
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == run.END_TO_END


def test_a_corrupted_result_fails_the_run(tmp_path):
    done = _run("--smoke", "--workload", "burst_sleep0", "--inject-corruption",
                out=str(tmp_path / "bad.json"))
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_inputs_are_a_function_of_the_seed():
    def schedule(seed: int) -> bytes:
        return json.dumps(Inputs(seed, "paced_durable").poisson_ticks(500.0, 30.0)).encode()

    assert schedule(11) == schedule(11)
    assert schedule(11) != schedule(12)
    ticks = json.loads(schedule(11))
    assert len(ticks) == 3000 and 14_000 < sum(ticks) < 16_000
    first = [s.task_id for s in Inputs(3, "burst_sleep0").specs(50)]
    assert first == [s.task_id for s in Inputs(3, "burst_sleep0").specs(50)]
    assert not set(first) & {s.task_id for s in Inputs(4, "burst_sleep0").specs(50)}
    assert len(set(first)) == 50


def _result_set(scale: dict[str, float]) -> dict[str, list[dict]]:
    base = {"setup_s": 0.4, "tasks_per_s": 7000.0, "sustain_ratio": 0.9,
            "latency_p50_ms": 400.0, "latency_p90_ms": 700.0,
            "peak_rss_mb": 430.0}
    runs = []
    for wobble in (0.99, 1.0, 1.01):
        runs.append({"valid": True, "correct": True, "metrics": {
            name: {"value": value * wobble * scale.get(name, 1.0)}
            for name, value in base.items()}})
    return {"burst_sleep0": runs}


def test_compare_passes_identical_sets_and_flags_a_throughput_drop():
    bounds = compare.load_bounds()
    rows = compare.compare(_result_set({}), _result_set({}), bounds)
    assert len(rows) == len(bounds)
    assert {row["verdict"] for row in rows} == {"ok"}

    # A 20 % drop is only a regression under a bound tighter than 20 %;
    # pin one so the test states what it checks, whatever BENCHMARK.json
    # settles on for this noisy class of host.
    tight = {name: dict(spec, bound=0.10) for name, spec in bounds.items()}
    rows = compare.compare(_result_set({}), _result_set({"tasks_per_s": 0.8}), tight)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts.pop("tasks_per_s") == "regressed"
    assert set(verdicts.values()) == {"ok"}

    # Faster is never a regression.
    rows = compare.compare(_result_set({}), _result_set({"tasks_per_s": 1.5}), tight)
    assert {row["verdict"] for row in rows} == {"ok"}

    # A run that flagged itself invalid is left out, not compared ...
    late = _result_set({})
    late["burst_sleep0"][0]["valid"] = False
    late["burst_sleep0"][0]["metrics"]["tasks_per_s"]["value"] = 1.0
    rows = compare.compare(_result_set({}), late, tight)
    assert {row["verdict"] for row in rows} == {"ok"}
    # ... and with fewer than two runs left there is nothing to compare.
    late["burst_sleep0"][1]["valid"] = False
    rows = compare.compare(_result_set({}), late, tight)
    assert {row["verdict"] for row in rows} == {"unresolved"}


def test_compare_reports_a_wide_spread_as_unresolved():
    bounds = {"tasks_per_s": {"name": "tasks_per_s", "unit": "tasks/s",
                              "better": "higher", "bound": 0.10}}

    def runs(values):
        return {"w": [{"valid": True, "correct": True,
                       "metrics": {"tasks_per_s": {"value": v}}} for v in values]}

    (row,) = compare.compare(runs([100, 140, 180]), runs([105, 138, 175]), bounds)
    assert row["verdict"] == "unresolved"
    (row,) = compare.compare(runs([100, 140, 180]), runs([190, 200, 250]), bounds)
    assert row["verdict"] == "ok"  # every run of B beats every run of A


def test_order_statistics():
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([5.0], 50) == 5.0
    assert percentile([], 50) == 0.0
    assert spread([10, 10, 10, 10]) == 0.0
    assert spread([1.0]) == 0.0
    # 4 waves of 100 tasks: 1 s each, then 2 s each -> half the rate.
    assert halves_ratio([(100, 1), (100, 1), (100, 2), (100, 2)]) == pytest.approx(0.5)
    assert halves_ratio([(100, 1)]) == 0.0
    # Twenty seconds whose medians read 1..20 ms: the lowest decile is
    # nearest rank 2 of 20, and stalling sixteen of them does not move it.
    seconds = [[float(i)] * 9 + [500.0] for i in range(1, 21)]
    assert run.quiet_latency(seconds, 50) == 2.0
    assert run.quiet_latency(seconds[:4] + [[300.0] * 10] * 16, 50) == 2.0
    assert run.quiet_latency(seconds, 100) == 500.0
    assert run.quiet_latency([[], [7.0]], 50) == 7.0  # an empty unit is skipped
    assert run.quiet_latency([], 50) == 0.0
