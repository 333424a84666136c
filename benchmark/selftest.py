"""Tests of the benchmark itself. Not collected by the repository's test run
(the file name does not match ``test_*.py``); run them with

    python3 -m pytest benchmark/selftest.py -q

The smoke test runs every workload briefly in both modes, so the whole file
takes two to three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from client import Client  # noqa: E402
from layers import oracle_answers  # noqa: E402
from spans import SpanLog  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_names_only_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # the engine's own failures (answer-stream can stall; see README.md) show
    # in these counts rather than failing this test of the output format
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("failed_frac ") for line in lines)


def _burst(**changes) -> Workload:
    return replace(WORKLOADS["goal-burst"], **changes)


def test_gate_counts_a_goal_whose_multiset_differs_from_the_oracle():
    goals = [f"rand_tree({s},6,3)" for s in (11, 12, 13)]
    expected, _ = oracle_answers(goals, SpanLog(enabled=False))
    wrong = goals[1]
    assert expected[wrong], "the tampered goal needs at least one answer"
    expected[wrong] = expected[wrong] - Counter({next(iter(expected[wrong])): 1})
    client = Client(_burst(), SpanLog(enabled=False))
    try:
        phase = client.run_phase(goals, expected, seconds=1.0)
    finally:
        client.close()
    assert phase.failed >= 1
    assert all(e.startswith(wrong) and "differs from the oracle's" in e
               for e in phase.errors)
    assert all(r.goal != wrong and r.error is None for r in phase.results)
    assert 0 < phase.failed / phase.attempted < 1


def test_a_goal_past_its_deadline_is_torn_down_and_counted():
    goals = ["queens(9)"]
    expected, _ = oracle_answers(goals, SpanLog(enabled=False))
    client = Client(_burst(deadline_s=0.001), SpanLog(enabled=False))
    try:
        phase = client.run_phase(goals, expected, seconds=0.2)
    finally:
        client.close()
    assert phase.failed == phase.attempted >= 2 and not phase.results
    assert all("GoalDeadline" in e for e in phase.errors)


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "goal-burst", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
