"""Smoke test of the benchmark: every workload at a tiny length.

Each run must report exactly the metric names and units BENCHMARK.json
declares, with no failed operation, and a traced run's folded self
times must account for its traced wall time, so no layer silently drops
out of the table.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    DECLARED = json.load(handle)

#: simulated seconds per run (per sweep point), a few seconds of test time
TINY_LENGTHS = {
    "figure4_gilbert_interference": 1.0,
    "crowded_room_coupled_64": 0.05,
    "paper_sweeps": 0.2,
}


def bench(workload, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--length", str(TINY_LENGTHS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in DECLARED["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_tiny_run_reports_declared_metrics(workload, trace, section):
    result = bench(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in DECLARED[section]}
    reported = {name: entry["unit"]
                for name, entry in result["metrics"].items()}
    assert reported == declared
    if trace:
        # cProfile charges part of its own cost outside any function
        coverage = result["metrics"]["trace.self_sum_ratio"]["value"]
        assert 0.9 <= coverage <= 1.02
