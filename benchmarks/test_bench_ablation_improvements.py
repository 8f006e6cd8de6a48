"""Benchmark for Ablation B: contribution of the three Section-3.2
improvements of the variable-interval poller.

Expected: slots saved while keeping the delay bound.
"""

from conftest import bench_duration

from repro.experiments import format_sweep


def test_bench_ablation_improvements(run_once, sweep_runner):
    result = run_once(sweep_runner.run, "improvement_ablation",
                      overrides={"duration_seconds": bench_duration(3.0)})
    print("\n" + format_sweep(result))
    assert all(row["mean"]["bound_met"] for row in result.rows)
