"""Benchmark for Ablation A: GS-flow delays under the surveyed
baseline pollers vs. PFP.

Paper Section 3: none of the existing pollers guarantees delay bounds.
"""

from conftest import bench_duration

from repro.experiments import format_sweep


def test_bench_ablation_baselines(run_once, sweep_runner):
    result = run_once(sweep_runner.run, "baseline_comparison",
                      overrides={"duration_seconds": bench_duration(3.0)})
    print("\n" + format_sweep(result))
    by_name = {row["mean"]["poller"]: row["mean"] for row in result.rows}
    assert by_name["pfp (this paper)"]["bound_met"]
