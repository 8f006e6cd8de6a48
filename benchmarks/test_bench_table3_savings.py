"""Benchmark for Table 3: slots consumed by GS polling, fixed-interval
vs. variable-interval (PFP) poller.

Paper: the variable-interval poller saves bandwidth usable for BE traffic
or retransmissions.
"""

from conftest import bench_duration

from repro.experiments import format_sweep


def test_bench_table3_bandwidth_savings(run_once, sweep_runner):
    result = run_once(sweep_runner.run, "bandwidth_savings",
                      overrides={"duration_seconds": bench_duration(4.0)})
    print("\n" + format_sweep(result))
    rows = [row["mean"] for row in result.rows]
    assert rows
    assert all(row["slots_saved"] > 0 for row in rows)
