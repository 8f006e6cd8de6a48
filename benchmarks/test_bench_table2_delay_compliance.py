"""Benchmark for Table 2: delay-bound compliance of the GS flows.

Paper: the requested delay bound is never exceeded.
"""

from conftest import bench_duration

from repro.experiments import format_sweep


def test_bench_table2_delay_compliance(run_once, sweep_runner):
    result = run_once(sweep_runner.run, "delay_compliance",
                      overrides={"duration_seconds": bench_duration(5.0)})
    print("\n" + format_sweep(result))
    rows = [row["mean"] for row in result.rows]
    assert rows
    assert all(row["bound_respected"] for row in rows)
