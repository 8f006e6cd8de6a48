"""Benchmark for Table 4: GS flows accepted with and without
piggybacking-aware admission control.

Paper: piggybacking makes it possible to accept more GS flows.
"""

from repro.experiments import format_sweep


def test_bench_table4_admission_capacity(run_once, sweep_runner):
    result = run_once(sweep_runner.run, "admission_capacity")
    print("\n" + format_sweep(result))
    rows = [row["mean"] for row in result.rows]
    assert any(row["accepted_with_piggyback"] > row["accepted_without_piggyback"]
               for row in rows)
