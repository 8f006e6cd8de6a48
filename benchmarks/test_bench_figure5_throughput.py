"""Benchmark/driver for Figure 5: throughput vs. requested delay bound.

Paper: GS slaves flat at 64/128/64 kbit/s; BE slaves at their offered load
for loose bounds, squeezed and fairly shared for tight bounds; total max
656 kbit/s.

Runs the sweep through the orchestrator so ``pytest benchmarks --workers N``
parallelises the delay-requirement points.
"""

from conftest import bench_duration

from repro.experiments import format_sweep
from repro.experiments.figure5 import default_delay_requirements


def test_bench_figure5_throughput(run_once, sweep_runner):
    result = run_once(
        sweep_runner.run, "figure5",
        overrides={"delay_requirement": default_delay_requirements(points=5),
                   "duration_seconds": bench_duration(5.0)})
    print("\n" + format_sweep(result))
    rows = [row["mean"] for row in result.rows]
    assert all(row["admitted"] for row in rows)
    assert all(not row["gs_bound_violated"] for row in rows)
    # the Figure-5 shape: GS throughput flat, BE grows with looser bounds
    for row in rows:
        assert abs(row["S1"] - 64.0) < 5.0
        assert abs(row["S2"] - 128.0) < 8.0
        assert abs(row["S3"] - 64.0) < 5.0
