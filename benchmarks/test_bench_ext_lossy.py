"""Benchmark for Extension E1: the Figure-4 scenario over per-link
lossy channels with ARQ.

Paper future work; the delay guarantee is only claimed for the ideal
channel.
"""

from conftest import bench_duration

from repro.experiments import format_sweep


def test_bench_extension_lossy_channel(run_once, sweep_runner):
    result = run_once(sweep_runner.run, "lossy_channel",
                      overrides={"duration_seconds": bench_duration(3.0)})
    print("\n" + format_sweep(result))
    rows = [row["mean"] for row in result.rows]
    assert rows[0]["gs_retransmissions"] == 0
    assert rows[-1]["gs_retransmissions"] > 0
