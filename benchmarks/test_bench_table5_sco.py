"""Benchmark for Table 5: 64 kbit/s voice over a reserved SCO channel
vs. over a PFP-scheduled GS flow.

Paper: PFP approaches SCO's delay while leaving slots free for BE traffic
or retransmissions.
"""

from conftest import bench_duration

from repro.experiments import format_sweep


def test_bench_table5_sco_comparison(run_once, sweep_runner):
    result = run_once(sweep_runner.run, "sco_comparison",
                      overrides={"duration_seconds": bench_duration(10.0)})
    print("\n" + format_sweep(result))
    sco, pfp = (row["mean"] for row in result.rows)
    assert pfp["slots_consumed_per_s"] < sco["slots_consumed_per_s"]
