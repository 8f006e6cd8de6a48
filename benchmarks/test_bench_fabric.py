"""Fabric dispatch benchmark: serial vs remote-loopback points/sec.

The remote backend pays for worker spawn, socket framing and coordinator
round trips; this benchmark measures that overhead directly by sweeping a
24-point *analytic* grid (the per-point compute is ~free, so wall clock is
dispatch cost) through the serial backend and through spawned loopback
workers at 1, 2 and 4 processes.  Rates land in ``BENCH_fabric.json`` via
:mod:`record` — "slots" here are sweep points, so rates are points per
wall-second.  ``speedup`` (remote_w2 over serial) is expected to stay well
below 1 on an analytic grid: the artifact records the fabric's fixed
overhead trajectory across PRs, not a win.
"""

import json
import time

from record import record

from repro.experiments.orchestrator import SweepRunner
from repro.fabric.backend import RemoteBackend

#: an analytic grid wide enough that dispatch dominates measurement noise
RATES = [8000.0 + 500.0 * step for step in range(24)]
OVERRIDES = {"rate_bytes_per_second": RATES}

SCENARIO = "analytic_24pt"

#: recorded with the serial variant so the artifact explains its speedup
SLOW_REMOTE_NOTE = (
    "24 analytic points: each remote run spawns its local workers, so "
    "worker start-up dominates and remote stays slower than serial. "
    "`--backend remote --workers N` is this spawn-local mode.")


def _sweep(backend=None):
    runner = SweepRunner(max_workers=1, backend=backend)
    started = time.perf_counter()
    result = runner.run("admission_capacity", overrides=OVERRIDES)
    return result, time.perf_counter() - started


def test_bench_fabric_dispatch_overhead():
    serial_result, serial_wall = _sweep()
    record("fabric", SCENARIO, "serial", len(RATES), serial_wall,
           extra={"note": SLOW_REMOTE_NOTE},
           reference_variant="serial", fast_variant="remote_w2")
    print(f"\nfabric dispatch, {len(RATES)} analytic points")
    print(f"  {'serial':<10} {len(RATES) / serial_wall:>12.0f} points/s")

    serial_rows = json.loads(serial_result.to_json())["rows"]
    for workers in (1, 2, 4):
        backend = RemoteBackend(max_workers=workers, chunk_size=2)
        result, wall = _sweep(backend=backend)
        # the numbers only mean something if the rows are right
        assert json.loads(result.to_json())["rows"] == serial_rows
        stats = backend.last_stats
        record("fabric", SCENARIO, f"remote_w{workers}", len(RATES), wall,
               extra={"workers": workers,
                      "chunks_dispatched": stats["chunks_dispatched"],
                      "chunks_stolen": stats["chunks_stolen"],
                      "workers_lost": stats["workers_lost"]},
               reference_variant="serial", fast_variant="remote_w2")
        print(f"  {f'remote_w{workers}':<10} {len(RATES) / wall:>12.0f} "
              f"points/s ({stats['chunks_dispatched']} chunks)")
        assert stats["workers_lost"] == 0
