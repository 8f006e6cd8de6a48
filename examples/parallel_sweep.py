#!/usr/bin/env python3
"""Parallel sweep orchestration: replicated experiments with confidence
intervals, a process-pool backend and live progress reporting.

Runs the paper's lossy-channel extension as a 4-point sweep with 3 seed
replications per point, fanned out over the ``batch`` backend's process
pool (12 tasks on 4 workers, one task per chunk), and prints the aggregated
mean ± CI table.  Results are cached on disk, so re-running the script only
executes combinations it has not seen before — and a per-task progress
callback reports completions as they happen.

The same sweep from the command line:

    python -m repro.experiments run lossy_channel \
        --backend batch --workers 4 --replications 3 --progress \
        --set duration_seconds=2.0

Run with:  python examples/parallel_sweep.py [--duration S] [--workers N]
"""

import argparse

from repro.experiments import SweepRunner, format_sweep


def report(progress) -> None:
    """A custom progress callback: one line per completed task.

    The runner also delivers ``event="start"`` notifications the moment a
    worker picks a task up (from a helper thread on the ``batch`` pool) —
    this demo only prints completions, so it filters them out.
    """
    if progress.event != "done":
        return
    marker = "cache" if progress.cached else "ran"
    print(f"  [{progress.completed:2d}/{progress.total}] "
          f"{progress.experiment} point {progress.point_index} "
          f"rep {progress.replication} ({marker}, "
          f"{progress.elapsed_seconds:.2f}s elapsed)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=2.0,
                        help="simulated seconds per point "
                             "(default: %(default)s)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes (default: %(default)s)")
    args = parser.parse_args()
    runner = SweepRunner(max_workers=args.workers, cache_dir=".repro-cache",
                         backend="batch", progress=report)
    result = runner.run(
        "lossy_channel",
        overrides={"duration_seconds": args.duration},  # keep the demo quick
        replications=3,
        master_seed=0)
    print(format_sweep(result))
    print(f"\n{result.tasks_total} tasks, {result.tasks_run} executed, "
          f"{result.cache_hits} served from the cache "
          f"(backend: {result.backend})")
    # every aggregated row carries the per-metric confidence bounds
    worst = max(result.rows, key=lambda row: row["mean"]["gs_max_delay_ms"])
    low, high = worst["ci"]["gs_max_delay_ms"]
    print(f"worst GS max delay: {worst['mean']['gs_max_delay_ms']:.2f} ms "
          f"(95% CI [{low:.2f}, {high:.2f}]) at BER "
          f"{worst['point']['bit_error_rate']}")


if __name__ == "__main__":
    main()
