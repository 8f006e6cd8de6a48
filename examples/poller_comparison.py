#!/usr/bin/env python3
"""Compare PFP's Guaranteed Service polling against the surveyed baselines.

Runs the paper's Figure-4 traffic under the PFP poller and under each
baseline poller from the Section-3 survey (the registered
``baseline_comparison`` sweep), and prints the worst GS-packet delay per
poller against the requested bound — the baselines routinely miss it, PFP
never does.

Run with:  python examples/poller_comparison.py [duration_s]
"""

import sys

from repro.experiments import SweepRunner, format_sweep


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 10.0
    result = SweepRunner(backend="serial").run(
        "baseline_comparison",
        overrides={"delay_requirement": 0.040, "duration_seconds": duration})
    print(format_sweep(result))


if __name__ == "__main__":
    main()
