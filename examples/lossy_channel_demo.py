#!/usr/bin/env python3
"""Future-work scenario: Guaranteed Service polling over lossy links.

The paper's evaluation assumes an ideal radio environment and notes that the
slots saved by the variable-interval poller could pay for retransmissions in
a non-ideal one.  This example runs the registered ``lossy_channel`` sweep:
the Figure-4 scenario over the per-link channel subsystem — every
(slave, direction) link carries its own independently seeded channel model —
at increasing bit error rates, and shows how delays and the failure
decomposition (missed packets vs. CRC failures) grow while throughput is
preserved by ARQ.  A second sweep gives every link a bursty Gilbert-Elliott
fade process instead: its bad state holds ~10% of the time with a mean
dwell of 50 slots, scaled to the same long-run mean BER.

Run with:  python examples/lossy_channel_demo.py [duration_s]
"""

import sys

from repro.experiments import SweepRunner, format_sweep


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 5.0
    runner = SweepRunner(backend="serial")
    for title, model in (
            ("Independent bit errors, one channel per link:", "iid"),
            ("Bursty (Gilbert-Elliott) fades, one burst state per link:",
             "gilbert")):
        result = runner.run("lossy_channel", overrides={
            "channel_model": model, "duration_seconds": duration})
        print(f"{title}\n{format_sweep(result)}\n")


if __name__ == "__main__":
    main()
