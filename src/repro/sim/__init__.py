"""Discrete-event simulation kernel.

This package is the simulation substrate of the reproduction.  The paper
evaluated its polling mechanisms on ns-2 with Bluetooth extensions; here a
small, dependency-free discrete-event engine plays that role.

The design follows the familiar process-interaction style (generator
coroutines yielding events), so simulation code reads like the pseudo-code
in the paper:

    def source(env, queue):
        while True:
            yield env.timeout(20_000)          # 20 ms in microseconds
            queue.put(Packet(...))

Public API
----------
Environment
    The event loop and simulation clock.
Event, Timeout, Process, Wakeup
    Event primitives (a wake-up drives a generator of plain delays).
SharedClock
    One clock shared by several co-simulated components.
Monitor
    Per-flow sample collection and summary statistics.
RandomStreams, derive_seed
    Named, independently seeded random-number streams.
"""

from repro.sim.coordination import SharedClock
from repro.sim.engine import Environment
from repro.sim.events import Event, Process, Timeout, Wakeup
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams, derive_seed

__all__ = [
    "Environment",
    "Event",
    "Monitor",
    "Process",
    "RandomStreams",
    "derive_seed",
    "SharedClock",
    "Timeout",
    "Wakeup",
]
