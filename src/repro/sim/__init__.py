"""Discrete-event simulation kernel.

This package is the simulation substrate of the reproduction.  The paper
evaluated its polling mechanisms on ns-2 with Bluetooth extensions; here a
small, dependency-free discrete-event engine plays that role.

The design follows the familiar process-interaction style (generator
coroutines), so simulation code reads like the pseudo-code in the paper.
A simulation generator only waits for time: it yields plain delays and
runs as a :class:`LoopWakeup` (a piconet master's TDD loop, a timeline
runner):

    def master(piconet):
        while True:
            ...                                # one transaction
            yield 2 * 625                      # its slots, in microseconds

    LoopWakeup(env, master(piconet))

When nothing else is due before its next step the wake-up resumes at
once, without the heap round trip, and an entry due first that is not
another loop (a traffic source, the stop entry) fires inline.  Heap
order, event ids and results are those of a wake-up that re-arms
through the heap each time.  A traffic source needs no generator: a
:class:`~repro.traffic.CBRSource` is its own heap entry.  Loop
wake-ups, sources and the stop entry of ``Environment.run(until)`` are
the only entries of the heap.

Public API
----------
Environment
    The event loop and simulation clock.
LoopWakeup
    The heap entry that drives a generator of plain delays.
Monitor
    Per-flow sample collection and summary statistics.
RandomStreams, derive_seed
    Named, independently seeded random-number streams.
"""

from repro.sim.engine import Environment
from repro.sim.events import LoopWakeup
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams, derive_seed

__all__ = [
    "Environment",
    "LoopWakeup",
    "Monitor",
    "RandomStreams",
    "derive_seed",
]
