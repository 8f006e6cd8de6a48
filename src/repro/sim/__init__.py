"""Discrete-event simulation kernel.

This package is the simulation substrate of the reproduction.  The paper
evaluated its polling mechanisms on ns-2 with Bluetooth extensions; here a
small, dependency-free discrete-event engine plays that role.

The design follows the familiar process-interaction style (generator
coroutines), so simulation code reads like the pseudo-code in the paper.
A generator that only waits for time yields plain delays and runs as a
:class:`Wakeup`, one heap entry per wake-up (traffic sources, and every
piconet master's TDD loop):

    def source(queue):
        while True:
            yield 20_000                       # 20 ms in microseconds
            queue.put(Packet(...))

    Wakeup(env, source(queue))

A master's loop runs as a :class:`~repro.sim.events.LoopWakeup`: when
nothing else is due before its next step it resumes at once, without the
heap round trip, and a traffic source due first fires inline.  Heap
order, event ids and results are those of the plain wake-up.

A generator that waits on other events (a timeline runner) yields them
and runs as a :class:`Process`.

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
