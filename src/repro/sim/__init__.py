"""Discrete-event simulation kernel.

This package is the simulation substrate of the reproduction.  The paper
evaluated its polling mechanisms on ns-2 with Bluetooth extensions; here a
small, dependency-free discrete-event engine plays that role.

The design follows the familiar process-interaction style (generator
coroutines), so simulation code reads like the pseudo-code in the paper.
Every simulation generator only waits for time: it yields plain delays
and runs as a :class:`Wakeup`, one heap entry per wake-up (a traffic
source, for instance):

    def source(queue):
        while True:
            yield 20_000                       # 20 ms in microseconds
            queue.put(Packet(...))

    Wakeup(env, source(queue))

A master's TDD loop and every timeline runner run as a
:class:`~repro.sim.events.LoopWakeup`: when nothing else is due before
its next step it resumes at once, without the heap round trip, and a
traffic source due first fires inline.  Heap order, event ids and
results are those of the plain wake-up.  Wake-ups are the only entries
of the heap, apart from the stop entry of ``Environment.run(until)``.

Public API
----------
Environment
    The event loop and simulation clock.
Wakeup
    The heap entry that drives a generator of plain delays.
Monitor
    Per-flow sample collection and summary statistics.
RandomStreams, derive_seed
    Named, independently seeded random-number streams.
"""

from repro.sim.engine import Environment
from repro.sim.events import Wakeup
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams, derive_seed

__all__ = [
    "Environment",
    "Monitor",
    "RandomStreams",
    "derive_seed",
    "Wakeup",
]
