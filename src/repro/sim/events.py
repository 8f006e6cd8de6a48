"""The entries of the discrete-event heap.

Every heap entry is ``(time, id, entry)``, and the environment fires it
by calling ``entry._fire()``.  There are three kinds.  A
:class:`LoopWakeup` drives a generator that yields integer delays (every
piconet master's TDD loop and every timeline runner) and resumes without
the heap round trip whenever nothing else is due first.  A traffic
source (:class:`repro.traffic.CBRSource`) is its own entry: firing it
offers one packet and re-arms it.  A :class:`Stop` entry ends
:meth:`~repro.sim.engine.Environment.run` at its ``until``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Generator


class StopSimulation(Exception):
    """Raised by a :class:`Stop` entry to end the run at its time."""


class Stop:
    """The entry :meth:`~repro.sim.engine.Environment.run` pushes for its
    ``until``: firing it ends the run."""

    __slots__ = ()

    def _fire(self) -> None:
        raise StopSimulation


class LoopWakeup:
    """Drives a generator of delays and skips its heap round trip when it
    can.

    The first entry is pushed at creation, at the current time.  Each
    resume yields the delay to the next one: the wake-up takes the event
    id re-arming at ``now + delay`` would take and looks at the heap top.
    Another loop wake-up that sorts before ``(when, id)`` gets the entry
    pushed and waits its turn.  Any other entry that sorts before it (a
    traffic source, the stop entry) fires inline: it is popped, the clock
    moves to its time and it fires.  When nothing sorts before it, the
    clock moves to ``when`` and the generator resumes at once.  So times,
    event ids and the order of every firing are those of a wake-up that
    re-arms through the heap each time, and so is the heap when an inline
    entry raises: the entry is pushed before the exception leaves.  An
    entry that is not a loop wake-up must therefore never read the heap
    when it fires; it may push itself.

    A finished generator schedules nothing; an exception inside it
    propagates out of :meth:`Environment.step`.  Nothing can wait on a
    wake-up.
    """

    __slots__ = ("env", "_next")

    def __init__(self, env, generator: Generator):
        self.env = env
        self._next = generator.__next__
        env._schedule(self)

    def _fire(self) -> None:
        env = self.env
        queue = env._queue
        advance = self._next
        while True:
            try:
                delay = advance()
            except StopIteration:
                return
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            when = env._now + delay
            eid = env._eid
            env._eid = eid + 1
            key = (when, eid)
            while queue and queue[0] < key:
                entry = queue[0][2]
                if entry.__class__ is LoopWakeup:
                    heappush(queue, (when, eid, self))
                    return
                env._now = heappop(queue)[0]
                try:
                    entry._fire()
                except BaseException:
                    heappush(queue, (when, eid, self))
                    raise
            env._now = when
