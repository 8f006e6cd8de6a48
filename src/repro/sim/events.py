"""The entries of the discrete-event heap.

Every heap entry is ``(time, id, entry)``, and the environment fires it
by calling ``entry._fire()``.  There are two kinds.  A :class:`Wakeup`
drives a generator that yields integer delays, one entry per wake-up:
traffic sources run as plain wake-ups, and every piconet master's TDD
loop and every timeline runner as a :class:`LoopWakeup`, which resumes
without the heap round trip whenever nothing else is due first.  A
:class:`Stop` entry ends :meth:`~repro.sim.engine.Environment.run` at
its ``until``.
"""

from __future__ import annotations

from heapq import heappush
from typing import Generator


class StopSimulation(Exception):
    """Raised by a :class:`Stop` entry to end the run at its time."""


class Stop:
    """The entry :meth:`~repro.sim.engine.Environment.run` pushes for its
    ``until``: firing it ends the run."""

    __slots__ = ()

    def _fire(self) -> None:
        raise StopSimulation


class Wakeup:
    """Drives a generator of delays, one heap entry per wake-up.

    Firing the entry advances the generator and re-arms the wake-up at
    ``now + delay`` with the next event id.  The first entry is pushed
    at creation, at the current time.  A finished generator schedules
    nothing; an exception inside it propagates out of
    :meth:`Environment.step`.  Nothing can wait on a wake-up.

    A plain ``Wakeup`` promises that firing it only offers packets and
    re-arms itself (traffic sources), so a :class:`LoopWakeup` may fire
    it inline; a generator that does more runs as a ``LoopWakeup``.
    """

    __slots__ = ("env", "_next")

    def __init__(self, env, generator: Generator):
        self.env = env
        self._next = generator.__next__
        env._schedule(self)

    def _fire(self) -> None:
        try:
            delay = self._next()
        except StopIteration:
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now + delay, eid, self))


class LoopWakeup(Wakeup):
    """A :class:`Wakeup` that skips its heap round trip when it can.

    It drives a piconet master's TDD loop and every timeline runner.
    After each step it takes the event id re-arming would take and looks
    at the heap top: a plain :class:`Wakeup` that sorts before ``(when,
    id)`` fires inline through :meth:`Environment.step`; anything else
    that sorts before it (another loop, the stop entry) gets the entry
    pushed and waits its turn; when nothing does, the clock moves to
    ``when`` and the generator resumes at once.  So times, event ids
    and the order of every firing are those of the heap path, and so is
    the heap when an inline wake-up raises: the entry is pushed before
    the exception leaves.
    """

    __slots__ = ()

    def _fire(self) -> None:
        env = self.env
        queue = env._queue
        step = env.step
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
                if queue[0][2].__class__ is not Wakeup:
                    heappush(queue, (when, eid, self))
                    return
                try:
                    step()
                except BaseException:
                    heappush(queue, (when, eid, self))
                    raise
            env._now = when
