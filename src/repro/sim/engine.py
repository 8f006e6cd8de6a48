"""The discrete-event loop.

The environment keeps a priority queue of ``(time, id, entry)`` tuples
(the loop wake-ups and the stop entry are defined in
:mod:`repro.sim.events`; a traffic source is an entry of its own).  Ties
on time are broken by insertion order, which makes runs fully
deterministic.

Time is a plain number.  The Bluetooth layers of this project use integer
microseconds so that the 625 us slot grid is exact, but the kernel itself is
unit-agnostic.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.sim.events import Stop, StopSimulation


class EmptySchedule(Exception):
    """Raised when the event queue runs dry before the requested time."""


class Environment:
    """Execution environment of a simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0``).
    """

    def __init__(self, initial_time: float = 0):
        self._now = initial_time
        self._queue: List[tuple] = []
        self._eid = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self):
        """Current simulation time."""
        return self._now

    # -- scheduling ------------------------------------------------------------
    def _schedule(self, entry, delay=0) -> None:
        heapq.heappush(self._queue, (self._now + delay, self._eid, entry))
        self._eid += 1

    def step(self) -> None:
        """Fire the next scheduled entry.

        Raises
        ------
        EmptySchedule
            If there are no scheduled entries left.
        """
        try:
            when, _eid, entry = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None
        if when < self._now:  # pragma: no cover - defensive
            raise RuntimeError("event scheduled in the past")
        self._now = when
        entry._fire()

    def run(self, until=None) -> None:
        """Run until the clock reaches ``until``, or, when ``until`` is
        ``None``, until the queue is empty."""
        if until is not None:
            if until < self._now:
                raise ValueError(
                    f"until={until!r} lies in the past (now={self._now!r})")
            # scheduled last, so that entries scheduled for exactly `until`
            # before run() was called still fire
            self._schedule(Stop(), until - self._now)

        try:
            while True:
                self.step()
        except (StopSimulation, EmptySchedule):
            pass
