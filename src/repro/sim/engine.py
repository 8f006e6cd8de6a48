"""The discrete-event loop.

The environment keeps a priority queue of ``(time, sequence, event)``
tuples.  Ties on time are broken by insertion order, which makes runs fully
deterministic.

Time is a plain number.  The Bluetooth layers of this project use integer
microseconds so that the 625 us slot grid is exact, but the kernel itself is
unit-agnostic.
"""

from __future__ import annotations

import heapq
from typing import Generator, List, Tuple

from repro.sim.events import Event, Process, Timeout


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at ``until``."""

    @classmethod
    def callback(cls, event: Event) -> None:
        raise cls


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
        self._queue: List[Tuple[float, int, Event]] = []
        self._eid = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self):
        """Current simulation time."""
        return self._now

    # -- event creation -------------------------------------------------------
    def timeout(self, delay, value=None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    # -- scheduling ------------------------------------------------------------
    def _schedule(self, event: Event, delay=0) -> None:
        heapq.heappush(self._queue, (self._now + delay, self._eid, event))
        self._eid += 1

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If there are no scheduled events left.
        """
        try:
            when, _eid, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None
        if when < self._now:  # pragma: no cover - defensive
            raise RuntimeError("event scheduled in the past")
        self._now = when

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Unhandled failure: abort the run loudly.
            raise event._value

    def run(self, until=None) -> None:
        """Run until the clock reaches ``until``, or, when ``until`` is
        ``None``, until the queue is empty."""
        if until is not None:
            if until < self._now:
                raise ValueError(
                    f"until={until!r} lies in the past (now={self._now!r})")
            # scheduled last, so that events scheduled for exactly `until`
            # before run() was called are still executed
            stop_event = Timeout(self, until - self._now)
            stop_event.callbacks.append(StopSimulation.callback)

        try:
            while True:
                self.step()
        except (StopSimulation, EmptySchedule):
            pass
