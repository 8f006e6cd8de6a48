"""Shared-clock coordination of several co-simulated components.

The single-piconet experiments each own a private
:class:`~repro.sim.engine.Environment`.  Scatternet and multi-piconet
scenarios instead need several otherwise independent simulations — two
masters' TDD loops, their traffic sources — to advance on *one* clock so
that cross-cutting state (a bridge node's presence, an interference
field's slot index) means the same instant everywhere.

:class:`SharedClock` is that one clock: components are built against its
``env``, register a human-readable name for error reporting, and the whole
ensemble advances together through :meth:`run`.  The event queue already
interleaves all registered processes deterministically (time, then
insertion order), so co-simulation needs no further machinery — the value
of this class is making the sharing *explicit* and preventing the classic
mistake of calling one component's own ``run`` method, which would advance
its private view of the clock past everybody else.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baseband.constants import SLOT_US
from repro.sim.engine import Environment


class SharedClock:
    """One simulation clock driving several co-simulated components."""

    def __init__(self, env: Optional[Environment] = None):
        self.env = env if env is not None else Environment()
        self._members: Dict[str, object] = {}

    def register(self, name: str, member: object) -> None:
        """Attach a component (e.g. a piconet) to this clock by name."""
        if name in self._members:
            raise ValueError(f"component {name!r} already registered")
        member_env = getattr(member, "env", None)
        if member_env is not None and member_env is not self.env:
            raise ValueError(
                f"component {name!r} was built against a different "
                f"Environment; pass SharedClock.env when constructing it")
        self._members[name] = member

    def member(self, name: str) -> object:
        try:
            return self._members[name]
        except KeyError:
            known = ", ".join(sorted(self._members)) or "<none>"
            raise KeyError(
                f"unknown component {name!r}; registered: {known}") from None

    @property
    def now_seconds(self) -> float:
        return self.env.now / 1_000_000.0

    @property
    def now_slot(self) -> int:
        """The current instant on the 625 µs slot grid — the index the
        interference field's occupancy rows are keyed by."""
        return self.env.now // SLOT_US

    def run(self, duration_seconds: float) -> None:
        """Advance every registered component by ``duration_seconds``.

        Components must already have scheduled their processes (e.g. via
        ``Piconet.start()`` / ``TrafficSource.start()``); the shared event
        queue interleaves them deterministically.
        """
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        until = self.env.now + int(round(duration_seconds * 1_000_000))
        self.env.run(until=until)
