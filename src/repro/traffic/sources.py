"""The constant-bit-rate traffic source.

A source offers higher-layer packets to a flow's queue.  The paper's
evaluation uses CBR sources with a uniformly distributed packet size for the
Guaranteed Service flows and fixed-size CBR sources for the best-effort
flows; :class:`CBRSource` is the one source every scenario builds.

A source is its own heap entry: firing it offers one packet and re-arms
it with the next event id, so each arrival is one entry, which a
master's :class:`~repro.sim.events.LoopWakeup` fires inline when it is
due first.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Optional, Tuple, Union

from repro.baseband.constants import seconds_to_us

SizeSpec = Union[int, Tuple[int, int]]

_US_PER_SECOND = 1_000_000


def _size_draw(size) -> Tuple[int, int]:
    """``(low, span)`` of a size: a fixed size draws nothing (span 0), a
    range ``low + randbelow(span)`` (a range draws even when
    ``low == high``)."""
    if size.__class__ is int and size > 0:
        return size, 0
    if size.__class__ is tuple and len(size) == 2 \
            and size[0].__class__ is int and size[1].__class__ is int \
            and 0 < size[0] <= size[1]:
        return size[0], size[1] - size[0] + 1
    raise ValueError(f"size must be a positive int or an int range "
                     f"(low, high) with 0 < low <= high, got {size!r}")


class CBRSource:
    """Constant-bit-rate source: one packet every ``interval`` seconds,
    of a fixed ``size`` or drawn uniformly from a ``(low, high)`` range."""

    def __init__(self, piconet, flow_id: int, interval: float,
                 size: SizeSpec, rng: Optional[random.Random] = None,
                 start_offset: float = 0.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._low, self._span = _size_draw(size)
        self.piconet = piconet
        self.env = piconet.env
        self.flow_id = flow_id
        self.interval = interval
        self.start_offset = start_offset
        self.packets_generated = 0
        self.bytes_generated = 0
        self._randbelow = (rng if rng is not None
                           else random.Random(0))._randbelow
        self._step_us = interval * _US_PER_SECOND
        #: the piconet's offer path, bound at the first wake-up
        self._offer = None
        self._target_us = 0.0
        self._started = False
        self._stopped = False

    # -- life cycle ------------------------------------------------------------
    def start(self) -> None:
        """Start generating packets (idempotent): the first wake-up fires
        now, and the first packet now or after ``start_offset``."""
        if not self._started:
            self._started = True
            self.env._schedule(self)

    def stop(self) -> None:
        """Stop generating packets (terminal; a timeline ``flow-remove``
        or a GS eviction).

        The source's next wake-up ends it without emitting or scheduling
        anything; packets already offered stay wherever they are queued.
        A stopped source never restarts.
        """
        self._stopped = True

    def _fire(self) -> None:
        """Offer one packet and re-arm at the next arrival.

        The delay tracks a continuous-time target: rounding every gap
        independently accumulates drift (a 1.4 us gap rounded to 1 us
        inflates the emitted rate by 40%), and clamping to the 1 us
        simulation resolution caps the rate at one packet per
        microsecond.  Scheduling against the cumulative target keeps the
        long-run emitted rate equal to the nominal rate for any interval
        of at least 1 us; the clamp only binds when the nominal rate
        genuinely exceeds the simulator's resolution.
        """
        env = self.env
        now = env._now
        offer = self._offer
        if offer is None:
            # the wake-up at start binds the offer path; a start offset
            # waits as a wake-up of its own, so it takes one event id
            self._offer = offer = self.piconet.offer_packet
            if self.start_offset > 0:
                delay = seconds_to_us(self.start_offset)
                self._target_us = float(now + delay)
                env._schedule(self, delay)
                return
            self._target_us = float(now)
        if self._stopped:
            return
        span = self._span
        size = self._low + self._randbelow(span) if span else self._low
        offer(self.flow_id, size)
        self.packets_generated += 1
        self.bytes_generated += size
        target_us = self._target_us + self._step_us
        # Cap how far the target may fall behind the clock at the 0.5 us
        # that integer rounding alone can produce: a larger deficit only
        # builds up while the >=1 us clamp binds (nominal rate above the
        # simulator resolution) and must not be "repaid" later as an
        # unrealistic burst.
        if target_us < now - 0.5:
            target_us = now - 0.5
        self._target_us = target_us
        delay = int(round(target_us)) - now
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue,
                 (now + delay if delay > 1 else now + 1, eid, self))
