"""The constant-bit-rate traffic source.

A source offers higher-layer packets to a flow's queue.  The paper's
evaluation uses CBR sources with a uniformly distributed packet size for the
Guaranteed Service flows and fixed-size CBR sources for the best-effort
flows; :class:`CBRSource` is the one source every scenario builds.

A source's generator yields integer microsecond delays and runs as a
:class:`~repro.sim.events.Wakeup`, one bare heap entry per arrival, which
a master's :class:`~repro.sim.events.LoopWakeup` may fire inline.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple, Union

from repro.baseband.constants import seconds_to_us
from repro.sim.events import Wakeup

SizeSpec = Union[int, Tuple[int, int]]

_US_PER_SECOND = 1_000_000


class CBRSource:
    """Constant-bit-rate source: one packet every ``interval`` seconds,
    of a fixed ``size`` or drawn uniformly from a ``(low, high)`` range."""

    def __init__(self, piconet, flow_id: int, interval: float, size: SizeSpec,
                 rng: Optional[random.Random] = None, start_offset: float = 0.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.piconet = piconet
        self.flow_id = flow_id
        self.interval = interval
        self.size = size
        self.rng = rng if rng is not None else random.Random(0)
        self.start_offset = start_offset
        self.packets_generated = 0
        self.bytes_generated = 0
        self._wakeup: Optional[Wakeup] = None
        self._stopped = False

    # -- packet sizes ----------------------------------------------------------
    def next_size(self) -> int:
        if isinstance(self.size, tuple):
            low, high = self.size
            if low.__class__ is int and high.__class__ is int and low <= high:
                # exactly the draw randint(low, high) makes, without its
                # randrange argument checks
                return low + self.rng._randbelow(high - low + 1)
            return self.rng.randint(low, high)
        return int(self.size)

    # -- life cycle ------------------------------------------------------------
    def start(self) -> None:
        """Start generating packets (idempotent): the first wake-up fires
        now, or after ``start_offset``."""
        if self._wakeup is None:
            self._wakeup = Wakeup(self.piconet.env, self._run())

    def stop(self) -> None:
        """Stop generating packets (terminal; a timeline ``flow-remove``
        or a GS eviction).

        The generator returns at its next wake-up without emitting or
        scheduling anything; packets already offered stay wherever they
        are queued.  A stopped source never restarts.
        """
        self._stopped = True

    def _run(self):
        """Yield the delay (integer us) to each next wake-up.

        The delay tracks a continuous-time target: rounding every gap
        independently accumulates drift (a 1.4 us gap rounded to 1 us
        inflates the emitted rate by 40%), and clamping to the 1 us
        simulation resolution caps the rate at one packet per
        microsecond.  Scheduling against the cumulative target keeps the
        long-run emitted rate equal to the nominal rate for any interval
        of at least 1 us; the clamp only binds when the nominal rate
        genuinely exceeds the simulator's resolution.
        """
        env = self.piconet.env
        offer_packet = self.piconet.offer_packet
        next_size = self.next_size
        flow_id = self.flow_id
        interval = self.interval
        if self.start_offset > 0:
            yield seconds_to_us(self.start_offset)
        target_us = float(env._now)
        while not self._stopped:
            size = next_size()
            offer_packet(flow_id, size)
            self.packets_generated += 1
            self.bytes_generated += size
            now = env._now
            target_us += interval * _US_PER_SECOND
            # Cap how far the target may fall behind the clock at the 0.5 us
            # that integer rounding alone can produce: a larger deficit only
            # builds up while the >=1 us clamp binds (nominal rate above the
            # simulator resolution) and must not be "repaid" later as an
            # unrealistic burst.
            if target_us < now - 0.5:
                target_us = now - 0.5
            delay = int(round(target_us)) - now
            yield delay if delay > 1 else 1
