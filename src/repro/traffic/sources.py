"""Traffic sources.

Sources offer higher-layer packets to a flow's queue.  The paper's
evaluation uses CBR sources with a uniformly distributed packet size for the
Guaranteed Service flows and fixed-size CBR sources for the best-effort
flows; Poisson, on/off and trace-driven sources are provided for the
examples and the extension experiments.

A source's generator yields integer microsecond delays and runs as a
:class:`~repro.sim.events.Wakeup`, one bare heap entry per arrival, which
a master's :class:`~repro.sim.events.LoopWakeup` may fire inline.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple, Union

from repro.sim.events import Wakeup

SizeSpec = Union[int, Tuple[int, int]]

_US_PER_SECOND = 1_000_000


def _to_us(seconds: float) -> int:
    return int(round(seconds * _US_PER_SECOND))


class TrafficSource:
    """Base class: binds a piconet flow to a packet-generation process."""

    def __init__(self, piconet, flow_id: int, size: SizeSpec,
                 rng: Optional[random.Random] = None,
                 start_offset: float = 0.0):
        self.piconet = piconet
        self.flow_id = flow_id
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

    def _emit(self) -> None:
        size = self.next_size()
        self.piconet.offer_packet(self.flow_id, size)
        self.packets_generated += 1
        self.bytes_generated += size

    def _intervals(self):
        """Yield successive inter-packet gaps in seconds (subclasses override)."""
        raise NotImplementedError

    def _delay_us(self, target_us: float) -> int:
        """Clamped integer delay that tracks a continuous-time target.

        Rounding every gap independently accumulates drift (a 1.4 us gap
        rounded to 1 us inflates the emitted rate by 40%), and clamping to
        the 1 us simulation resolution caps the rate at one packet per
        microsecond.  Scheduling against the cumulative target keeps the
        long-run emitted rate equal to the nominal rate for any gap that is
        representable (>= 1 us on average); the clamp only binds when the
        nominal rate genuinely exceeds the simulator's resolution.
        """
        return max(1, int(round(target_us)) - self.piconet.env.now)

    def _run(self):
        """Yield the delay (integer us) to each next wake-up."""
        env = self.piconet.env
        if self.start_offset > 0:
            yield _to_us(self.start_offset)
        target_us = float(env.now)
        for gap in self._intervals():
            if self._stopped:
                return
            self._emit()
            target_us += gap * _US_PER_SECOND
            # Cap how far the target may fall behind the clock at the 0.5 us
            # that integer rounding alone can produce: a larger deficit only
            # builds up while the >=1 us clamp binds (nominal rate above the
            # simulator resolution) and must not be "repaid" later as an
            # unrealistic burst.
            target_us = max(target_us, env.now - 0.5)
            yield self._delay_us(target_us)


class CBRSource(TrafficSource):
    """Constant-bit-rate source: one packet every ``interval`` seconds."""

    def __init__(self, piconet, flow_id: int, interval: float, size: SizeSpec,
                 rng: Optional[random.Random] = None, start_offset: float = 0.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        super().__init__(piconet, flow_id, size, rng, start_offset)
        self.interval = interval

    @classmethod
    def from_rate(cls, piconet, flow_id: int, rate_bps: float, size: SizeSpec,
                  rng: Optional[random.Random] = None,
                  start_offset: float = 0.0) -> "CBRSource":
        """Build a CBR source from a target bit rate and packet size."""
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if isinstance(size, tuple):
            mean_size = (size[0] + size[1]) / 2
        else:
            mean_size = size
        interval = mean_size * 8 / rate_bps
        return cls(piconet, flow_id, interval, size, rng, start_offset)

    def _intervals(self):
        while True:
            yield self.interval


class PoissonSource(TrafficSource):
    """Packets arrive as a Poisson process of the given rate."""

    def __init__(self, piconet, flow_id: int, rate_packets_per_second: float,
                 size: SizeSpec, rng: Optional[random.Random] = None,
                 start_offset: float = 0.0):
        if rate_packets_per_second <= 0:
            raise ValueError("rate must be positive")
        super().__init__(piconet, flow_id, size, rng, start_offset)
        self.rate = rate_packets_per_second

    def _intervals(self):
        while True:
            yield self.rng.expovariate(self.rate)


class OnOffSource(TrafficSource):
    """Exponential on/off source; CBR with ``interval`` while on."""

    def __init__(self, piconet, flow_id: int, interval: float, size: SizeSpec,
                 mean_on: float = 1.0, mean_off: float = 1.0,
                 rng: Optional[random.Random] = None, start_offset: float = 0.0):
        if min(interval, mean_on, mean_off) <= 0:
            raise ValueError("interval, mean_on and mean_off must be positive")
        super().__init__(piconet, flow_id, size, rng, start_offset)
        self.interval = interval
        self.mean_on = mean_on
        self.mean_off = mean_off

    def _run(self):
        if self.start_offset > 0:
            yield _to_us(self.start_offset)
        while not self._stopped:
            on_duration = self.rng.expovariate(1.0 / self.mean_on)
            # Account the on-period in *simulated* time: the per-emission
            # delay is clamped to the 1 us resolution, so accumulating the
            # nominal interval instead would stretch sub-microsecond
            # intervals into on-periods (and emitted packet counts) that
            # diverge from the simulation clock.
            on_started = self.piconet.env.now
            target_us = float(on_started)
            while self.piconet.env.now - on_started < _to_us(on_duration):
                if self._stopped:
                    return
                self._emit()
                target_us += self.interval * _US_PER_SECOND
                target_us = max(target_us, self.piconet.env.now - 0.5)
                yield self._delay_us(target_us)
            off_duration = self.rng.expovariate(1.0 / self.mean_off)
            yield max(1, _to_us(off_duration))


class TraceSource(TrafficSource):
    """Replays an explicit ``(time_seconds, size_bytes)`` trace."""

    def __init__(self, piconet, flow_id: int,
                 trace: Sequence[Tuple[float, int]],
                 start_offset: float = 0.0):
        super().__init__(piconet, flow_id, size=0, start_offset=start_offset)
        self.trace: List[Tuple[float, int]] = sorted(trace)

    def _run(self):
        if self.start_offset > 0:
            yield _to_us(self.start_offset)
        origin = self.piconet.env.now
        for when, size in self.trace:
            target = origin + _to_us(when)
            delay = target - self.piconet.env.now
            if delay > 0:
                yield delay
            if self._stopped:
                return
            self.piconet.offer_packet(self.flow_id, size)
            self.packets_generated += 1
            self.bytes_generated += size
