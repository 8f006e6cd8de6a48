"""Token-bucket traffic specifications (TSpec).

The Guaranteed Service approach (RFC 2212, Section 2 of the paper) describes
a flow with a token bucket: peak rate ``p``, token rate ``r``, bucket size
``b``, minimum policed unit ``m`` and maximum transfer unit ``M``.  All
rates are in bytes per second and all sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class TSpec:
    """A token-bucket traffic specification.

    Parameters
    ----------
    p:
        Peak rate in bytes per second.
    r:
        Token (sustained) rate in bytes per second.
    b:
        Bucket size in bytes.
    m:
        Minimum policed unit in bytes (packets smaller than ``m`` are
        counted as ``m`` bytes).
    M:
        Maximum transfer unit in bytes.
    """

    p: float
    r: float
    b: float
    m: int
    M: int

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError(f"token rate must be positive, got {self.r}")
        if self.p < self.r:
            raise ValueError(f"peak rate {self.p} smaller than token rate {self.r}")
        if self.b <= 0:
            raise ValueError(f"bucket size must be positive, got {self.b}")
        if self.m <= 0:
            raise ValueError(f"minimum policed unit must be positive, got {self.m}")
        if self.M < self.m:
            raise ValueError(f"MTU {self.M} smaller than minimum policed unit {self.m}")
        if self.b < self.M:
            raise ValueError(
                f"bucket size {self.b} must be at least the MTU {self.M} "
                "(a single maximum-size packet must be conformant)")

    def arrival_curve(self, interval: float) -> float:
        """Maximum bytes the flow may send in any window of ``interval`` seconds.

        ``A(t) = min(M + p*t, b + r*t)`` — the standard dual-token-bucket
        arrival curve used by Guaranteed Service.
        """
        if interval < 0:
            raise ValueError("interval must be non-negative")
        return min(self.M + self.p * interval, self.b + self.r * interval)

    def scaled(self, factor: float) -> "TSpec":
        """A TSpec with both rates scaled by ``factor`` (sizes unchanged)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return TSpec(p=self.p * factor, r=self.r * factor, b=self.b,
                     m=self.m, M=self.M)


def cbr_tspec(packet_interval: float, min_size: int, max_size: int) -> TSpec:
    """TSpec of a CBR source emitting one packet of ``[min_size, max_size]``
    bytes every ``packet_interval`` seconds.

    This is exactly the construction of Section 4.1 of the paper: with fixed
    inter-packet intervals and a bounded packet size, ``p = r = M / interval``
    and ``b = M``; the paper's GS flows (144..176 bytes every 20 ms) give
    ``p = r = 8.8 kB/s, b = M = 176 B, m = 144 B``.
    """
    if packet_interval <= 0:
        raise ValueError("packet interval must be positive")
    if not 0 < min_size <= max_size:
        raise ValueError("need 0 < min_size <= max_size")
    rate = max_size / packet_interval
    return TSpec(p=rate, r=rate, b=float(max_size), m=min_size, M=max_size)


class TokenBucket:
    """An operational token bucket, used to police or to check conformance.

    The bucket holds at most ``spec.b`` bytes worth of tokens and refills at
    ``spec.r`` bytes per second.  ``conforms``/``consume`` implement the
    standard test "a packet of size L at time t conforms iff the bucket
    holds at least L tokens after refilling up to t".
    """

    def __init__(self, spec: TSpec, start_time: float = 0.0, full: bool = True):
        self.spec = spec
        self._tokens = spec.b if full else 0.0
        self._last_update = start_time

    @property
    def tokens(self) -> float:
        """Tokens currently in the bucket (as of the last update)."""
        return self._tokens

    def _refill(self, now: float) -> None:
        if now < self._last_update:
            raise ValueError("time moved backwards")
        self._tokens = min(self.spec.b,
                           self._tokens + self.spec.r * (now - self._last_update))
        self._last_update = now

    def conforms(self, size: int, now: float) -> bool:
        """Whether a packet of ``size`` bytes at time ``now`` is conformant."""
        accounted = max(size, self.spec.m)
        if accounted > self.spec.M:
            return False
        self._refill(now)
        return accounted <= self._tokens + 1e-9

    def consume(self, size: int, now: float) -> bool:
        """Consume tokens for a packet if conformant; return conformance."""
        ok = self.conforms(size, now)
        if ok:
            # conforms() accepts a packet within a 1e-9 tolerance, so the
            # subtraction may land epsilon below zero; clamp so the deficit
            # cannot persist (and compound) across refills
            self._tokens = max(0.0, self._tokens - max(size, self.spec.m))
        return ok


def check_trace_conformance(spec: TSpec,
                            trace: Sequence[Tuple[float, int]]) -> List[int]:
    """Return the indices of non-conformant packets in an (time, size) trace.

    The trace must be sorted by time.  Useful in tests to verify that the
    traffic generators really produce what their TSpec promises.
    """
    bucket = TokenBucket(spec, start_time=trace[0][0] if trace else 0.0)
    violations = []
    for index, (when, size) in enumerate(trace):
        if not bucket.consume(size, when):
            violations.append(index)
    return violations
