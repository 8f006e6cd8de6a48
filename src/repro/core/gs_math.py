"""RFC 2212 Guaranteed Service delay-bound mathematics.

Equation (1) of the paper: given a token-bucket TSpec ``(p, r, b, m, M)``, a
requested fluid-model service rate ``R >= r`` and the accumulated error
terms ``Ctot`` (bytes) and ``Dtot`` (seconds), the end-to-end queueing delay
is bounded by::

            (b - M) (p - R)    M + Ctot
    Dbound = --------------- + -------- + Dtot        if p > R >= r
              R     (p - r)        R

             M + Ctot
    Dbound = -------- + Dtot                          if R >= p >= r
                 R

The functions below evaluate the bound and invert it (compute the rate that
achieves a requested bound), which is what a Guaranteed Service receiver
does when it turns the exported C/D terms into an RSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.token_bucket import TSpec


@dataclass(frozen=True)
class GSDelayBound:
    """The result of a delay-bound evaluation."""

    bound: float
    rate: float
    ctot: float
    dtot: float

    def __float__(self) -> float:
        return self.bound


def delay_bound(tspec: TSpec, rate: float, ctot: float, dtot: float) -> float:
    """Evaluate Eq. (1): the delay bound for service rate ``rate``.

    Parameters
    ----------
    tspec:
        The flow's token-bucket specification (bytes, bytes/second).
    rate:
        Requested fluid-model service rate ``R`` in bytes per second
        (must satisfy ``R >= r``).
    ctot, dtot:
        Accumulated rate-dependent (bytes) and rate-independent (seconds)
        error terms of all network elements on the path.
    """
    if rate <= 0:
        raise ValueError("service rate must be positive")
    if rate < tspec.r - 1e-12:
        raise ValueError(
            f"service rate {rate} is below the token rate {tspec.r}; the "
            "Guaranteed Service bound only holds for R >= r")
    if ctot < 0 or dtot < 0:
        raise ValueError("error terms cannot be negative")
    if tspec.p > rate:
        burst_term = ((tspec.b - tspec.M) / rate) * \
            ((tspec.p - rate) / (tspec.p - tspec.r))
    else:
        burst_term = 0.0
    return burst_term + (tspec.M + ctot) / rate + dtot


def evaluate(tspec: TSpec, rate: float, ctot: float, dtot: float) -> GSDelayBound:
    """Like :func:`delay_bound` but returning the full result object."""
    return GSDelayBound(bound=delay_bound(tspec, rate, ctot, dtot),
                        rate=rate, ctot=ctot, dtot=dtot)


def rate_for_delay_bound(tspec: TSpec, target: float, ctot: float,
                         dtot: float) -> Optional[float]:
    """Invert Eq. (1): the smallest rate achieving delay bound ``target``.

    Returns ``None`` when no finite rate can achieve the bound (i.e. when
    ``target <= dtot``, because even an infinite rate leaves the
    rate-independent deviation).  The returned rate is never smaller than
    the token rate ``r`` (a Guaranteed Service reservation must request at
    least ``r``).
    """
    if target <= 0:
        raise ValueError("target delay bound must be positive")
    if ctot < 0 or dtot < 0:
        raise ValueError("error terms cannot be negative")
    if target <= dtot:
        return None

    budget = target - dtot

    # Case R >= p: bound = (M + ctot) / R + dtot.  This is the answer whenever
    # the required rate is at least the peak rate (no burst term remains).
    rate_high = (tspec.M + ctot) / budget
    if rate_high >= tspec.p or math.isclose(rate_high, tspec.p):
        return max(rate_high, tspec.r)

    # Case r <= R < p:
    #   budget = (b - M)(p - R) / (R (p - r)) + (M + ctot)/R
    # Solve for R:
    #   R = (A p + M + ctot) / (budget + A),   A = (b - M)/(p - r)
    if tspec.p == tspec.r:
        # Degenerate: with p == r the burst term vanishes for every feasible
        # rate, so rate_high (clamped to the token rate) is the true answer.
        return max(rate_high, tspec.r)
    a = (tspec.b - tspec.M) / (tspec.p - tspec.r)
    rate = (a * tspec.p + tspec.M + ctot) / (budget + a)
    rate = max(rate, tspec.r)
    # Verify feasibility: the bound is monotonically decreasing in R, so if
    # even R -> infinity cannot achieve it we already returned above; here a
    # finite rate always exists.
    return rate


def bound_at_token_rate(tspec: TSpec, ctot: float, dtot: float) -> float:
    """The delay bound obtained when requesting exactly the token rate.

    The paper calls this the delay bound "that will never be exceeded": the
    requested service rate must always be at least the token rate, so the
    bound at ``R = r`` is the loosest bound a receiver would ever compute.
    """
    return delay_bound(tspec, tspec.r, ctot, dtot)
