"""Demand-based poller, after Rao, Baux and Kesidis.

Each slave's demand is estimated from the amount of data its recent
transactions actually moved (an exponentially weighted moving average of
bytes per transaction, in both directions).  Poll opportunities are then
granted in proportion to the estimated demand using a credit (deficit
round-robin style) counter, with a small floor so idle slaves are still
probed occasionally.  Demand adaptation provides efficiency, not delay
guarantees: a burst arriving at a slave whose estimate has decayed waits
several cycles before the estimate recovers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.schedulers.base import KIND_BE, Poller, PollOutcome, TransactionPlan


#: EWMA weight of the latest transaction in a slave's demand estimate.
SMOOTHING = 0.25
#: Least demand a slave is credited with, so idle slaves are still probed.
FLOOR = 0.05


class DemandBasedPoller(Poller):
    """Grant polls in proportion to an EWMA estimate of per-slave demand."""

    name = "demand-based"

    def __init__(self):
        super().__init__()
        self._slaves: List[int] = []
        self._demand: Dict[int, float] = {}
        self._credit: Dict[int, float] = {}

    def attach(self, piconet) -> None:
        super().attach(piconet)
        self._slaves = piconet.slaves()
        self._demand = {s: 1.0 for s in self._slaves}
        self._credit = {s: 0.0 for s in self._slaves}

    def select(self, now: float) -> Optional[TransactionPlan]:
        self._require_attached()
        if not self._slaves:
            return None
        total = sum(max(self._demand[s], FLOOR) for s in self._slaves)
        for slave in self._slaves:
            self._credit[slave] += max(self._demand[slave], FLOOR) / total
        slave = max(self._slaves, key=lambda s: self._credit[s])
        self._credit[slave] -= 1.0
        return self.build_plan_for_slave(slave, kind=KIND_BE)

    def notify(self, outcome: PollOutcome) -> None:
        slave = outcome.plan.slave
        moved = sum(d.payload for d in outcome.deliveries)
        old = self._demand.get(slave, 1.0)
        self._demand[slave] = (1 - SMOOTHING) * old + SMOOTHING * moved
