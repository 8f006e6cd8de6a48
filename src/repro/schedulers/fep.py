"""Fair Exhaustive Poller (FEP), after Johansson, Koerner and Johansson.

FEP maintains a polling table that separates *active* slaves (believed to
have traffic) from *inactive* ones.  Active slaves are polled round-robin
and exhaustively; a slave whose poll moves no data is demoted to the
inactive set.  Inactive slaves are probed at a much lower rate so newly
arriving traffic is eventually discovered.  FEP avoids wasting slots on
idle slaves but, as the paper notes, it offers fairness — not delay bounds.
"""

from __future__ import annotations

from typing import List, Optional

from repro.schedulers.base import KIND_BE, Poller, PollOutcome, TransactionPlan


#: Every PROBE_PERIOD-th transaction probes an inactive slave.
PROBE_PERIOD = 10


class FairExhaustivePoller(Poller):
    """FEP, probing an inactive slave every :data:`PROBE_PERIOD`
    transactions."""

    name = "fep"

    def __init__(self):
        super().__init__()
        self._active: List[int] = []
        self._inactive: List[int] = []
        self._transactions = 0

    def attach(self, piconet) -> None:
        super().attach(piconet)
        self._active = piconet.slaves()
        self._inactive = []
        self._transactions = 0

    # -- membership management ------------------------------------------------
    def _demote(self, slave: int) -> None:
        if slave in self._active:
            self._active.remove(slave)
            self._inactive.append(slave)

    def _promote(self, slave: int) -> None:
        if slave in self._inactive:
            self._inactive.remove(slave)
            self._active.append(slave)

    def on_arrival(self, flow_id: int, packet) -> None:
        # downlink data for an inactive slave re-activates it immediately
        spec = self.piconet.flow_state(flow_id).spec
        self._promote(spec.slave)

    # -- scheduling -----------------------------------------------------------
    def select(self, now: float) -> Optional[TransactionPlan]:
        self._require_attached()
        self._transactions += 1
        probe_due = (self._inactive
                     and self._transactions % PROBE_PERIOD == 0)
        if probe_due or not self._active:
            if self._inactive:
                slave = self._inactive.pop(0)
                self._inactive.append(slave)
                return self.build_plan_for_slave(slave, kind=KIND_BE)
            if not self._active:
                return None
        slave = self._active.pop(0)
        self._active.append(slave)
        return self.build_plan_for_slave(slave, kind=KIND_BE)

    def notify(self, outcome: PollOutcome) -> None:
        slave = outcome.plan.slave
        if outcome.carried_any_data:
            self._promote(slave)
        else:
            self._demote(slave)