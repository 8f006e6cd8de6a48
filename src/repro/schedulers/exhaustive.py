"""Exhaustive and limited round-robin polling.

Exhaustive service keeps polling the same slave until a transaction moves no
data in either direction, then moves on.  Limited round robin caps the
number of consecutive transactions per visit.  Both are classical
intra-piconet disciplines evaluated by Johansson et al. and used as
reference points in the paper's survey; neither bounds the delay of a flow
because a busy slave can monopolise the channel (exhaustive) or a flow can
wait for the whole cycle (limited).
"""

from __future__ import annotations

from typing import List, Optional

from repro.schedulers.base import KIND_BE, Poller, PollOutcome, TransactionPlan


#: Transactions a limited round robin grants a slave per visit.
VISIT_LIMIT = 2


class LimitedRoundRobinPoller(Poller):
    """Round robin with at most :data:`VISIT_LIMIT` transactions per
    visit."""

    name = "limited-round-robin"

    def __init__(self):
        super().__init__()
        self._slaves: List[int] = []
        self._index = 0
        self._served_this_visit = 0

    def attach(self, piconet) -> None:
        super().attach(piconet)
        self._slaves = piconet.slaves()
        self._index = 0
        self._served_this_visit = 0

    def _current_slave(self) -> Optional[int]:
        if not self._slaves:
            return None
        return self._slaves[self._index % len(self._slaves)]

    def _advance(self) -> None:
        self._index += 1
        self._served_this_visit = 0

    def select(self, now: float) -> Optional[TransactionPlan]:
        self._require_attached()
        slave = self._current_slave()
        if slave is None:
            return None
        if self._served_this_visit >= VISIT_LIMIT:
            self._advance()
            slave = self._current_slave()
        self._served_this_visit += 1
        return self.build_plan_for_slave(slave, kind=KIND_BE)

    def notify(self, outcome: PollOutcome) -> None:
        if not outcome.carried_any_data:
            # nothing moved: do not linger on this slave
            self._advance()


class ExhaustivePoller(LimitedRoundRobinPoller):
    """Serve each slave until a transaction moves no data at all."""

    name = "exhaustive"

    def select(self, now: float) -> Optional[TransactionPlan]:
        self._require_attached()
        slave = self._current_slave()
        if slave is None:
            return None
        # exhaustive: no per-visit cap; we advance only on an empty exchange
        return self.build_plan_for_slave(slave, kind=KIND_BE)

    def notify(self, outcome: PollOutcome) -> None:
        if not outcome.carried_any_data:
            self._advance()
