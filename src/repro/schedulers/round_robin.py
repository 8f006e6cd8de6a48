"""Pure round-robin polling.

The simplest Bluetooth poller: the master cycles over the slaves in AM
address order and gives each exactly one transaction per visit, whether or
not there is data to move.  It wastes slots on idle slaves and provides no
delay differentiation — the reference point of the paper's Section 3 survey.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.schedulers.base import Poller, TransactionPlan


class PureRoundRobinPoller(Poller):
    """Cycle over all slaves, one transaction each.

    ``only_slaves`` restricts the cycle to a subset of AM addresses —
    piconets mixing reserved SCO links with ACL traffic use it to keep the
    round robin away from slaves whose flows ride their SCO reservation.
    """

    name = "pure-round-robin"

    def __init__(self, only_slaves: Optional[Sequence[int]] = None):
        super().__init__()
        self.only_slaves = (tuple(only_slaves)
                            if only_slaves is not None else None)
        self._slave_cycle: List[int] = []
        self._index = 0
        #: slave -> its plan, for slaves whose plan cannot change until
        #: the flows do (at most one flow each way)
        self._plans: Dict[int, TransactionPlan] = {}

    def attach(self, piconet) -> None:
        super().attach(piconet)
        self._index = 0
        self._rebuild()

    def _rebuild(self) -> None:
        """Cycle over the slaves that have flows now; the position in the
        cycle carries over, cached plans do not."""
        self._plans = {}
        with_flows = {spec.slave for spec in self.piconet.flow_specs()}
        self._slave_cycle = [slave for slave in self.piconet.slaves()
                             if slave in with_flows
                             and (self.only_slaves is None
                                  or slave in self.only_slaves)]

    def select(self, now: float) -> Optional[TransactionPlan]:
        cycle = self._slave_cycle
        if not cycle:  # always empty before attach
            self._require_attached()
            return None
        slave = cycle[self._index % len(cycle)]
        self._index += 1
        plan = self._plans.get(slave)
        return plan if plan is not None else self._plan_for(slave)

    def on_flows_attached(self, states) -> None:
        self._rebuild()

    def on_flows_detached(self, flow_ids) -> None:
        self._rebuild()

    def _plan_for(self, slave: int) -> TransactionPlan:
        plan = self.build_plan_for_slave(slave)
        specs = self.piconet.flow_specs_of_slave(slave)
        downlinks = sum(1 for spec in specs if spec.is_downlink)
        if downlinks <= 1 and len(specs) - downlinks <= 1:
            # the choice reads no queue and has no turn to take: the plan
            # holds until the flows change (nothing mutates a plan)
            self._plans[slave] = plan
        return plan
