"""Pure round-robin polling.

The simplest Bluetooth poller: the master cycles over the slaves in AM
address order and gives each exactly one transaction per visit, whether or
not there is data to move.  It wastes slots on idle slaves and provides no
delay differentiation — the reference point of the paper's Section 3 survey.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.schedulers.base import KIND_BE, Poller, TransactionPlan


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
        #: the flows do (at most one downlink flow)
        self._plans: Dict[int, TransactionPlan] = {}

    def attach(self, piconet) -> None:
        super().attach(piconet)
        self._plans = {}
        self._slave_cycle = [slave.address for slave in piconet.slaves()
                             if piconet.flow_specs()
                             and any(spec.slave == slave.address
                                     for spec in piconet.flow_specs())
                             and (self.only_slaves is None
                                  or slave.address in self.only_slaves)]
        self._index = 0

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
        self._plans = {}

    def on_flows_detached(self, flow_ids) -> None:
        self._plans = {}

    def _plan_for(self, slave: int) -> TransactionPlan:
        dl_flow = None
        ul_flow = None
        downlinks = 0
        # the piconet's cached per-slave grouping, read-only (select runs
        # once per transaction — this is the poller's hot path)
        for spec in self.piconet.flow_specs_of_slave(slave):
            if spec.is_downlink:
                downlinks += 1
                if dl_flow is None or self.downlink_has_data(spec.flow_id):
                    if dl_flow is None or not self.downlink_has_data(dl_flow):
                        dl_flow = spec.flow_id
            elif ul_flow is None:
                ul_flow = spec.flow_id
        plan = TransactionPlan(slave, dl_flow, ul_flow, KIND_BE)
        if downlinks <= 1:
            # the choice reads no queue: the plan holds until the flows
            # change (nothing mutates a round-robin plan)
            self._plans[slave] = plan
        return plan
