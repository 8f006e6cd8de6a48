"""Head-of-line priority poller, after Kalia, Bansal and Shorey.

The master schedules based on the priority and age of the head-of-line
packets of its *own* (downlink) queues: the slave with the oldest
highest-priority head-of-line packet is served first; slaves without
downlink data are polled round-robin with the residual capacity so uplink
traffic is not starved.  Because the master cannot see uplink queues the
scheme favours downlink traffic and offers no delay guarantee for uplink
flows — one of the shortcomings the paper's GS poller addresses.
"""

from __future__ import annotations

from typing import List, Optional

from repro.schedulers.base import KIND_BE, Poller, TransactionPlan


class HolPriorityPoller(Poller):
    """Serve the slave with the oldest, highest-priority head-of-line packet.

    GS-class flows rank before BE-class flows; within a class the oldest
    head-of-line packet goes first.
    """

    name = "hol-priority"

    def __init__(self):
        super().__init__()
        self._slaves: List[int] = []
        self._rr_index = 0

    def attach(self, piconet) -> None:
        super().attach(piconet)
        self._slaves = piconet.slaves()

    def select(self, now: float) -> Optional[TransactionPlan]:
        self._require_attached()
        best_flow = None
        best_key = None
        for spec in self.piconet.flow_specs():
            if not spec.is_downlink:
                continue
            queue = self.piconet.queue(spec.flow_id)
            if not queue.has_data():
                continue
            age = now - (queue.head_arrival_time() or now)
            key = (0 if spec.is_gs else 1, -age)
            if best_key is None or key < best_key:
                best_key = key
                best_flow = spec
        if best_flow is not None:
            return self.build_plan_for_slave(best_flow.slave, kind=KIND_BE)
        if not self._slaves:
            return None
        slave = self._slaves[self._rr_index % len(self._slaves)]
        self._rr_index += 1
        return self.build_plan_for_slave(slave, kind=KIND_BE)
