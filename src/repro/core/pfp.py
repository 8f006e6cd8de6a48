"""The Predictive Fair Poller (PFP).

PFP is the poller the paper evaluates (Section 4): for every slave it
predicts whether data is available and it keeps track of fairness; based on
those two aspects it decides whom to poll next.  In this Guaranteed Service
setting the "fair QoS treatment" of a GS flow is its planned-poll schedule
(owned by :class:`repro.core.gs_manager.GuaranteedServiceManager`), which
always takes precedence; the remaining capacity is divided fairly over the
best-effort slaves that are predicted to have data.

The availability predictor uses only information a real master has:

* its own downlink queues (exact knowledge), and
* the history of poll outcomes per uplink flow — a poll answered with a
  NULL packet proves the slave's queue was empty at that moment, and the
  observed packet completion rate estimates how quickly data accumulates
  afterwards.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.gs_manager import GuaranteedServiceManager
from repro.core.planning import ServedSegment
from repro.piconet.flows import BE, GS
from repro.schedulers.base import (
    KIND_BE,
    KIND_GS,
    Poller,
    PollOutcome,
    TransactionPlan,
)

_US_PER_SECOND = 1_000_000.0

#: Minimum predicted availability for a best-effort slave to be polled.
AVAILABILITY_THRESHOLD = 0.05


@dataclass
class _UplinkPrediction:
    """Availability prediction state of one uplink best-effort flow."""

    #: time (us) of the most recent poll that returned NULL; ``None`` until
    #: the first NULL is observed
    last_empty_at: Optional[float] = None
    #: whether the most recent poll of this flow returned data
    last_poll_carried_data: bool = False
    #: completed higher-layer packets observed so far
    packets_seen: int = 0
    #: consecutive polls that returned NULL (drives the probing backoff)
    consecutive_empty: int = 0
    #: time (us) prediction started (first attach)
    started_at: float = 0.0

    def expected_interarrival_us(self, now: float) -> float:
        """Estimated packet inter-arrival time, from observed completions."""
        elapsed = max(now - self.started_at, 1.0)
        if self.packets_seen == 0:
            return elapsed
        return elapsed / self.packets_seen

    def availability(self, now: float) -> float:
        """Estimated probability that the slave's queue holds data.

        After a run of empty polls the expectation is backed off
        exponentially so a slave with no traffic at all is probed ever more
        rarely, while a single empty poll of a busy slave barely matters.
        """
        if self.last_empty_at is None or self.last_poll_carried_data:
            return 1.0
        expected = self.expected_interarrival_us(now)
        if expected <= 0:
            return 1.0
        backoff = 2 ** min(self.consecutive_empty, 6)
        return min(1.0, (now - self.last_empty_at) / (expected * backoff))


@dataclass
class _SlaveState:
    """PFP bookkeeping for one best-effort slave."""

    slave: int
    dl_flow_ids: List[int] = field(default_factory=list)
    ul_flow_ids: List[int] = field(default_factory=list)
    served_slots: int = 0
    last_polled_at: float = -1.0
    next_ul_index: int = 0

    def order_entry(self) -> tuple:
        """The state's place in PFP's best-effort order: fewest slots
        served, then longest unpolled.  The slave breaks the last tie, so
        tuples compare without ever reaching the trailing state."""
        return (self.served_slots, self.last_polled_at, self.slave, self)


class PredictiveFairPoller(Poller):
    """PFP with Guaranteed Service support (the paper's evaluated poller).

    Parameters
    ----------
    gs_manager:
        The Guaranteed Service manager holding the admitted GS flows and
        their poll planners.  Configure it with ``variable_interval=True``
        for the paper's Section 3.2 poller (default) or ``False`` for the
        Section 3.1 fixed-interval poller.

    Best-effort capacity is divided equally: among the slaves predicted
    to have data (availability at least :data:`AVAILABILITY_THRESHOLD`),
    the one served the fewest slots so far goes first.  The slaves are
    kept in that fairness order; a key only moves when its slave is
    notified, attached or detached, so a selection walks the order and
    stops at the first slave predicted to have data.
    """

    name = "pfp"

    def __init__(self, gs_manager: GuaranteedServiceManager):
        super().__init__()
        self.gs = gs_manager
        self._be_slaves: Dict[int, _SlaveState] = {}
        #: the ``order_entry()`` of every state in ``_be_slaves``, sorted
        self._be_order: List[tuple] = []
        self._ul_predictions: Dict[int, _UplinkPrediction] = {}

    # ------------------------------------------------------------------ attach
    def attach(self, piconet) -> None:
        super().attach(piconet)
        self.on_flows_attached(piconet.flow_states())

    def on_flows_attached(self, states) -> None:
        """Register flow states (initial attach, flow-add, or unpark).

        Only best-effort flows carry PFP-side state; GS flows live in the
        manager's planners.  A re-attached uplink flow starts a fresh
        availability prediction — the master learned nothing about the
        slave's queue while it was away.
        """
        now = float(self.piconet.env.now)
        for state in states:
            spec = state.spec
            if spec.traffic_class != BE:
                continue
            slave_state = self._be_slaves.get(spec.slave)
            if slave_state is None:
                slave_state = _SlaveState(slave=spec.slave)
                self._be_slaves[spec.slave] = slave_state
                insort(self._be_order, slave_state.order_entry())
            if spec.is_downlink:
                slave_state.dl_flow_ids.append(spec.flow_id)
            else:
                slave_state.ul_flow_ids.append(spec.flow_id)
                self._ul_predictions[spec.flow_id] = _UplinkPrediction(started_at=now)

    def on_flows_detached(self, flow_ids) -> None:
        """Forget detached flows (flow-remove, park, or GS eviction).

        A slave whose last best-effort flow leaves drops out of the fair
        division entirely; its fairness accounting restarts if it returns.
        """
        for flow_id in flow_ids:
            self._ul_predictions.pop(flow_id, None)
            for slave, slave_state in list(self._be_slaves.items()):
                if flow_id in slave_state.dl_flow_ids:
                    slave_state.dl_flow_ids.remove(flow_id)
                if flow_id in slave_state.ul_flow_ids:
                    slave_state.ul_flow_ids.remove(flow_id)
                    slave_state.next_ul_index = 0
                if not slave_state.dl_flow_ids and not slave_state.ul_flow_ids:
                    del self._be_slaves[slave]
                    self._be_order.remove(slave_state.order_entry())

    # ------------------------------------------------------------------ select
    def select(self, now: float) -> Optional[TransactionPlan]:
        self._require_attached()
        plan = self._select_gs(now)
        if plan is not None:
            return plan
        return self._select_be(now)

    def _select_gs(self, now: float) -> Optional[TransactionPlan]:
        stream = self.gs.first_due(now / _US_PER_SECOND,
                                   self.downlink_has_data)
        if stream is None:
            return None
        dl_flow = None
        ul_flow = None
        for request in (stream.primary, stream.secondary):
            if request is None:
                continue
            if request.direction == "DL":
                dl_flow = request.flow_id
            else:
                ul_flow = request.flow_id
        return TransactionPlan(slave=stream.slave, dl_flow_id=dl_flow,
                               ul_flow_id=ul_flow, kind=KIND_GS,
                               gs_flow_id=stream.primary.flow_id)

    def _select_be(self, now: float) -> Optional[TransactionPlan]:
        availability_of = self._slave_availability
        for entry in self._be_order:
            best = entry[3]
            if availability_of(best, now) >= AVAILABILITY_THRESHOLD:
                break
        else:
            return None
        dl_flow = self._pick_downlink(best)
        ul_flow = self._pick_uplink(best)
        if dl_flow is None and ul_flow is None:
            return None
        return TransactionPlan(slave=best.slave, dl_flow_id=dl_flow,
                               ul_flow_id=ul_flow, kind=KIND_BE)

    def _slave_availability(self, state: _SlaveState, now: float) -> float:
        has_data = self.downlink_has_data
        for flow_id in state.dl_flow_ids:
            if has_data(flow_id):
                return 1.0
        availability = 0.0
        predictions = self._ul_predictions
        for flow_id in state.ul_flow_ids:
            availability = max(availability,
                               predictions[flow_id].availability(now))
            if availability >= 1.0:
                return 1.0  # the maximum: no other flow can raise it
        return availability

    def _pick_downlink(self, state: _SlaveState) -> Optional[int]:
        for flow_id in state.dl_flow_ids:
            if self.downlink_has_data(flow_id):
                return flow_id
        return state.dl_flow_ids[0] if state.dl_flow_ids else None

    def _pick_uplink(self, state: _SlaveState) -> Optional[int]:
        if not state.ul_flow_ids:
            return None
        flow_id = state.ul_flow_ids[state.next_ul_index % len(state.ul_flow_ids)]
        state.next_ul_index += 1
        return flow_id

    # ------------------------------------------------------------------ notify
    def notify(self, outcome: PollOutcome) -> None:
        if outcome.plan.kind == KIND_GS:
            self._notify_gs(outcome)
        elif outcome.plan.kind == KIND_BE:
            self._notify_be(outcome)

    def _notify_gs(self, outcome: PollOutcome) -> None:
        primary = outcome.plan.gs_flow_id
        if primary is None:
            return
        delivery = outcome.delivery_for(primary)
        served: Optional[ServedSegment] = None
        if delivery is not None:
            served = ServedSegment(
                hl_packet_id=delivery.hl_packet_id,
                is_last_segment=delivery.is_last_segment,
                hl_packet_size=delivery.hl_packet_size,
                hl_arrival_time=(delivery.hl_arrival_time / _US_PER_SECOND
                                 if delivery.hl_arrival_time is not None else None),
            )
        self.gs.record_poll(primary, outcome.start / _US_PER_SECOND, served)

    def _notify_be(self, outcome: PollOutcome) -> None:
        state = self._be_slaves.get(outcome.plan.slave)
        if state is None:
            return
        order = self._be_order
        order.remove(state.order_entry())
        state.served_slots += outcome.slots
        state.last_polled_at = outcome.end
        insort(order, state.order_entry())
        ul_flow = outcome.plan.ul_flow_id
        if ul_flow is None or ul_flow not in self._ul_predictions:
            return
        prediction = self._ul_predictions[ul_flow]
        prediction.last_poll_carried_data = outcome.ul_carried_data
        if outcome.ul_carried_data:
            prediction.consecutive_empty = 0
        else:
            prediction.last_empty_at = outcome.start
            prediction.consecutive_empty += 1
        for delivery in outcome.deliveries:
            if delivery.flow_id == ul_flow and delivery.is_last_segment:
                prediction.packets_seen += 1
