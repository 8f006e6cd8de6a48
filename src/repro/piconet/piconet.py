"""The piconet and its master-driven TDD loop.

The master repeatedly asks the attached poller for a :class:`TransactionPlan`
and executes it slot-accurately: the master packet occupies 1/3/5 slots, the
addressed slave's response the following 1/3/5 slots, and the next decision
is taken at the next even slot boundary.  SCO reservations (if any) pre-empt
ACL scheduling.

Design notes
------------
* Simulation time is integer microseconds; one slot is 625 us.
* The paper requires that a poll only serves uplink data that was already
  available when the master *started* its transmission; the loop therefore
  snapshots the uplink queue at transaction start.
* Lost data segments (lossy channels) stay at the head of their queue and
  are retransmitted by a later poll (ARQ).  SCO packets have no ARQ: they
  are delivered regardless and residual errors are only counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.baseband.channel import (
    Channel,
    ChannelMap,
    TransmissionResult,
    TX_NOT_RECEIVED,
    TX_OK,
    coerce_channel_map,
)
from repro.baseband.constants import SLOT_US
from repro.baseband.packets import (
    BasebandPacket,
    null_packet,
    poll_packet,
    resolve_types,
)
from repro.baseband.segmentation import (
    BestFitSegmentationPolicy,
    ChannelAdaptiveSegmentationPolicy,
    Reassembler,
)
from repro.piconet.device import DeviceRegistry, Slave
from repro.piconet.flows import DOWNLINK, FlowSpec, GS, HLPacket, UPLINK
from repro.piconet.queues import FlowQueue
from repro.piconet.sco import ScoLink, ScoReservationTable
from repro.schedulers.base import (
    KIND_BE,
    KIND_GS,
    KIND_SCO,
    Poller,
    PollOutcome,
    SegmentDelivery,
    TransactionPlan,
)
from repro.sim.engine import Environment
from repro.sim.events import LoopWakeup
from repro.sim.monitor import Monitor

#: control packets reused across all transactions: POLL and NULL carry no
#: payload, are never mutated and never traverse a channel (control packets
#: are assumed error-free), so one instance each serves every poll round
_POLL_PACKET = poll_packet()
_NULL_PACKET = null_packet()


@dataclass
class PiconetConfig:
    """Static configuration of a piconet simulation."""

    #: baseband packet types ACL flows may use by default
    allowed_types: tuple = ("DH1", "DH3")
    #: name used in reports
    name: str = "piconet"
    #: keep master transmissions aligned to even slots (Bluetooth TDD rule)
    align_even_slots: bool = True
    #: give every ACL flow a channel-adaptive segmentation policy that
    #: switches to the robust (FEC) types when the observed per-link loss
    #: exceeds its threshold (see ChannelAdaptiveSegmentationPolicy)
    adaptive_segmentation: bool = False
    #: the FEC type set the adaptive policy falls back to under loss
    robust_types: tuple = ("DM1", "DM3")


@dataclass
class FlowState:
    """Run-time state and statistics of one flow."""

    spec: FlowSpec
    queue: FlowQueue
    reassembler: Reassembler = field(default_factory=Reassembler)
    delays: Monitor = field(default_factory=lambda: Monitor("delay_s"))
    delivered_bytes: int = 0
    delivered_packets: int = 0
    delivered_segment_bytes: int = 0
    segments_delivered: int = 0
    retransmissions: int = 0
    #: segments missed outright (access code / header lost on the air)
    segments_not_received: int = 0
    #: segments received whose payload failed the CRC (NAKed by ARQ)
    crc_failures: int = 0
    sco_residual_errors: int = 0

    def throughput_bps(self, duration_seconds: float) -> float:
        """Delivered higher-layer throughput in bits per second."""
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        return self.delivered_bytes * 8 / duration_seconds

    def record_failure(self, result: TransmissionResult) -> None:
        """Account one failed ARQ segment by its failure section."""
        self.retransmissions += 1
        if result is TX_NOT_RECEIVED:
            self.segments_not_received += 1
        else:
            self.crc_failures += 1


class _Transaction:
    """In-flight state of one planned master/slave exchange.

    :meth:`Piconet._begin_transaction` snapshots the queues, packets and
    bridge presence at transaction start; the master loop then commits
    the downlink (:meth:`Piconet._apply_downlink`) and the uplink
    (:meth:`Piconet._finish_transaction`) at the end of each direction.
    """

    __slots__ = ("plan", "start", "dl_state", "ul_state", "dl_segment",
                 "ul_segment", "dl_packet", "ul_packet", "deliveries",
                 "bridge_absent", "dl_result", "dl_error", "ul_start")


class Piconet:
    """A Bluetooth piconet: one master, up to seven slaves, one poller."""

    def __init__(self, env: Optional[Environment] = None,
                 channel: Union[Channel, ChannelMap, None] = None,
                 config: Optional[PiconetConfig] = None):
        self.env = env if env is not None else Environment()
        #: per-link channel subsystem; a bare Channel is shared across all
        #: links (legacy behaviour), None means every link is ideal
        self.channels = coerce_channel_map(channel)
        self.config = config if config is not None else PiconetConfig()
        self.devices = DeviceRegistry()
        self.poller = None
        self.sco_table = ScoReservationTable()
        self._states: Dict[int, FlowState] = {}
        self._sco_flows: Dict[int, Dict[str, Optional[int]]] = {}
        #: scatternet bridges: slave -> per-slot presence in *this* piconet
        self._bridge_presence: Dict[int, Callable[[int], bool]] = {}
        #: bridges whose hold schedule this master knows (negotiated): the
        #: master skips planned polls while such a bridge is away instead
        #: of burning the transaction's slots on a guaranteed failure
        self._negotiated_bridges: set = set()
        #: per-bridge-slave shares of the absent/skipped totals, so a roam
        #: (re-registered presence) can reset one slave's accounting
        #: without touching the other bridges' history
        self._bridge_absent_by_slave: Dict[int, int] = {}
        self._bridge_skipped_by_slave: Dict[int, int] = {}
        #: flow states of parked slaves, keyed by flow id: invisible to the
        #: poller and the master loop, but arrivals keep queueing so an
        #: unpark resumes with the accumulated backlog
        self._parked_states: Dict[int, FlowState] = {}
        #: slaves currently parked (informational; mirrored by the states)
        self._parked_slaves: set = set()
        #: detached-and-not-reattached flow states (evictions, removes):
        #: kept so the drivers' result helpers still see the statistics
        self._retired_states: Dict[int, FlowState] = {}
        #: topology changes seen since the start of the run (reported by
        #: slot_accounting only when non-zero, so static scenarios — and
        #: their golden fixtures — are unchanged)
        self.topology_changes = 0
        self._started = False
        self._run_started_at: Optional[int] = None
        self._run_ended_at: Optional[int] = None
        #: sorted flow-state list, rebuilt lazily after add_flow
        self._flow_states_cache: Optional[List[FlowState]] = None
        #: slave -> flow specs (flow-id order), rebuilt lazily after add_flow
        self._specs_by_slave_cache: Optional[Dict[int, List[FlowSpec]]] = None
        #: whether the attached poller overrides Poller.notify (pollers
        #: that keep the base no-op never look at outcomes, so the hot
        #: path skips building PollOutcome/SegmentDelivery entirely)
        self._poller_wants_outcome = False
        #: link observers: ``fn(slave, direction, error)`` called for every
        #: observed data transmission; empty for every scenario that does
        #: not ask for budget-aware admission
        self._link_observers: List[Callable[[int, str, bool], None]] = []
        #: air recorder: ``fn(start_us, slots)`` called when this piconet
        #: puts a transaction on the air (coupled interference feeds the
        #: shared field from it); ``None`` for every uncoupled scenario
        self._air_recorder: Optional[Callable[[int, int], None]] = None

        # slot / transaction accounting
        self.slots_idle = 0
        self.slots_gs = 0
        self.slots_be = 0
        self.slots_sco = 0
        self.transactions_gs = 0
        self.transactions_be = 0
        self.gs_polls_without_data = 0
        self.be_polls_without_data = 0
        self.bridge_absent_polls = 0
        self.bridge_skipped_polls = 0

    # ------------------------------------------------------------------ setup
    def add_slave(self, name: Optional[str] = None) -> Slave:
        """Register a new slave (AM addresses are assigned in order)."""
        return self.devices.add_slave(name)

    def add_flow(self, spec: FlowSpec) -> FlowState:
        """Register a flow; its queue lives at the transmitting side."""
        if spec.flow_id in self._states:
            raise ValueError(f"flow id {spec.flow_id} already registered")
        if spec.slave not in self.devices:
            raise ValueError(f"slave {spec.slave} is not part of the piconet")
        policy = self._segmentation_policy(spec)
        state = FlowState(spec=spec, queue=FlowQueue(spec, policy))
        self._states[spec.flow_id] = state
        self._flow_states_cache = None
        self._specs_by_slave_cache = None
        slave = self.devices.slave(spec.slave)
        if spec.is_downlink:
            self.devices.master.tx_flow_ids.append(spec.flow_id)
            slave.rx_flow_ids.append(spec.flow_id)
        else:
            slave.tx_flow_ids.append(spec.flow_id)
            self.devices.master.rx_flow_ids.append(spec.flow_id)
        return state

    def _segmentation_policy(self, spec: FlowSpec):
        """Build the segmentation policy of one flow.

        With ``config.adaptive_segmentation`` every ACL data flow gets a
        channel-adaptive policy (its fast set is the flow's allowed types,
        its robust set ``config.robust_types``) whose loss estimator this
        piconet feeds from poll outcomes.  SCO-typed flows always keep the
        plain best-fit policy: their packet type is fixed by the
        reservation.
        """
        if self.config.adaptive_segmentation and all(
                t.link == "ACL" for t in resolve_types(spec.allowed_types)):
            return ChannelAdaptiveSegmentationPolicy(
                fast_types=spec.allowed_types,
                robust_types=self.config.robust_types)
        return BestFitSegmentationPolicy(spec.allowed_types)

    def add_sco_link(self, slave: int, packet_type: str = "HV3",
                     dl_flow_id: Optional[int] = None,
                     ul_flow_id: Optional[int] = None) -> ScoLink:
        """Reserve SCO slots for ``slave``; optionally bind voice flows to it.

        The bound flows must use the SCO packet type as their only allowed
        type so segmentation matches the reserved packet size.
        """
        link = self.sco_table.add_link(slave=slave, packet_type=packet_type)
        for flow_id in (dl_flow_id, ul_flow_id):
            if flow_id is not None and flow_id not in self._states:
                raise ValueError(f"unknown flow id {flow_id} for SCO link")
        self._sco_flows[slave] = {"DL": dl_flow_id, "UL": ul_flow_id}
        self.devices.slave(slave).has_sco = True
        return link

    def set_bridge_presence(self, slave: int,
                            presence: Callable[[int], bool],
                            negotiated: bool = False) -> None:
        """Mark ``slave`` as a scatternet bridge with a presence schedule.

        ``presence(slot_index)`` says whether the bridge is listening to
        *this* piconet's master in that slot.  By default the master does
        not know the schedule: a transaction addressed to an absent bridge
        is a guaranteed poll failure — the downlink packet is never
        received and the uplink slot stays silent — while still consuming
        its slots.  With ``negotiated=True`` the master *knows* the hold
        pattern and skips planned polls while the bridge is away (counted
        as ``bridge_skipped_polls``), retrying once it is back.

        Re-registering an already-known bridge slave (a roam: the bridge
        adopts a new residency schedule) is idempotent: the slave's
        absent/skipped-poll accounting restarts with the new schedule
        instead of layering it over the counts the old schedule produced,
        and the roam counts as a topology change.
        """
        if slave not in self.devices:
            raise ValueError(f"slave {slave} is not part of the piconet")
        if slave in self._bridge_presence:
            # roam: the totals keep only the other bridges' history
            self.bridge_absent_polls -= self._bridge_absent_by_slave.pop(
                slave, 0)
            self.bridge_skipped_polls -= self._bridge_skipped_by_slave.pop(
                slave, 0)
            self._bridge_presence[slave] = presence
            if negotiated:
                self._negotiated_bridges.add(slave)
            else:
                self._negotiated_bridges.discard(slave)
            self.topology_changes += 1
            return
        self._bridge_presence[slave] = presence
        if negotiated:
            self._negotiated_bridges.add(slave)
        else:
            self._negotiated_bridges.discard(slave)

    def _slave_present(self, slave: int, now_us: int) -> bool:
        """Whether ``slave`` is listening to this master at ``now_us``."""
        presence = self._bridge_presence.get(slave)
        if presence is None:
            return True
        return bool(presence(now_us // SLOT_US))

    # ------------------------------------------------------- topology lifecycle
    def detach_flow(self, flow_id: int) -> FlowState:
        """Remove a flow (and its queued segments) from the master loop.

        The returned :class:`FlowState` keeps its queue and statistics, so
        it can be re-attached later via :meth:`attach_flow_state`; until
        then the poller no longer sees the flow (it is notified through
        :meth:`~repro.schedulers.base.Poller.on_flows_detached`) and no
        transaction will serve its segments.  The state stays reachable
        through :meth:`flow_state` (as a retired flow), so an eviction or
        ``flow-remove`` does not erase the statistics the drivers report.
        """
        state = self._states.pop(flow_id, None)
        if state is None:
            raise KeyError(f"unknown flow id {flow_id}")
        self._retired_states[flow_id] = state
        spec = state.spec
        slave = self.devices.slave(spec.slave)
        if spec.is_downlink:
            self.devices.master.tx_flow_ids.remove(flow_id)
            slave.rx_flow_ids.remove(flow_id)
        else:
            slave.tx_flow_ids.remove(flow_id)
            self.devices.master.rx_flow_ids.remove(flow_id)
        self._flow_states_cache = None
        self._specs_by_slave_cache = None
        if self.poller is not None:
            self.poller.on_flows_detached((flow_id,))
        self.topology_changes += 1
        return state

    def attach_flow_state(self, state: FlowState) -> None:
        """Re-register a previously detached :class:`FlowState`."""
        spec = state.spec
        if spec.flow_id in self._states:
            raise ValueError(f"flow id {spec.flow_id} already registered")
        if spec.slave not in self.devices:
            raise ValueError(f"slave {spec.slave} is not part of the piconet")
        self._retired_states.pop(spec.flow_id, None)
        self._states[spec.flow_id] = state
        slave = self.devices.slave(spec.slave)
        if spec.is_downlink:
            self.devices.master.tx_flow_ids.append(spec.flow_id)
            slave.rx_flow_ids.append(spec.flow_id)
        else:
            slave.tx_flow_ids.append(spec.flow_id)
            self.devices.master.rx_flow_ids.append(spec.flow_id)
        self._flow_states_cache = None
        self._specs_by_slave_cache = None
        if self.poller is not None:
            self.poller.on_flows_attached((state,))
        self.topology_changes += 1

    def add_flow_runtime(self, spec: FlowSpec) -> FlowState:
        """Register a *new* flow while the simulation runs (a timeline
        ``flow-add``): :meth:`add_flow` plus the poller notification and
        topology count construction-time registration does not need."""
        state = self.add_flow(spec)
        if self.poller is not None:
            self.poller.on_flows_attached((state,))
        self.topology_changes += 1
        return state

    def park_slave(self, slave: int) -> List[FlowState]:
        """Park ``slave``: its flow states leave the master loop.

        The parked states stay reachable through :meth:`offer_packet`, so
        traffic sources keep filling the queues while the slave is away;
        :meth:`unpark_slave` re-attaches them with the accumulated
        backlog.  Parking a slave with an SCO reservation or a bridge
        presence schedule is refused — both model a slave the master must
        keep serving.
        """
        if slave not in self.devices:
            raise ValueError(f"slave {slave} is not part of the piconet")
        if slave in self._parked_slaves:
            raise ValueError(f"slave {slave} is already parked")
        if slave in self._bridge_presence:
            raise ValueError(f"slave {slave} is a bridge; roam it instead")
        if self.devices.slave(slave).has_sco:
            raise ValueError(f"slave {slave} holds an SCO reservation")
        flow_ids = [fid for fid in sorted(self._states)
                    if self._states[fid].spec.slave == slave]
        states = [self.detach_flow(fid) for fid in flow_ids]
        for state in states:
            self._parked_states[state.spec.flow_id] = state
        self._parked_slaves.add(slave)
        return states

    def unpark_slave(self, slave: int) -> List[FlowState]:
        """Return a parked slave to the piconet (reverse of
        :meth:`park_slave`)."""
        if slave not in self._parked_slaves:
            raise ValueError(f"slave {slave} is not parked")
        flow_ids = [fid for fid in sorted(self._parked_states)
                    if self._parked_states[fid].spec.slave == slave]
        states = [self._parked_states.pop(fid) for fid in flow_ids]
        for state in states:
            self.attach_flow_state(state)
        self._parked_slaves.discard(slave)
        return states

    def parked_slaves(self) -> List[int]:
        """The currently parked slaves, in AM-address order."""
        return sorted(self._parked_slaves)

    def attach_poller(self, poller) -> None:
        """Attach the intra-piconet scheduler."""
        self.poller = poller
        self._poller_wants_outcome = type(poller).notify is not Poller.notify
        poller.attach(self)

    def add_link_observer(self,
                          observer: Callable[[int, str, bool], None]) -> None:
        """Register ``observer(slave, direction, error)`` for every observed
        data transmission — the feedback path budget-aware admission uses to
        compare measured loss against admitted budgets."""
        self._link_observers.append(observer)

    def set_air_recorder(self,
                         recorder: Callable[[int, int], None]) -> None:
        """Register ``recorder(start_us, slots)`` for every transaction this
        piconet radiates (ACL/GS transactions and SCO exchanges alike).

        The coupled interference mode wires this to
        :meth:`~repro.baseband.interference.InterferenceField.recorder`, so
        the piconet's *actual* air time — not a duty-cycle model — drives
        every co-located piconet's collision BER.  It fires at the *start*
        of each transaction, so the field only ever learns about slots at
        or after the current virtual time."""
        self._air_recorder = recorder

    # -------------------------------------------------------------- inspection
    def flow_state(self, flow_id: int) -> FlowState:
        """The state of an attached, parked or retired flow.

        Parked and retired (detached, never re-attached) flows keep their
        statistics, so the result helpers report a mid-run eviction or
        removal instead of crashing on it.
        """
        state = self._states.get(flow_id) \
            or self._parked_states.get(flow_id) \
            or self._retired_states.get(flow_id)
        if state is None:
            raise KeyError(f"unknown flow id {flow_id}")
        return state

    def queue(self, flow_id: int) -> FlowQueue:
        return self.flow_state(flow_id).queue

    def flow_states(self) -> List[FlowState]:
        # pollers walk this every selection, so the sorted list is cached
        # until the next add_flow; callers treat it as read-only
        states = self._flow_states_cache
        if states is None:
            states = [self._states[fid] for fid in sorted(self._states)]
            self._flow_states_cache = states
        return states

    def flow_specs(self) -> List[FlowSpec]:
        return [state.spec for state in self.flow_states()]

    def flow_specs_of_slave(self, slave: int) -> List[FlowSpec]:
        """Flow specs terminating at ``slave``, in flow-id order.

        Pollers consult this on every selection; the grouping is cached
        until the next :meth:`add_flow` and callers treat it as read-only.
        """
        cache = self._specs_by_slave_cache
        if cache is None:
            cache = {}
            for state in self.flow_states():
                cache.setdefault(state.spec.slave, []).append(state.spec)
            self._specs_by_slave_cache = cache
        return cache.get(slave, [])

    def slaves(self) -> List[Slave]:
        return self.devices.slaves

    @property
    def now_seconds(self) -> float:
        return self.env.now / 1_000_000.0

    # ------------------------------------------------------------- traffic API
    def offer_packet(self, flow_id: int, size: int) -> HLPacket:
        """Offer a higher-layer packet to a flow's queue (at the current time)."""
        state = self._states.get(flow_id)
        if state is None:
            parked = self._parked_states.get(flow_id)
            if parked is not None:
                # a parked slave's traffic keeps queueing silently: the
                # poller cannot see the flow, so no arrival notification
                packet = HLPacket(flow_id=flow_id, size=size,
                                  created=self.env.now)
                parked.queue.push(packet)
                return packet
            raise KeyError(f"unknown flow id {flow_id}")
        packet = HLPacket(flow_id=flow_id, size=size, created=self.env.now)
        state.queue.push(packet)
        # Only master-side (downlink) arrivals are visible to the poller: the
        # master has no knowledge of data availability at the slaves.
        if self.poller is not None and state.spec.is_downlink:
            self.poller.on_arrival(flow_id, packet)
        return packet

    # ------------------------------------------------------------------ running
    def start(self) -> None:
        """Start the master TDD loop (idempotent)."""
        if not self._started:
            LoopWakeup(self.env, self._master_process())
            self._started = True
            self._run_started_at = self.env.now

    def run(self, duration_seconds: float) -> None:
        """Run the simulation for ``duration_seconds`` of simulated time."""
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        self.start()
        until = self.env.now + int(round(duration_seconds * 1_000_000))
        self.env.run(until=until)
        self._run_ended_at = self.env.now

    @property
    def elapsed_seconds(self) -> float:
        """Simulated time elapsed since the loop was started."""
        start = self._run_started_at if self._run_started_at is not None else 0
        return (self.env.now - start) / 1_000_000.0

    # ----------------------------------------------------------------- results
    def _resolve_duration(self, duration_seconds: Optional[float]) -> float:
        """An explicit duration must be positive; ``None`` means elapsed."""
        if duration_seconds is None:
            return self.elapsed_seconds
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        return duration_seconds

    def flow_stats(self, flow_id: int,
                   duration_seconds: Optional[float] = None) -> dict:
        """Summary statistics for one flow."""
        state = self.flow_state(flow_id)
        duration = self._resolve_duration(duration_seconds)
        stats = {
            "flow_id": flow_id,
            "name": state.spec.name,
            "slave": state.spec.slave,
            "direction": state.spec.direction,
            "class": state.spec.traffic_class,
            "offered_bytes": state.queue.offered_bytes,
            "offered_packets": state.queue.offered_packets,
            "delivered_bytes": state.delivered_bytes,
            "delivered_packets": state.delivered_packets,
            "retransmissions": state.retransmissions,
            "segments_not_received": state.segments_not_received,
            "crc_failures": state.crc_failures,
            "throughput_bps": (state.delivered_bytes * 8 / duration
                               if duration > 0 else float("nan")),
        }
        stats.update({f"delay_{k}": v for k, v in state.delays.summary().items()
                      if k not in ("name",)})
        return stats

    def slave_throughput_bps(self, slave: int,
                             duration_seconds: Optional[float] = None) -> float:
        """Aggregate delivered throughput of all flows of one slave."""
        duration = self._resolve_duration(duration_seconds)
        if duration <= 0:
            return float("nan")
        delivered = sum(state.delivered_bytes for state in self.flow_states()
                        if state.spec.slave == slave)
        return delivered * 8 / duration

    def total_throughput_bps(self, duration_seconds: Optional[float] = None) -> float:
        duration = self._resolve_duration(duration_seconds)
        if duration <= 0:
            return float("nan")
        delivered = sum(state.delivered_bytes for state in self.flow_states())
        return delivered * 8 / duration

    def slot_accounting(self) -> dict:
        """Slots spent per activity since the simulation started."""
        used = self.slots_gs + self.slots_be + self.slots_sco + self.slots_idle
        accounting = {
            "gs": self.slots_gs,
            "be": self.slots_be,
            "sco": self.slots_sco,
            "idle": self.slots_idle,
            "accounted": used,
            "gs_polls_without_data": self.gs_polls_without_data,
            "be_polls_without_data": self.be_polls_without_data,
        }
        # only scatternet piconets report the bridge counters, so the rows
        # (and golden fixtures) of single-piconet experiments are unchanged
        if self._bridge_presence:
            accounting["bridge_absent_polls"] = self.bridge_absent_polls
        if self._negotiated_bridges:
            accounting["bridge_skipped_polls"] = self.bridge_skipped_polls
        # likewise only timeline scenarios (the only source of topology
        # changes) grow the extra keys
        if self.topology_changes:
            accounting["topology_changes"] = self.topology_changes
        if self._parked_slaves:
            accounting["parked_slaves"] = self.parked_slaves()
        return accounting

    def fast_path_stats(self) -> dict:
        """``{"enabled": False}``: the repository benchmark reads it."""
        return {"enabled": False}

    # ------------------------------------------------------------ master loop
    # The loop yields integer microsecond delays and runs as a LoopWakeup:
    # one event id per suspension, the ids a process yielding
    # env.timeout(delay) would take.  A transaction is planned at its start
    # (_begin_transaction) and committed per direction (_apply_downlink at
    # the downlink end, _finish_transaction at the uplink end).
    def _master_process(self):
        env = self.env
        poller = self.poller
        sco_table = self.sco_table
        # the backing containers: runtime changes stay visible
        sco_links = sco_table._links
        negotiated = self._negotiated_bridges
        align = self.config.align_even_slots
        begin = self._begin_transaction
        apply_downlink = self._apply_downlink
        finish = self._finish_transaction
        while True:
            now = env._now
            slot_index = now // SLOT_US

            # 1. honour SCO reservations
            if sco_links:
                link = sco_table.link_for_slot(slot_index)
                if link is not None:
                    yield from self._execute_sco(link)
                    continue

            # 2. ask the poller
            plan = poller.select(now) if poller is not None else None

            # 2b. a negotiated hold schedule lets the master *know* the
            #     bridge is away: skip the planned poll instead of burning
            #     2..6 slots on a guaranteed failure.  The poller is
            #     notified with a zero-slot outcome so its planner
            #     postpones the skipped stream (and its fairness state
            #     moves on) and the *same* slot can serve other traffic —
            #     re-selecting is bounded so a poller that keeps proposing
            #     absent bridges cannot spin the loop within one slot.
            if negotiated:
                reselects = len(self.devices.slaves) + 1
                while (plan is not None and plan.slave in negotiated
                        and not self._slave_present(plan.slave, now)):
                    self.bridge_skipped_polls += 1
                    self._bridge_skipped_by_slave[plan.slave] = (
                        self._bridge_skipped_by_slave.get(plan.slave, 0) + 1)
                    poller.notify(self._skipped_outcome(plan))
                    reselects -= 1
                    if reselects <= 0:
                        plan = None
                        break
                    plan = poller.select(now)

            # 3. never start an ACL transaction that would overlap the next
            #    SCO reservation.  The master knows the exact packet it will
            #    transmit (the downlink head segment, or a 1-slot POLL), so
            #    only the slave's response needs the worst-case allowance —
            #    budgeting the policy maximum for *both* directions would
            #    starve ACL entirely next to an HV3 link (4 free slots per
            #    6-slot period, but a DH3-capable worst case of 6).
            if plan is not None and sco_links:
                next_reservation = sco_table.next_reservation(slot_index)
                if next_reservation is not None:
                    dl_slots = 1
                    if plan.dl_flow_id is not None:
                        head = self.queue(plan.dl_flow_id).peek_segment()
                        if head is not None:
                            dl_slots = head.ptype.slots
                    ul_slots = (
                        self.queue(plan.ul_flow_id).policy.max_segment_slots()
                        if plan.ul_flow_id is not None else 1)
                    if slot_index + dl_slots + ul_slots > next_reservation:
                        plan = None

            # 4. idle to the next usable master slot, or run the exchange
            if plan is None:
                advance = 2 if align and slot_index % 2 == 0 else 1
                self.slots_idle += advance
                yield advance * SLOT_US
                continue
            txn = begin(plan)
            yield txn.dl_packet.ptype.slots * SLOT_US
            apply_downlink(txn)
            yield txn.ul_packet.ptype.slots * SLOT_US
            finish(txn)

    def _begin_transaction(self, plan: TransactionPlan) -> _Transaction:
        """Plan step: snapshot queues, packets and bridge presence."""
        txn = _Transaction()
        txn.plan = plan
        txn.start = self.env._now

        states = self._states
        dl_state = states.get(plan.dl_flow_id)  # no flow has id None
        ul_state = states.get(plan.ul_flow_id)
        txn.dl_state = dl_state
        txn.ul_state = ul_state

        dl_segment = dl_state.queue.peek_segment() if dl_state is not None else None
        # Snapshot the uplink queue at master transmission start (paper rule).
        ul_segment = ul_state.queue.peek_segment() if ul_state is not None else None
        txn.dl_segment = dl_segment
        txn.ul_segment = ul_segment

        txn.dl_packet = dl_segment if dl_segment is not None else _POLL_PACKET
        txn.ul_packet = ul_segment if ul_segment is not None else _NULL_PACKET

        if self._air_recorder is not None:
            # the whole transaction span radiates (POLL/NULL included; an
            # absent bridge still hears the master's half) — reported at
            # begin time, so the field never learns about past slots
            self._air_recorder(
                txn.start,
                txn.dl_packet.ptype.slots + txn.ul_packet.ptype.slots)

        txn.deliveries = []

        # A scatternet bridge that is currently residing in its other
        # piconet hears nothing: the transaction still burns its slots, but
        # both directions are guaranteed failures (the downlink packet is
        # never received, the uplink answer never sent).  Presence is
        # evaluated per direction, so a handover mid-transaction loses
        # exactly the directions transmitted while away.
        presence = self._bridge_presence.get(plan.slave)
        bridge_absent = (presence is not None
                         and not presence(txn.start // SLOT_US))
        txn.bridge_absent = bridge_absent
        if bridge_absent:
            self.bridge_absent_polls += 1
            self._bridge_absent_by_slave[plan.slave] = (
                self._bridge_absent_by_slave.get(plan.slave, 0) + 1)
        return txn

    def _apply_downlink(self, txn: _Transaction) -> None:
        """Commit the downlink direction (clock sits at downlink end).

        Each direction traverses its own link channel, with the channel
        state advanced to the slot the packet starts in; losses in the two
        directions are sampled independently (control POLL/NULL packets
        are assumed to always get through, as before).
        """
        dl_segment = txn.dl_segment
        if dl_segment is None:
            dl_result = TX_OK
        elif txn.bridge_absent:  # presence at transaction start
            dl_result = TX_NOT_RECEIVED
        else:
            dl_result = self.channels.transmit(txn.plan.slave, DOWNLINK,
                                               txn.dl_packet, now_us=txn.start)
        txn.dl_result = dl_result
        txn.dl_error = dl_result is not TX_OK  # TX_OK without a segment
        if dl_segment is not None:
            dl_state = txn.dl_state
            if dl_result is TX_OK:
                dl_state.queue.confirm_segment()
                delivery = self._deliver(
                    dl_state, dl_segment,
                    build_delivery=self._poller_wants_outcome)
                if delivery is not None:
                    txn.deliveries.append(delivery)
            else:
                dl_state.record_failure(dl_result)
            self._observe_transmission(dl_state, txn.dl_error)
        txn.ul_start = self.env._now

    def _finish_transaction(self, txn: _Transaction) -> None:
        """Commit the uplink direction and the transaction's accounting
        (clock sits at transaction end)."""
        plan = txn.plan
        ul_segment = txn.ul_segment
        if ul_segment is None:
            ul_result = TX_OK
        elif not self._slave_present(plan.slave, txn.ul_start):
            ul_result = TX_NOT_RECEIVED
        else:
            ul_result = self.channels.transmit(plan.slave, UPLINK,
                                               txn.ul_packet,
                                               now_us=txn.ul_start)
        ul_error = ul_result is not TX_OK
        if ul_segment is not None:
            ul_state = txn.ul_state
            if ul_result is TX_OK:
                ul_state.queue.confirm_segment()
                delivery = self._deliver(
                    ul_state, ul_segment,
                    build_delivery=self._poller_wants_outcome)
                if delivery is not None:
                    txn.deliveries.append(delivery)
            else:
                ul_state.record_failure(ul_result)
            self._observe_transmission(ul_state, ul_error)

        dl_segment = txn.dl_segment
        dl_result = txn.dl_result
        slots = txn.dl_packet.ptype.slots + txn.ul_packet.ptype.slots
        carried = (dl_segment is not None and dl_result is TX_OK) \
            or (ul_segment is not None and ul_result is TX_OK)
        if plan.kind == KIND_GS:
            self.slots_gs += slots
            self.transactions_gs += 1
            if not carried:
                self.gs_polls_without_data += 1
        else:
            self.slots_be += slots
            self.transactions_be += 1
            if not carried:
                self.be_polls_without_data += 1

        # pollers that keep the base no-op notify never inspect outcomes,
        # so the objects are only built when someone will read them
        if not self._poller_wants_outcome:
            return
        outcome = PollOutcome(
            plan=plan,
            start=txn.start,
            end=self.env.now,
            slots=slots,
            dl_carried_data=dl_segment is not None and dl_result is TX_OK,
            ul_carried_data=ul_segment is not None and ul_result is TX_OK,
            dl_error=txn.dl_error,
            ul_error=ul_error,
            dl_not_received=dl_result is TX_NOT_RECEIVED,
            ul_not_received=ul_result is TX_NOT_RECEIVED,
            dl_link=(plan.slave, DOWNLINK),
            ul_link=(plan.slave, UPLINK),
            bridge_absent=txn.bridge_absent,
            deliveries=txn.deliveries,
        )
        self.poller.notify(outcome)

    def _skipped_outcome(self, plan: TransactionPlan) -> PollOutcome:
        """The zero-slot outcome of a negotiated skip (nothing on the air).

        No transmission happened, so no failure is booked anywhere — the
        outcome only tells the poller that the planned poll could not be
        served now, which postpones the stream exactly like an
        unsuccessful poll would, without consuming its slots.
        """
        now = self.env.now
        return PollOutcome(
            plan=plan, start=now, end=now, slots=0,
            dl_carried_data=False, ul_carried_data=False,
            bridge_absent=True,
            dl_link=(plan.slave, DOWNLINK), ul_link=(plan.slave, UPLINK))

    def _observe_transmission(self, state: FlowState, error: bool) -> None:
        """Feed one observed data transmission back to an adaptive policy."""
        observe = getattr(state.queue.policy, "observe_transmission", None)
        if observe is not None:
            observe(error)
        for observer in self._link_observers:
            observer(state.spec.slave, state.spec.direction, error)

    def _execute_sco(self, link: ScoLink):
        """Run one reserved SCO exchange (one slot each way, no ARQ)."""
        flows = self._sco_flows.get(link.slave, {"DL": None, "UL": None})
        start = self.env.now
        if self._air_recorder is not None:
            self._air_recorder(start, 2)
        yield 2 * SLOT_US
        self.slots_sco += 2
        for slot_offset, direction in enumerate((DOWNLINK, UPLINK)):
            flow_id = flows.get("DL" if direction == DOWNLINK else "UL")
            if flow_id is None:
                continue
            state = self._states[flow_id]
            segment = state.queue.peek_segment()
            if segment is None:
                continue
            if segment.payload > link.packet_type.max_payload:
                raise ValueError(
                    f"SCO flow {flow_id} produced a segment of {segment.payload} "
                    f"bytes which does not fit in {link.packet_type.name}")
            state.queue.confirm_segment()
            slot_start = start + slot_offset * SLOT_US
            if not self._slave_present(link.slave, slot_start):
                # an absent bridge neither hears nor fills its reserved
                # slots; the voice frame is erased outright
                result = TX_NOT_RECEIVED
            else:
                result = self.channels.transmit(
                    link.slave, direction, segment, now_us=slot_start)
            if result is not TX_OK:
                # SCO has no retransmission: the (corrupted or erased)
                # payload is still played out, only the residual error is
                # counted — a missed access code erases the whole frame,
                # an uncorrected payload error garbles it.
                state.sco_residual_errors += 1
            self._deliver(state, segment, build_delivery=False)

    def _deliver(self, state: FlowState, segment: BasebandPacket,
                 build_delivery: bool = True) -> Optional[SegmentDelivery]:
        """Book one delivered segment; the receipt object is optional.

        The :class:`SegmentDelivery` receipt exists solely for
        ``PollOutcome.deliveries``; callers whose poller never reads
        outcomes pass ``build_delivery=False`` and get ``None`` back while
        every statistic is updated identically.
        """
        state.segments_delivered += 1
        state.delivered_segment_bytes += segment.payload
        if build_delivery:
            delivery = SegmentDelivery(
                flow_id=state.spec.flow_id,
                payload=segment.payload,
                is_last_segment=segment.is_last_segment,
                hl_packet_id=segment.hl_packet_id,
                hl_packet_size=segment.hl_packet_size,
                hl_arrival_time=segment.hl_arrival_time,
            )
        else:
            delivery = None
        result = state.reassembler.push(segment)
        if result is not None:
            arrival = result["arrival_time"]
            delay_seconds = (self.env.now - arrival) / 1_000_000.0
            state.delays.record(delay_seconds)
            state.delivered_bytes += result["size"]
            state.delivered_packets += 1
            if delivery is not None:
                delivery.completed_at = self.env.now
        return delivery
