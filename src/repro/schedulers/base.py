"""Poller interface and the transaction data structures.

The master's TDD loop (:class:`repro.piconet.piconet.Piconet`) and any
scheduling policy communicate through three small objects:

* :class:`TransactionPlan` — the poller's decision for the next transaction:
  which slave to address and which flows (one per direction, optionally)
  the transaction serves.
* :class:`SegmentDelivery` — one successfully delivered baseband segment,
  with its reassembly metadata.
* :class:`PollOutcome` — everything that happened during the transaction,
  handed back to the poller so it can update its state (planned polls,
  fairness accounting, availability predictions, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


#: Transaction kinds, used for slot accounting.
KIND_GS = "GS"
KIND_BE = "BE"
KIND_SCO = "SCO"
KIND_IDLE = "IDLE"


@dataclass(slots=True)
class TransactionPlan:
    """The poller's decision for one master/slave exchange.

    Parameters
    ----------
    slave:
        AM address of the slave to address.
    dl_flow_id / ul_flow_id:
        Flow whose queue supplies the downlink packet, and flow the
        addressed slave may answer for.  Either may be ``None``; the master
        then sends a POLL packet and/or the slave answers with NULL.
    kind:
        ``"GS"``, ``"BE"`` or ``"SCO"`` — used for slot accounting only.
    gs_flow_id:
        For GS transactions, the flow whose *planned poll* this transaction
        executes (it may differ from the flow that actually transfers data,
        e.g. a poll planned for an uplink flow that piggybacks downlink
        data).
    info:
        Free-form metadata a poller may attach for its own use in
        :meth:`Poller.notify` (``None`` unless the poller set any — plans
        are built once per transaction, so the common case allocates no
        dict).
    """

    slave: int
    dl_flow_id: Optional[int] = None
    ul_flow_id: Optional[int] = None
    kind: str = KIND_BE
    gs_flow_id: Optional[int] = None
    info: Optional[Dict[str, Any]] = None

    # written out (the dataclass keeps a class's own __init__): pollers
    # build one plan per transaction, and a generated __init__ would add
    # a __post_init__ call to each
    def __init__(self, slave: int, dl_flow_id: Optional[int] = None,
                 ul_flow_id: Optional[int] = None, kind: str = KIND_BE,
                 gs_flow_id: Optional[int] = None,
                 info: Optional[Dict[str, Any]] = None) -> None:
        if kind not in (KIND_GS, KIND_BE, KIND_SCO):
            raise ValueError(f"invalid transaction kind {kind!r}")
        if not 1 <= slave <= 7:
            raise ValueError(f"invalid slave AM address {slave}")
        self.slave = slave
        self.dl_flow_id = dl_flow_id
        self.ul_flow_id = ul_flow_id
        self.kind = kind
        self.gs_flow_id = gs_flow_id
        self.info = info


@dataclass(slots=True)
class SegmentDelivery:
    """One baseband segment successfully delivered to its destination."""

    flow_id: int
    payload: int
    is_last_segment: bool
    hl_packet_id: Optional[int]
    hl_packet_size: int
    hl_arrival_time: Optional[float]
    #: completion time of the higher-layer packet (set when is_last_segment)
    completed_at: Optional[float] = None


@dataclass(slots=True)
class PollOutcome:
    """Everything the poller needs to know about an executed transaction.

    ``dl_link`` / ``ul_link`` identify the directed ``(slave, direction)``
    links the transaction used, so pollers and monitors can attribute the
    per-direction results to the right channel.  ``dl_error`` / ``ul_error``
    flag a failed data segment in that direction (it stays queued for ARQ);
    ``dl_not_received`` / ``ul_not_received`` narrow the failure down to an
    access-code/header loss (the receiver never saw the packet) as opposed
    to a payload CRC failure.
    """

    plan: TransactionPlan
    start: float
    end: float
    slots: int
    dl_carried_data: bool
    ul_carried_data: bool
    dl_error: bool = False
    ul_error: bool = False
    dl_not_received: bool = False
    ul_not_received: bool = False
    #: the addressed slave was a scatternet bridge away in its other
    #: piconet when the transaction started (guaranteed failure)
    bridge_absent: bool = False
    #: directed links used by the transaction, e.g. ``(3, "DL")``
    dl_link: Optional[Tuple[int, str]] = None
    ul_link: Optional[Tuple[int, str]] = None
    deliveries: List[SegmentDelivery] = field(default_factory=list)

    @property
    def carried_any_data(self) -> bool:
        """Whether the transaction moved user data in either direction."""
        return self.dl_carried_data or self.ul_carried_data

    def delivery_for(self, flow_id: int) -> Optional[SegmentDelivery]:
        """The delivery belonging to ``flow_id``, if any."""
        for delivery in self.deliveries:
            if delivery.flow_id == flow_id:
                return delivery
        return None


class Poller:
    """Base class for intra-piconet schedulers.

    Life cycle: the piconet calls :meth:`attach` once, then alternates
    :meth:`select` / :meth:`notify` for every transaction.  Traffic arrivals
    at the master (and, for simulation convenience, at the slaves) are
    reported through :meth:`on_arrival`; a real master would only see its
    own downlink arrivals, and pollers that must not cheat (everything in
    this package and in :mod:`repro.core`) only ever use the downlink
    information plus what :class:`PollOutcome` reveals.
    """

    name = "poller"

    def __init__(self):
        self.piconet = None

    def attach(self, piconet) -> None:
        """Bind the poller to a piconet (called by ``Piconet.attach_poller``)."""
        self.piconet = piconet

    # -- scheduling interface ---------------------------------------------------
    def select(self, now: float) -> Optional[TransactionPlan]:
        """Decide the next transaction (or ``None`` to idle one slot)."""
        raise NotImplementedError

    def notify(self, outcome: PollOutcome) -> None:
        """Digest the outcome of the transaction returned by :meth:`select`."""

    def on_arrival(self, flow_id: int, packet) -> None:
        """A higher-layer packet arrived at the queue of ``flow_id``."""

    # -- topology lifecycle -----------------------------------------------------
    def on_flows_attached(self, states) -> None:
        """Flow states joined the piconet after :meth:`attach` (a timeline
        ``flow-add`` or an unparked slave).  Pollers that cache per-flow
        structures at attach time override this; the base class relies on
        the piconet's per-slave caches being rebuilt and needs no work."""

    def on_flows_detached(self, flow_ids) -> None:
        """Flow states left the piconet (a timeline ``flow-remove``, a
        parked slave, or a GS eviction).  Counterpart of
        :meth:`on_flows_attached`."""

    # -- helpers shared by concrete pollers -----------------------------------
    def _require_attached(self) -> None:
        if self.piconet is None:
            raise RuntimeError(f"{type(self).__name__} is not attached to a piconet")

    def downlink_has_data(self, flow_id: int) -> bool:
        """Whether the master-side queue of ``flow_id`` has data (master knowledge)."""
        piconet = self.piconet
        if piconet is None:
            self._require_attached()
        # an attached flow's queue first: pollers ask on every selection
        state = piconet._states.get(flow_id)
        queue = state.queue if state is not None else piconet.queue(flow_id)
        return queue.has_data()

    def flows_of_slave(self, slave: int, traffic_class: Optional[str] = None):
        """Flow specs terminating at ``slave`` (optionally filtered by class).

        The unfiltered variant returns the piconet's cached per-slave
        grouping (read-only) — pollers call this on every selection.
        """
        self._require_attached()
        specs = self.piconet.flow_specs_of_slave(slave)
        if traffic_class is None:
            return specs
        return [spec for spec in specs
                if spec.traffic_class == traffic_class]

    def build_plan_for_slave(self, slave: int, kind: str = KIND_BE,
                             traffic_class: Optional[str] = None,
                             gs_flow_id: Optional[int] = None) -> TransactionPlan:
        """Convenience: a plan serving the slave's DL and UL flows of a class."""
        dl_flow = None
        ul_flow = None
        for spec in self.flows_of_slave(slave, traffic_class):
            if spec.is_downlink and dl_flow is None:
                dl_flow = spec.flow_id
            elif spec.is_uplink and ul_flow is None:
                ul_flow = spec.flow_id
        return TransactionPlan(slave=slave, dl_flow_id=dl_flow, ul_flow_id=ul_flow,
                               kind=kind, gs_flow_id=gs_flow_id)
