"""Spec factories for the repository's workload families.

Each factory maps the keyword surface of a historical workload builder
onto a declarative :class:`~repro.scenario.specs.ScenarioSpec` — same
parameters, same validation, same error messages — so a workload is
built as ``factory(...).compile(seed)``, and experiment drivers construct
(and declaratively mutate) specs instead of closures.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.baseband.constants import SLOT_SECONDS
from repro.core.token_bucket import TSpec, cbr_tspec
from repro.piconet.flows import BE, DOWNLINK, GS, UPLINK
from repro.scenario.specs import (
    BridgeSpec,
    ChannelSpec,
    EventSpec,
    FlowSpec,
    ImprovementsSpec,
    InterferenceSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
    ScoSpec,
    TimelineSpec,
)

#: GS source parameters of Section 4.1.
GS_PACKET_INTERVAL_S = 0.020
GS_MIN_PACKET = 144
GS_MAX_PACKET = 176

#: Best-effort source parameters of Section 4.1: rate per flow, by slave.
BE_RATES_BPS = {4: 41_600, 5: 47_200, 6: 52_800, 7: 58_400}
BE_PACKET_SIZE = 176

#: The Section 4.1 best-effort rates as a cycle, so scenarios that put BE
#: flows on other slaves (heavy piconets) reuse the paper's load mix.
BE_RATE_CYCLE_BPS = (41_600, 47_200, 52_800, 58_400)

#: SCO voice parameters for mixed SCO+GS workloads: 150-byte frames every
#: 18.75 ms are exactly 64 kbit/s and map onto whole HV3 packets (5 x 30 B).
SCO_VOICE_INTERVAL_S = 0.01875
SCO_VOICE_PACKET = 150

#: Packet types allowed in the Section 4.1 scenario.
ALLOWED_TYPES = ("DH1", "DH3")

#: Longest transaction in the Section 4.1 scenario: DH3 downlink + DH3 uplink.
MAX_TRANSACTION_SECONDS = 6 * SLOT_SECONDS

#: Default slave names of a full seven-slave piconet.
SEVEN_SLAVES = ("S1", "S2", "S3", "S4", "S5", "S6", "S7")


def figure4_gs_tspec() -> TSpec:
    """The token bucket of each GS flow (p = r = 8.8 kB/s, b = M = 176 B)."""
    return cbr_tspec(GS_PACKET_INTERVAL_S, GS_MIN_PACKET, GS_MAX_PACKET)


def be_rate_bps(slave: int) -> float:
    """The Section-4.1 best-effort rate of ``slave`` (rates cycle 4..7)."""
    return BE_RATES_BPS.get(slave, BE_RATE_CYCLE_BPS[(slave - 4) % 4])


def _be_flow(flow_id: int, slave: int, direction: str, rate_bps: float,
             allowed_types: Tuple[str, ...], load_scale: float) -> FlowSpec:
    """One best-effort flow; ``load_scale == 0`` registers it sourceless."""
    if load_scale > 0:
        interval = BE_PACKET_SIZE * 8 / (rate_bps * load_scale)
        return FlowSpec(flow_id, slave=slave, direction=direction,
                        traffic_class=BE, allowed_types=allowed_types,
                        interval_s=interval, size=BE_PACKET_SIZE,
                        rng_stream=f"be-{flow_id}", stagger=True)
    return FlowSpec(flow_id, slave=slave, direction=direction,
                    traffic_class=BE, allowed_types=allowed_types)


def _sco_flow(flow_id: int, slave: int) -> FlowSpec:
    """One HV3 voice uplink riding a reserved SCO link."""
    return FlowSpec(flow_id, slave=slave, direction=UPLINK, traffic_class=GS,
                    allowed_types=("HV3",), interval_s=SCO_VOICE_INTERVAL_S,
                    size=SCO_VOICE_PACKET, rng_stream=f"sco-{flow_id}",
                    stagger=True)


def _unstagger(flows: Sequence[FlowSpec]) -> Tuple[FlowSpec, ...]:
    """Drop every flow's random phase offset (``stagger_sources=False``)."""
    from dataclasses import replace
    return tuple(replace(flow, stagger=False) for flow in flows)


def figure4_piconet_spec(delay_requirement: Optional[float] = 0.040,
                         gs_rate: Optional[float] = None,
                         be_load_scale: float = 1.0,
                         variable_interval: bool = True,
                         piggyback_aware: bool = True,
                         postpone_by_packet_size: bool = True,
                         postpone_after_unsuccessful: bool = True,
                         skip_when_no_downlink_data: bool = True,
                         channel: Optional[ChannelSpec] = None,
                         stagger_sources: bool = True,
                         be_slaves: Optional[Sequence[int]] = None,
                         sco_slaves: Sequence[int] = (),
                         gs_uplink_only: bool = False,
                         be_directions: Sequence[str] = (DOWNLINK, UPLINK),
                         allowed_types: Sequence[str] = ALLOWED_TYPES,
                         adaptive_segmentation: bool = False,
                         name: str = "piconet") -> PiconetSpec:
    """The Section-4.1 piconet as a :class:`PiconetSpec`.

    Parameter semantics match the keyword surface of the removed Figure-4
    builder one-to-one; see the migration table in
    ``src/repro/experiments/README.md``.
    """
    if (delay_requirement is None) == (gs_rate is None):
        raise ValueError("specify exactly one of delay_requirement / gs_rate")
    if be_load_scale < 0:
        raise ValueError("be_load_scale cannot be negative")
    be_slaves = tuple(be_slaves) if be_slaves is not None else (4, 5, 6, 7)
    sco_slaves = tuple(sco_slaves)
    if any(not 1 <= slave <= 7 for slave in (*be_slaves, *sco_slaves)):
        raise ValueError("slaves must lie in 1..7")
    if len(set(be_slaves)) != len(be_slaves):
        raise ValueError("be_slaves must not repeat")
    overlap = set(sco_slaves) & ({1, 2, 3} | set(be_slaves))
    if overlap:
        raise ValueError(
            f"sco_slaves must not carry GS or BE flows: {sorted(overlap)}")
    be_directions = tuple(be_directions)
    if not be_directions or any(d not in (DOWNLINK, UPLINK)
                                for d in be_directions):
        raise ValueError(
            f"be_directions must be a non-empty subset of "
            f"({DOWNLINK!r}, {UPLINK!r}), got {be_directions!r}")

    acl_types = tuple(allowed_types)
    gs_directions = (UPLINK, UPLINK, UPLINK, UPLINK) if gs_uplink_only \
        else (UPLINK, DOWNLINK, UPLINK, UPLINK)
    gs_slaves = (1, 2, 2, 3)
    flows = [
        FlowSpec(flow_id, slave=slave, direction=direction, traffic_class=GS,
                 allowed_types=acl_types, interval_s=GS_PACKET_INTERVAL_S,
                 size=(GS_MIN_PACKET, GS_MAX_PACKET),
                 rng_stream=f"gs-{flow_id}", stagger=True,
                 delay_bound=delay_requirement, rate=gs_rate)
        for flow_id, (slave, direction)
        in enumerate(zip(gs_slaves, gs_directions), start=1)]
    flow_id = 5
    for slave in be_slaves:
        for direction in be_directions:
            flows.append(_be_flow(flow_id, slave, direction,
                                  be_rate_bps(slave), acl_types,
                                  be_load_scale))
            flow_id += 1
    sco_links = []
    for slave in sco_slaves:
        flows.append(_sco_flow(flow_id, slave))
        sco_links.append(ScoSpec(slave=slave, packet_type="HV3",
                                 ul_flow_id=flow_id))
        flow_id += 1
    flows = tuple(flows) if stagger_sources else _unstagger(flows)
    return PiconetSpec(
        name=name,
        slaves=SEVEN_SLAVES,
        flows=flows,
        sco_links=tuple(sco_links),
        allowed_types=acl_types,
        adaptive_segmentation=adaptive_segmentation,
        channel=channel if channel is not None else ChannelSpec(),
        poller=PollerSpec(kind="pfp"),
        improvements=ImprovementsSpec(
            variable_interval=variable_interval,
            piggyback_aware=piggyback_aware,
            postpone_by_packet_size=postpone_by_packet_size,
            postpone_after_unsuccessful=postpone_after_unsuccessful,
            skip_when_no_downlink_data=skip_when_no_downlink_data))


def figure4_spec(**kwargs) -> ScenarioSpec:
    """The Section-4.1 scenario (one piconet) as a :class:`ScenarioSpec`."""
    return ScenarioSpec(piconets=(figure4_piconet_spec(**kwargs),))


def multi_sco_piconet_spec(acl_types: Sequence[str] = ("DH1",),
                           sco_slaves: Sequence[int] = (6, 7),
                           acl_slaves: Sequence[int] = (1, 2, 3),
                           acl_load_scale: float = 1.0,
                           channel: Optional[ChannelSpec] = None,
                           stagger_sources: bool = True,
                           adaptive_segmentation: bool = False,
                           name: str = "piconet") -> PiconetSpec:
    """A round-robin piconet with HV3 voice links next to best-effort ACL.

    With ``sco_slaves=()`` this doubles as a plain round-robin best-effort
    piconet (the ``dm_vs_dh`` and interference workloads use it).
    """
    sco_slaves = tuple(sco_slaves)
    acl_slaves = tuple(acl_slaves)
    if set(sco_slaves) & set(acl_slaves):
        raise ValueError("sco_slaves and acl_slaves must be disjoint")
    if acl_load_scale < 0:
        raise ValueError("acl_load_scale cannot be negative")

    acl_types = tuple(acl_types)
    flows = []
    flow_id = 1
    for slave in acl_slaves:
        for direction in (DOWNLINK, UPLINK):
            flows.append(_be_flow(flow_id, slave, direction,
                                  be_rate_bps(4 + (slave - 1) % 4),
                                  acl_types, acl_load_scale))
            flow_id += 1
    sco_links = []
    for slave in sco_slaves:
        flows.append(_sco_flow(flow_id, slave))
        sco_links.append(ScoSpec(slave=slave, packet_type="HV3",
                                 ul_flow_id=flow_id))
        flow_id += 1
    flows = tuple(flows) if stagger_sources else _unstagger(flows)
    return PiconetSpec(
        name=name,
        slaves=SEVEN_SLAVES,
        flows=flows,
        sco_links=tuple(sco_links),
        allowed_types=acl_types,
        adaptive_segmentation=adaptive_segmentation,
        channel=channel if channel is not None else ChannelSpec(),
        poller=PollerSpec(kind="round_robin", only_slaves=acl_slaves))


def multi_sco_spec(**kwargs) -> ScenarioSpec:
    """The multi-SCO workload (one piconet) as a :class:`ScenarioSpec`."""
    return ScenarioSpec(piconets=(multi_sco_piconet_spec(**kwargs),))


def interfered_be_spec(interferer_duties: Sequence[float],
                       acl_load_scale: float = 1.5,
                       acl_types: Sequence[str] = ("DH1", "DH3"),
                       acl_slaves: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
                       base_bit_error_rate: float = 0.0,
                       ber_per_collision: Optional[float] = None
                       ) -> ScenarioSpec:
    """A saturated best-effort piconet inside an interference field.

    Each entry of ``interferer_duties`` registers one co-located piconet
    with that duty cycle; the victim's links combine an optional iid base
    BER with the field's hop-collision BER.
    """
    piconet = multi_sco_piconet_spec(
        acl_types=tuple(acl_types), sco_slaves=(),
        acl_slaves=tuple(acl_slaves), acl_load_scale=acl_load_scale,
        channel=ChannelSpec(model="iid", ber=base_bit_error_rate)
        if base_bit_error_rate > 0 else None,
        name="victim")
    return ScenarioSpec(
        piconets=(piconet,),
        interference=InterferenceSpec(
            victim="victim",
            interferer_duties=tuple(interferer_duties),
            ber_per_collision=ber_per_collision))


def coupled_room_spec(piconets: int,
                      acl_load_scale: float = 1.5,
                      acl_types: Sequence[str] = ("DH1", "DH3"),
                      acl_slaves: Sequence[int] = (1, 2, 3),
                      base_bit_error_rate: float = 0.0,
                      ber_per_collision: Optional[float] = None
                      ) -> ScenarioSpec:
    """``piconets`` fully simulated piconets coupled through one field.

    The honest crowded room: unlike :func:`interfered_be_spec` (one victim
    plus duty-cycle noise processes), every piconet here runs its own
    master loop on the shared clock, and its *actual* transmissions drive
    everyone else's collision BER through the interference field's
    occupancy index.  Piconets are named ``p1..pN`` (``p1`` anchors dotted
    overrides) and draw traffic from disjoint ``room-<i>`` RNG namespaces
    so their loads are independent rather than lock-step replicas.
    """
    from dataclasses import replace

    if piconets < 1:
        raise ValueError(f"piconets must be >= 1, got {piconets}")
    members = []
    for index in range(1, piconets + 1):
        piconet = multi_sco_piconet_spec(
            acl_types=tuple(acl_types), sco_slaves=(),
            acl_slaves=tuple(acl_slaves), acl_load_scale=acl_load_scale,
            channel=ChannelSpec(model="iid", ber=base_bit_error_rate)
            if base_bit_error_rate > 0 else None,
            name=f"p{index}")
        members.append(replace(piconet, rng_namespace=f"room-{index}"))
    return ScenarioSpec(
        piconets=tuple(members),
        interference=InterferenceSpec(
            victim="p1",
            coupled=True,
            ber_per_collision=ber_per_collision))


def churn_recovery_spec(interferers: int = 4,
                        burst_start_s: float = 0.25,
                        renegotiate_at_s: float = 0.5,
                        renegotiate_flow_id: int = 1,
                        tolerance: float = 0.02,
                        min_observations: int = 10,
                        max_retries: int = 8,
                        backoff_s: float = 0.1,
                        ber_per_collision: Optional[float] = None
                        ) -> ScenarioSpec:
    """The Section-4.1 piconet hit by a mid-run interference burst.

    The timeline tells the story the ``churn_recovery`` experiment
    measures: the scenario declares ``interferers`` saturated co-located
    piconets, but switches them all *off* at time zero — the piconet
    starts on a clean band, and (oblivious) admission reserves rates that
    assume it stays clean.  At ``burst_start_s`` every interferer switches
    on (a neighbour's scatternet waking up, a microwave oven), GS flows
    start losing packets, and at ``renegotiate_at_s`` the manager is asked
    to renegotiate ``renegotiate_flow_id`` once its measured loss exceeds
    ``tolerance`` over at least ``min_observations`` observed
    transmissions — retrying every ``backoff_s`` up to ``max_retries``
    times while the evidence accumulates.  The renegotiation either
    re-admits the flow with its budget raised to the measured loss, or
    evicts it cleanly (freeing its reserved capacity for the others).
    """
    if interferers < 1:
        raise ValueError(f"interferers must be >= 1, got {interferers}")
    if burst_start_s > renegotiate_at_s:
        raise ValueError(
            f"the burst ({burst_start_s}s) must not start after the "
            f"renegotiation check ({renegotiate_at_s}s)")
    events = [EventSpec(at_s=0.0, kind="interferer-off", interferer=index)
              for index in range(1, interferers + 1)]
    events += [EventSpec(at_s=burst_start_s, kind="interferer-on",
                         interferer=index)
               for index in range(1, interferers + 1)]
    events.append(EventSpec(
        at_s=renegotiate_at_s, kind="flow-renegotiate",
        flow_id=renegotiate_flow_id, tolerance=tolerance,
        min_observations=min_observations, max_retries=max_retries,
        backoff_s=backoff_s))
    return ScenarioSpec(
        piconets=(figure4_piconet_spec(name="victim"),),
        interference=InterferenceSpec(
            victim="victim",
            interferer_duties=(1.0,) * interferers,
            ber_per_collision=ber_per_collision),
        timeline=TimelineSpec(events=tuple(events)))


#: AM address of the bridge inside piconet A (carries GS flow 4).
BRIDGE_SLAVE_A = 3

#: AM address of the bridge inside piconet B.
BRIDGE_SLAVE_B = 1


def bridge_split_spec(bridge_share: float,
                      period_slots: int = 96,
                      switch_slots: int = 2,
                      delay_requirement: float = 0.040,
                      b_load_scale: float = 1.0,
                      negotiated: bool = False) -> ScenarioSpec:
    """The Section-4.1 piconet with S3 bridging into a second piconet.

    ``bridge_share`` is the fraction of every ``period_slots``-slot cycle
    the bridge spends in piconet A (where it carries GS flow 4); the rest
    of the cycle it serves one downlink + one uplink best-effort flow as
    the only slave of piconet B.  With ``negotiated=False`` neither master
    knows the schedule — A's admission control negotiates flow 4's rate as
    if S3 were always reachable, exactly the blind spot the
    ``bridge_split`` experiment measures; ``negotiated=True`` lets both
    masters skip planned polls while the bridge is away.
    """
    piconet_a = figure4_piconet_spec(delay_requirement=delay_requirement,
                                     name="A")
    b_flows = []
    for flow_id, direction in ((1, DOWNLINK), (2, UPLINK)):
        b_flows.append(_be_flow(flow_id, BRIDGE_SLAVE_B, direction,
                                be_rate_bps(4), ("DH1", "DH3"),
                                b_load_scale))
    piconet_b = PiconetSpec(
        name="B",
        slaves=("bridge",),
        flows=tuple(b_flows),
        poller=PollerSpec(kind="round_robin"),
        rng_namespace="piconet-b")
    return ScenarioSpec(
        piconets=(piconet_a, piconet_b),
        bridges=(BridgeSpec(
            piconet_a="A", slave_a=BRIDGE_SLAVE_A,
            piconet_b="B", slave_b=BRIDGE_SLAVE_B,
            share_a=bridge_share, period_slots=period_slots,
            switch_slots=switch_slots, negotiated=negotiated,
            name="bridge"),))
