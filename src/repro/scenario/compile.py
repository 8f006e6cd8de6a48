"""Compile a :class:`~repro.scenario.specs.ScenarioSpec` into runtime objects.

``compile_scenario(spec, seed)`` is the single construction path
behind every workload: it builds the piconets (slaves, flows, SCO
reservations), the per-link channel maps, the Guaranteed Service manager
and poller, the traffic sources, and — for multi-piconet scenarios — the
shared-clock scatternet with its bridges, or the interference field
coupling co-located piconets into the victim's links.

Reproducibility contract: for a given ``(spec, seed)`` the compiled
scenario is *byte-identical* to what the historical workload builders
produced — the same RNG stream names (``gs-<id>``/``be-<id>``/
``sco-<id>`` per source, ``channel-map``/``interference`` substream
families), the same construction order, and the same source start order —
so migrating a driver from a builder to a spec cannot perturb its golden
rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.baseband.channel import (
    Channel,
    ChannelMap,
    GilbertElliottChannel,
    LossyChannel,
)
from repro.baseband.constants import SLOT_SECONDS
from repro.baseband.interference import (
    DEFAULT_COLLISION_BER,
    HOP_CHANNELS,
    MAX_COLLISION_BER,
    InterferenceField,
    interference_channel_map,
)
from repro.baseband.packets import max_transaction_slots
from repro.core.gs_manager import GSFlowSetup, GuaranteedServiceManager
from repro.core.link_budget import LinkBudget, bridge_residency
from repro.core.pfp import PredictiveFairPoller
from repro.core.token_bucket import cbr_tspec
from repro.piconet.bridge import ROLE_A, ROLE_B, BridgeNode
from repro.piconet.flows import FlowSpec as RuntimeFlowSpec
from repro.piconet.piconet import Piconet, PiconetConfig
from repro.piconet.scatternet import Scatternet
from repro.scenario.specs import (
    ChannelSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
)
from repro.scenario.timeline import install_timeline
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.traffic.sources import CBRSource, TrafficSource


def baseline_poller_factories() -> Dict[str, Callable]:
    """The surveyed baseline pollers, by :class:`PollerSpec` kind."""
    from repro.schedulers import (
        DemandBasedPoller,
        EfficientDoubleCyclePoller,
        ExhaustivePoller,
        FairExhaustivePoller,
        HolPriorityPoller,
        LimitedRoundRobinPoller,
        PureRoundRobinPoller,
    )
    return {
        "pure-round-robin": PureRoundRobinPoller,
        "limited-round-robin": lambda: LimitedRoundRobinPoller(limit=2),
        "exhaustive": ExhaustivePoller,
        "fep": FairExhaustivePoller,
        "edc": EfficientDoubleCyclePoller,
        "hol-priority": HolPriorityPoller,
        "demand-based": DemandBasedPoller,
    }


# -------------------------------------------------------------- channels

def _link_channel_maker(model: str, ber: float,
                        p_bg: float, stationary_bad: float
                        ) -> Callable[[random.Random], Channel]:
    """One link's channel constructor for a non-ideal model at ``ber``."""
    if model == "iid":
        return lambda rng: LossyChannel(bit_error_rate=ber, rng=rng)
    p_gb = p_bg * stationary_bad / (1.0 - stationary_bad)
    ber_bad = min(1.0, ber / stationary_bad)
    return lambda rng: GilbertElliottChannel(
        p_gb=p_gb, p_bg=p_bg, ber_good=0.0, ber_bad=ber_bad, rng=rng)


def compile_channel(spec: ChannelSpec, seed: int) -> Optional[ChannelMap]:
    """Per-link channels of one piconet (``None`` for the ideal radio).

    Links are seeded from ``RandomStreams(seed).child(spec.stream)``, so
    the error processes are independent per link yet reproducible across
    execution backends and unperturbed by the traffic sources' randomness.
    """
    if spec.model == "ideal" or spec.ber <= 0:
        return None
    streams = RandomStreams(seed).child(spec.stream)
    if spec.slave_ber_scale:
        makers = {
            slave: _link_channel_maker(spec.model, spec.ber * scale,
                                       spec.p_bg, spec.stationary_bad)
            for slave, scale in spec.slave_ber_scale}
        return ChannelMap.per_slave(makers, streams=streams)
    return ChannelMap.uniform(
        _link_channel_maker(spec.model, spec.ber, spec.p_bg,
                            spec.stationary_bad),
        streams=streams)


def _base_channel_factory(base: ChannelSpec):
    """The per-link base-channel factory under an interference wrapper
    (``None`` for an ideal base radio)."""
    if base.model == "ideal" or base.ber <= 0:
        return None
    maker = _link_channel_maker(base.model, base.ber, base.p_bg,
                                base.stationary_bad)
    return lambda link, rng: maker(rng)


def _interference_field(spec: ScenarioSpec, seed: int):
    """The scenario's interference field and its interferer names.

    The simulated piconets register first, in spec order, so the
    ``piconet:<name>`` hop-stream derivation is the same in both modes:
    as *coupled* members in a crowded room (their activity comes from the
    master loop's air recorder), otherwise the single victim with duty
    cycle 1.0.  Then every ``interferer_duties`` entry registers a
    stochastic background piconet ``interferer-<i>``.
    """
    interference = spec.interference
    field_kwargs = {} if interference.ber_per_collision is None else \
        {"ber_per_collision": interference.ber_per_collision}
    interference_field = InterferenceField(
        streams=RandomStreams(seed).child(interference.stream),
        **field_kwargs)
    register = interference_field.register_coupled if interference.coupled \
        else interference_field.register
    for piconet_spec in spec.piconets:
        register(piconet_spec.name, duty_cycle=1.0)
    interferers = []
    for index, duty in enumerate(interference.interferer_duties, start=1):
        name = f"interferer-{index}"
        interference_field.register(name, duty_cycle=duty)
        interferers.append(name)
    return interference_field, interferers


# ---------------------------------------------------------- link budgets

def _interference_ber(spec: ScenarioSpec, piconet: PiconetSpec) -> float:
    """The analytic hop-collision BER the interference field inflicts."""
    interference = spec.interference
    if interference is None:
        return 0.0
    if not interference.coupled and interference.victim != piconet.name:
        return 0.0
    miss = 1.0
    for duty in interference.interferer_duties:
        miss *= 1.0 - duty / HOP_CHANNELS
    if interference.coupled:
        # every other simulated piconet is budgeted as saturated (duty
        # 1.0) — the conservative bound admission control should assume
        for other in spec.piconets:
            if other.name != piconet.name:
                miss *= 1.0 - 1.0 / HOP_CHANNELS
    per_collision = interference.ber_per_collision \
        if interference.ber_per_collision is not None \
        else DEFAULT_COLLISION_BER
    return min((1.0 - miss) * per_collision, MAX_COLLISION_BER)


def _link_residency(spec: ScenarioSpec, piconet: PiconetSpec,
                    slave: int):
    """``(residency, absence_seconds)`` of one slave, from the bridges."""
    for bridge in spec.bridges:
        if bridge.piconet_a == piconet.name and bridge.slave_a == slave:
            return bridge_residency(bridge.schedule(), ROLE_A)
        if bridge.piconet_b == piconet.name and bridge.slave_b == slave:
            return bridge_residency(bridge.schedule(), ROLE_B)
    return 1.0, 0.0


def link_budgets_for(spec: ScenarioSpec, piconet: PiconetSpec
                     ) -> Dict[tuple, LinkBudget]:
    """Per-link effective-capacity budgets of one piconet's GS links.

    For every admission-managed ``(slave, direction)`` link the budget
    composes the piconet's static channel BER (per-slave scaled; a
    Gilbert-Elliott link contributes its long-run mean), the interference
    field's analytic collision BER, the bridge's residency share and the
    :class:`~repro.scenario.specs.AdmissionSpec` margins — the knowledge a
    ``"budget-aware"`` piconet hands its
    :class:`~repro.core.gs_manager.GuaranteedServiceManager`.
    """
    admission = piconet.admission
    channel = piconet.channel
    base_ber = channel.ber if channel.model != "ideal" else 0.0
    scale = dict(channel.slave_ber_scale)
    interference_ber = _interference_ber(spec, piconet)
    budgets: Dict[tuple, LinkBudget] = {}
    for flow in piconet.flows:
        if not flow.gs_managed:
            continue
        key = (flow.slave, flow.direction)
        if key in budgets:
            continue
        types = flow.allowed_types if flow.allowed_types is not None \
            else piconet.allowed_types
        if piconet.adaptive_segmentation:
            types = tuple(types) + tuple(piconet.robust_types)
        residency, absence = _link_residency(spec, piconet, flow.slave)
        budgets[key] = LinkBudget.compose(
            ber=base_ber * scale.get(flow.slave, 1.0),
            packet_types=types,
            interference_ber=interference_ber,
            estimated_loss=admission.estimator_seed_loss,
            residency=residency,
            absence_seconds=absence,
            loss_margin=admission.loss_margin,
            residency_margin=admission.residency_margin)
    return budgets


def describe_link_budgets(spec: ScenarioSpec) -> List[Dict[str, object]]:
    """Budget table rows for every GS link of every piconet of ``spec``.

    Computed for oblivious piconets too (showing what budget-aware
    admission *would* budget) — the ``python -m repro.experiments
    describe`` table.
    """
    rows: List[Dict[str, object]] = []
    for piconet in spec.piconets:
        budgets = link_budgets_for(spec, piconet)
        for (slave, direction), budget in sorted(budgets.items()):
            rows.append({
                "piconet": piconet.name,
                "slave": slave,
                "direction": direction,
                "mode": piconet.admission.mode,
                "loss_probability": budget.loss_probability,
                "retransmission_factor": budget.retransmission_factor(),
                "residency": budget.residency,
                "absence_ms": budget.absence_seconds * 1000.0,
            })
    return rows


# -------------------------------------------------------------- piconets

#: slack of a delay-bound verdict, absorbing float round-off between the
#: microsecond clock and the requested bound in seconds
BOUND_TOLERANCE_S = 1e-9


def gs_bound_met(summary: dict) -> bool:
    """Whether a GS flow kept its own delay bound, judged on its
    :meth:`CompiledPiconet.gs_delay_summary` entry.

    The bound is the one the flow requested (a flow admitted by rate is
    held to its analytical bound).  A flow that delivered no packet has a
    NaN maximum delay and counts as *not* met.
    """
    bound = summary["requested_bound_s"]
    if bound is None:
        bound = summary["analytical_bound_s"]
    return summary["max_delay_s"] <= bound + BOUND_TOLERANCE_S


@dataclass
class CompiledPiconet:
    """One piconet's runtime objects plus the result helpers drivers use."""

    spec: PiconetSpec
    piconet: Piconet
    poller: Optional[object]
    manager: Optional[GuaranteedServiceManager]
    sources: List[TrafficSource]
    gs_setups: Dict[int, GSFlowSetup]
    gs_flow_ids: List[int]
    be_flow_ids: List[int]
    sco_flow_ids: List[int]
    #: slave -> flow ids, in flow declaration order
    slave_flows: Dict[int, List[int]] = field(default_factory=dict)
    #: GS setups withdrawn by a timeline ``park`` event, re-submitted to
    #: admission at ``unpark`` (see :mod:`repro.scenario.timeline`)
    parked_gs_setups: Dict[int, GSFlowSetup] = field(default_factory=dict)

    @property
    def all_gs_admitted(self) -> bool:
        return all(setup.accepted for setup in self.gs_setups.values())

    def start_sources(self) -> None:
        for source in self.sources:
            source.start()

    def run(self, duration_seconds: float) -> None:
        """Start this piconet's sources and run it on its own clock."""
        self.start_sources()
        self.piconet.run(duration_seconds)

    # -- result helpers (mirroring the historical scenario classes) ---------
    def slave_throughputs_kbps(self) -> Dict[int, float]:
        """Per-slave delivered throughput in kbit/s (the Figure 5 y-axis)."""
        return {slave: self.piconet.slave_throughput_bps(slave) / 1000.0
                for slave in sorted(self.slave_flows)}

    def gs_delay_summary(self) -> Dict[int, dict]:
        """Per GS flow: delay statistics and the analytical bound."""
        summary = {}
        for flow_id in self.gs_flow_ids:
            state = self.piconet.flow_state(flow_id)
            setup = self.gs_setups[flow_id]
            bound = (self.manager.delay_bound_for(flow_id)
                     if setup.accepted else float("nan"))
            summary[flow_id] = {
                "requested_bound_s": setup.requested_delay_bound,
                "analytical_bound_s": bound,
                "max_delay_s": state.delays.maximum,
                "mean_delay_s": state.delays.mean,
                "p99_delay_s": state.delays.percentile(99),
                "packets": state.delivered_packets,
            }
        return summary

    def arq_counters(self, flow_ids: Iterable[int]) -> Dict[str, int]:
        """Retransmissions, unreceived segments and CRC failures summed
        over ``flow_ids``."""
        states = [self.piconet.flow_state(fid) for fid in flow_ids]
        return {name: sum(getattr(state, name) for state in states)
                for name in ("retransmissions", "segments_not_received",
                             "crc_failures")}

    def voice_stats(self) -> Dict[int, dict]:
        """Per SCO flow: delivered rate, worst delay and residual errors."""
        stats = {}
        for flow_id in self.sco_flow_ids:
            state = self.piconet.flow_state(flow_id)
            elapsed = self.piconet.elapsed_seconds
            stats[flow_id] = {
                "slave": state.spec.slave,
                "throughput_kbps": (state.delivered_bytes * 8 / elapsed
                                    / 1000.0 if elapsed > 0 else 0.0),
                "max_delay_ms": state.delays.maximum * 1000.0
                if state.delays.count else float("nan"),
                "residual_errors": state.sco_residual_errors,
            }
        return stats

    def acl_throughput_kbps(self) -> float:
        """Aggregate delivered best-effort ACL throughput in kbit/s."""
        elapsed = self.piconet.elapsed_seconds
        if elapsed <= 0:
            return 0.0
        delivered = sum(self.piconet.flow_state(fid).delivered_bytes
                        for fid in self.be_flow_ids)
        return delivered * 8 / elapsed / 1000.0


def _compile_poller(spec: PollerSpec, piconet: Piconet,
                    manager: Optional[GuaranteedServiceManager]):
    """Attach the spec'd poller; returns the attached instance (or None).

    A piconet with admission-controlled flows always constructs and
    attaches the PFP its manager drives; a baseline kind then replaces it
    (keeping the admission decisions) — the ``baseline_comparison``
    methodology, preserved byte-for-byte.
    """
    if spec.kind == "none":
        if manager is not None:
            raise ValueError(
                "poller kind 'none' cannot serve admission-controlled "
                "flows (delay_bound/rate set): use 'pfp', or drop the "
                "bounds for an unscheduled piconet")
        return None
    poller = None
    if manager is not None:
        poller = PredictiveFairPoller(manager)
        piconet.attach_poller(poller)
    if spec.kind == "pfp":
        if manager is None:
            raise ValueError(
                "the pfp poller needs Guaranteed Service flows: give at "
                "least one flow a delay_bound or rate")
        return poller
    if spec.kind == "round_robin":
        from repro.schedulers.round_robin import PureRoundRobinPoller
        poller = PureRoundRobinPoller(only_slaves=spec.only_slaves)
    else:
        poller = baseline_poller_factories()[spec.kind]()
    piconet.attach_poller(poller)
    return poller


def _compile_piconet(spec: PiconetSpec, seed: int,
                     env: Optional[Environment],
                     channel,
                     link_budgets: Optional[Dict[tuple, LinkBudget]] = None,
                     observe_links: bool = False) -> CompiledPiconet:
    streams = RandomStreams(seed)
    if spec.rng_namespace:
        streams = streams.child(spec.rng_namespace)
    config = PiconetConfig(allowed_types=spec.allowed_types,
                           name=spec.name,
                           align_even_slots=spec.align_even_slots,
                           adaptive_segmentation=spec.adaptive_segmentation,
                           robust_types=spec.robust_types,
                           fast_path=spec.fast_path)
    piconet = Piconet(env=env, channel=channel, config=config)
    for name in spec.slaves:
        piconet.add_slave(name)

    runtime_specs: Dict[int, RuntimeFlowSpec] = {}
    slave_flows: Dict[int, List[int]] = {}
    for flow in spec.flows:
        runtime = RuntimeFlowSpec(
            flow.flow_id, slave=flow.slave, direction=flow.direction,
            traffic_class=flow.traffic_class,
            allowed_types=(flow.allowed_types if flow.allowed_types
                           is not None else spec.allowed_types))
        piconet.add_flow(runtime)
        runtime_specs[flow.flow_id] = runtime
        slave_flows.setdefault(flow.slave, []).append(flow.flow_id)
    for sco in spec.sco_links:
        piconet.add_sco_link(sco.slave, packet_type=sco.packet_type,
                             dl_flow_id=sco.dl_flow_id,
                             ul_flow_id=sco.ul_flow_id)

    # -- Guaranteed Service admission ---------------------------------------
    manager = None
    gs_setups: Dict[int, GSFlowSetup] = {}
    managed = [flow for flow in spec.flows if flow.gs_managed]
    if managed:
        # the admission control must budget the worst transaction the links
        # can actually produce: with adaptive segmentation that includes
        # the robust (DM) types a flow may fall back to under loss
        admission_types = spec.allowed_types + spec.robust_types \
            if spec.adaptive_segmentation else spec.allowed_types
        improvements = spec.improvements
        manager = GuaranteedServiceManager(
            max_transaction_seconds=(max_transaction_slots(admission_types)
                                     * SLOT_SECONDS),
            piggyback_aware=improvements.piggyback_aware,
            variable_interval=improvements.variable_interval,
            postpone_by_packet_size=improvements.postpone_by_packet_size,
            postpone_after_unsuccessful=(
                improvements.postpone_after_unsuccessful),
            skip_when_no_downlink_data=(
                improvements.skip_when_no_downlink_data),
            link_budgets=link_budgets,
            estimator_alpha=spec.admission.estimator_alpha,
            estimator_initial_loss=spec.admission.estimator_seed_loss)
        if link_budgets or observe_links:
            # budget-aware feedback: every observed data transmission
            # updates the manager's per-link loss estimators, so measured
            # loss can be compared against the admitted budgets.  A
            # timeline with flow-renegotiate events needs the same feed
            # even under oblivious admission — flagged_flows() has nothing
            # to compare without it.
            piconet.add_link_observer(manager.observe_link)
        for flow in managed:
            tspec = cbr_tspec(flow.interval_s, *flow.size_bounds)
            if flow.delay_bound is not None:
                setup = manager.add_flow(runtime_specs[flow.flow_id], tspec,
                                         delay_bound=flow.delay_bound)
            else:
                setup = manager.add_flow(runtime_specs[flow.flow_id], tspec,
                                         rate=flow.rate)
            gs_setups[flow.flow_id] = setup

    poller = _compile_poller(spec.poller, piconet, manager)

    # -- traffic sources ----------------------------------------------------
    sources: List[TrafficSource] = []
    for flow in spec.flows:
        if flow.interval_s is None:
            continue
        rng = (streams.stream(flow.rng_stream)
               if flow.rng_stream is not None else None)
        offset = rng.uniform(0, flow.interval_s) if flow.stagger else 0.0
        sources.append(CBRSource(piconet, flow.flow_id, flow.interval_s,
                                 flow.size, rng=rng, start_offset=offset))

    sco_ids = set(spec.sco_flow_ids)
    return CompiledPiconet(
        spec=spec,
        piconet=piconet,
        poller=poller,
        manager=manager,
        sources=sources,
        gs_setups=gs_setups,
        gs_flow_ids=[flow.flow_id for flow in spec.flows
                     if flow.traffic_class == "GS"
                     and flow.flow_id not in sco_ids],
        be_flow_ids=[flow.flow_id for flow in spec.flows
                     if flow.traffic_class == "BE"],
        sco_flow_ids=list(spec.sco_flow_ids),
        slave_flows=slave_flows,
    )


# -------------------------------------------------------------- scenarios

@dataclass
class CompiledScenario:
    """The runtime objects of one compiled :class:`ScenarioSpec`."""

    spec: ScenarioSpec
    seed: int
    piconets: Dict[str, CompiledPiconet]
    env: Environment
    scatternet: Optional[Scatternet] = None
    interference_field: Optional[InterferenceField] = None
    #: names of the interfering piconets registered in the field
    interferers: List[str] = field(default_factory=list)
    bridges: List[BridgeNode] = field(default_factory=list)
    #: outcome records of fired timeline events, in firing order (see
    #: :mod:`repro.scenario.timeline`)
    timeline_log: List[dict] = field(default_factory=list)

    @property
    def primary(self) -> CompiledPiconet:
        """The first (for most scenarios: only) piconet."""
        return next(iter(self.piconets.values()))

    def piconet(self, name: str) -> CompiledPiconet:
        try:
            return self.piconets[name]
        except KeyError:
            known = ", ".join(self.piconets) or "<none>"
            raise KeyError(
                f"unknown piconet {name!r}; known: {known}") from None

    def run(self, duration_seconds: float) -> None:
        """Start every source, then co-advance the scenario's clock."""
        for compiled in self.piconets.values():
            compiled.start_sources()
        if self.scatternet is not None:
            self.scatternet.run(duration_seconds)
        else:
            self.primary.piconet.run(duration_seconds)

    # -- interference helpers ------------------------------------------------
    def interference_failures(self, piconet: Optional[str] = None) -> int:
        """Packets lost to collisions after surviving their base channel.

        For the primary piconet by default; pass a name for one piconet of
        a coupled scenario, or see :meth:`interference_failures_by_piconet`
        for all of them.
        """
        target = self.primary if piconet is None else self.piconet(piconet)
        return target.piconet.channels.total("interference_failures")

    def interference_failures_by_piconet(self) -> Dict[str, int]:
        """Per-piconet interference losses (coupled crowded-room metric)."""
        return {name: compiled.piconet.channels.total(
                    "interference_failures")
                for name, compiled in self.piconets.items()}

    def collision_probability(self, piconet: Optional[str] = None) -> float:
        """Analytic per-slot co-channel collision probability.

        Against the spec's victim by default; in a coupled scenario any
        piconet name can be asked about (they are all victims).
        """
        if self.interference_field is None or self.spec.interference is None:
            return 0.0
        victim = piconet if piconet is not None \
            else self.spec.interference.victim
        return self.interference_field.expected_collision_probability(victim)


def compile_scenario(spec: ScenarioSpec, seed: int) -> CompiledScenario:
    """Build the runtime objects of ``spec`` under ``seed``."""
    scatternet = None
    build_env = None
    if spec.bridges or len(spec.piconets) > 1:
        scatternet = Scatternet()
        build_env = scatternet.clock.env

    interference_field = None
    interferers: List[str] = []
    if spec.interference is not None:
        interference_field, interferers = _interference_field(spec, seed)
    # piconets whose timeline renegotiates flows need the link-loss feed
    # even when their admission is oblivious (no budgets)
    default_name = spec.piconets[0].name
    renegotiating = {event.piconet if event.piconet is not None
                     else default_name
                     for event in spec.timeline.events
                     if event.kind == "flow-renegotiate"}
    compiled: Dict[str, CompiledPiconet] = {}
    for piconet_spec in spec.piconets:
        if interference_field is not None:
            channel = interference_channel_map(
                interference_field, piconet_spec.name,
                base_factory=_base_channel_factory(piconet_spec.channel),
                streams=RandomStreams(seed).child(
                    spec.interference.map_stream))
        else:
            channel = compile_channel(piconet_spec.channel, seed)
        budgets = link_budgets_for(spec, piconet_spec) \
            if piconet_spec.admission.aware else None
        compiled[piconet_spec.name] = _compile_piconet(
            piconet_spec, seed, build_env, channel, link_budgets=budgets,
            observe_links=piconet_spec.name in renegotiating)
        if scatternet is not None:
            scatternet.adopt_piconet(piconet_spec.name,
                                     compiled[piconet_spec.name].piconet)
    if interference_field is not None and spec.interference.coupled:
        # feed every master loop's actual transmissions into the field
        if scatternet is not None:
            scatternet.attach_field(interference_field)
        else:
            for name, compiled_piconet in compiled.items():
                compiled_piconet.piconet.set_air_recorder(
                    interference_field.recorder(name))

    bridges: List[BridgeNode] = []
    for bridge_spec in spec.bridges:
        bridges.append(scatternet.add_bridge(
            bridge_spec.name, bridge_spec.schedule(),
            bridge_spec.piconet_a, bridge_spec.slave_a,
            bridge_spec.piconet_b, bridge_spec.slave_b,
            negotiated=bridge_spec.negotiated))

    environment = build_env if build_env is not None \
        else next(iter(compiled.values())).piconet.env
    scenario = CompiledScenario(
        spec=spec, seed=seed, piconets=compiled, env=environment,
        scatternet=scatternet, interference_field=interference_field,
        interferers=interferers, bridges=bridges)
    install_timeline(scenario)
    return scenario
