"""Scenario packs exercising the per-link channel subsystem.

Four registered workloads grow the sweep registry past the ideal-radio
reproduction, all riding on :class:`~repro.baseband.channel.ChannelMap`
(independent, deterministically seeded channel models per
``(slave, direction)`` link) and the real FEC model in
:mod:`repro.baseband.fec`:

``link_quality_mix``
    Heterogeneous link quality: the Figure-4 piconet with a per-slave BER
    ramp (far slaves fade harder).  Measures how unequal links skew the
    fair best-effort division and which slaves' GS flows eat the
    retransmission budget.

``bursty_channel``
    Per-link Gilbert-Elliott fades at a fixed long-run BER, sweeping the
    mean bad-state dwell time — same average loss, increasingly bursty.
    Burstiness is what breaks delay bounds: errors clustering inside one
    packet's retransmission window hurt more than the same count spread
    out.

``dm_vs_dh``
    The DM-vs-DH trade under a BER sweep on an overloaded round-robin
    best-effort piconet: 2/3-FEC DM types sacrifice payload (DM3 carries
    121 vs DH3's 183 bytes) but survive bit errors the unprotected DH
    types cannot.  Below the BER crossover DH wins on capacity, above it
    DM wins on deliverability; the channel-adaptive segmentation policy
    should track the better of the two from observed loss alone.

``multi_sco``
    Two HV3 voice links (ROADMAP follow-on): their reservations leave a
    single 2-slot gap per six slots, so a DH3-capable ACL policy is
    blocked by the SCO-overlap guard (ACL starves) while a DH1-only
    policy degrades to one single-slot exchange per gap.

Three further packs couple piconets together through the inter-piconet
interference subsystem (:mod:`repro.baseband.interference`) and the
scatternet layer (:mod:`repro.piconet.scatternet`):

``two_piconet_interference``
    One co-located interfering piconet with a swept duty cycle: hop
    collisions (1/79 per active slot) drive a time-varying BER on every
    victim link through :class:`~repro.baseband.interference.
    InterferenceAwareChannel`.

``bridge_split``
    A real two-piconet co-simulation on a shared clock: slave S3 of the
    Section-4.1 piconet doubles as a scatternet bridge serving a second
    master, and its GS flow's bound survives only while the bridge's
    residency share leaves enough reachable polls.  ``--set
    negotiated=true`` switches both masters to a negotiated hold schedule:
    planned polls to the absent bridge are skipped (reported as
    ``bridge_skipped_polls``) instead of burned.

``crowded_room``
    N co-located saturated piconets (one simulated victim, N-1 interferer
    processes, symmetric by construction): per-piconet goodput decays with
    the collision probability ``1-(1-1/79)^(N-1)`` while the room's
    aggregate keeps growing — the classic unlicensed-band scaling curve.

``crowded_room_coupled``
    The honest crowded room: every one of the N piconets runs its own
    master loop on one shared clock, and its *actual* transmissions feed
    the interference field's occupancy index that drives everyone else's
    collision BER — no duty-cycle approximation, no symmetry assumption.
    Reports per-piconet goodput spread, the measured per-piconet activity
    fraction, and the observed collision fraction against the analytic
    ``1-(1-1/79)^(N-1)`` (they agree at saturation, which is exactly what
    validates the cheaper uncoupled pack).

Every pack resolves its sweep point through a declarative
:class:`~repro.scenario.ScenarioSpec` (see the ``*_spec`` factories), so
dotted ``--set`` overrides (``channel.ber=3e-4``,
``bridges.0.switch_slots=4``) apply to all of them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baseband.constants import SLOT_US
from repro.experiments.figure5 import rejected_row
from repro.experiments.registry import ExperimentSpec, register
from repro.experiments.scenario_packs import _gs_metrics, _be_metrics
from repro.scenario import (
    ChannelSpec,
    ScenarioSpec,
    bridge_split_spec,
    figure4_spec,
    forbid_overrides,
    coupled_room_spec,
    gs_bound_met,
    interfered_be_spec,
    multi_sco_spec,
    resolve_point_spec,
)

#: per-slave BER multiplier of the ``link_quality_mix`` ramp (S4 = 1.0)
LINK_QUALITY_RAMP = {slave: slave / 4.0 for slave in range(1, 8)}

#: policy names of the ``dm_vs_dh`` pack -> (allowed types, adaptive flag)
DM_VS_DH_POLICIES = {
    "DH": (("DH1", "DH3"), False),
    "DM": (("DM1", "DM3"), False),
    "adaptive": (("DH1", "DH3"), True),
}


def link_quality_mix_spec(params: Dict) -> ScenarioSpec:
    """The Figure-4 piconet under a per-slave BER ramp."""
    forbid_overrides(params, {
        "channel.ber": "base_bit_error_rate axis"})
    return figure4_spec(
        delay_requirement=params.get("delay_requirement", 0.040),
        channel=ChannelSpec(
            model="iid", ber=params["base_bit_error_rate"],
            slave_ber_scale=tuple(sorted(LINK_QUALITY_RAMP.items()))))


def run_link_quality_mix_point(params: Dict, seed: int) -> List[Dict]:
    """One heterogeneous-quality point: a per-slave BER ramp."""
    base_ber = params["base_bit_error_rate"]
    requirement = params.get("delay_requirement", 0.040)
    duration_seconds = params.get("duration_seconds", 5.0)
    scenario = resolve_point_spec(
        params, link_quality_mix_spec).compile(seed).primary
    if not scenario.all_gs_admitted:
        return [rejected_row(scenario, requirement)]
    scenario.run(duration_seconds)
    row: Dict = {"base_bit_error_rate": base_ber, "admitted": True}
    for slave, value in scenario.slave_throughputs_kbps().items():
        row[f"S{slave}"] = value
    row["retx"] = {
        f"S{slave}": scenario.arq_counters(flows)["retransmissions"]
        for slave, flows in sorted(scenario.slave_flows.items())}
    row["gs"] = _gs_metrics(scenario, duration_seconds)
    row["be"] = _be_metrics(scenario, duration_seconds)
    return [row]


def bursty_channel_spec(params: Dict) -> ScenarioSpec:
    """Per-link Gilbert-Elliott fades at a fixed long-run mean BER."""
    forbid_overrides(params, {
        "channel.p_bg": "bad_dwell_slots axis",
        "channel.ber": "bit_error_rate parameter",
        "channel.stationary_bad": "stationary_bad parameter"})
    dwell_slots = params["bad_dwell_slots"]
    stationary_bad = params.get("stationary_bad", 0.1)
    if dwell_slots < 1:
        raise ValueError(
            f"bad_dwell_slots must be >= 1, got {dwell_slots}")
    if not 0 < stationary_bad < 1:
        raise ValueError(
            f"stationary_bad must lie strictly within (0, 1), got "
            f"{stationary_bad}")
    return figure4_spec(
        delay_requirement=params.get("delay_requirement", 0.040),
        channel=ChannelSpec(model="gilbert",
                            ber=params.get("bit_error_rate", 3e-4),
                            p_bg=1.0 / dwell_slots,
                            stationary_bad=stationary_bad))


def run_bursty_channel_point(params: Dict, seed: int) -> List[Dict]:
    """One burstiness point: per-link Gilbert-Elliott at fixed mean BER."""
    requirement = params.get("delay_requirement", 0.040)
    duration_seconds = params.get("duration_seconds", 5.0)
    scenario = resolve_point_spec(
        params, bursty_channel_spec).compile(seed).primary
    if not scenario.all_gs_admitted:
        return [rejected_row(scenario, requirement)]
    scenario.run(duration_seconds)
    return [{
        "bad_dwell_slots": params["bad_dwell_slots"],
        "admitted": True,
        "gs": _gs_metrics(scenario, duration_seconds),
        "be": _be_metrics(scenario, duration_seconds),
        "gs_retransmissions": scenario.arq_counters(
            scenario.gs_flow_ids)["retransmissions"],
        "idle_slots": scenario.piconet.slots_idle,
    }]


def dm_vs_dh_spec(params: Dict) -> ScenarioSpec:
    """One (BER, policy) point's overloaded round-robin piconet."""
    forbid_overrides(params, {
        "channel.ber": "bit_error_rate axis",
        "allowed_types": "policy axis",
        "flows.*.allowed_types": "policy axis",
        "adaptive_segmentation": "policy axis"})
    policy = params["policy"]
    try:
        acl_types, adaptive = DM_VS_DH_POLICIES[policy]
    except KeyError:
        known = ", ".join(sorted(DM_VS_DH_POLICIES))
        raise ValueError(
            f"unknown policy {policy!r}; known: {known}") from None
    ber = params["bit_error_rate"]
    return multi_sco_spec(
        acl_types=acl_types, sco_slaves=(),
        acl_slaves=(1, 2, 3, 4, 5, 6, 7),
        acl_load_scale=params.get("acl_load_scale", 2.0),
        channel=ChannelSpec(model="iid", ber=ber) if ber > 0 else None,
        adaptive_segmentation=adaptive)


def run_dm_vs_dh_point(params: Dict, seed: int) -> List[Dict]:
    """One (BER, policy) point of the DM-vs-DH goodput comparison."""
    duration_seconds = params.get("duration_seconds", 5.0)
    scenario = resolve_point_spec(params, dm_vs_dh_spec).compile(seed).primary
    scenario.run(duration_seconds)
    return [{
        "bit_error_rate": params["bit_error_rate"],
        "policy": params["policy"],
        "acl_kbps": scenario.acl_throughput_kbps(),
        **scenario.arq_counters(scenario.be_flow_ids),
    }]


def multi_sco_point_spec(params: Dict) -> ScenarioSpec:
    """Two HV3 links next to ACL flows of the point's allowed types."""
    forbid_overrides(params, {
        "allowed_types": "acl_types axis",
        "flows.*.allowed_types": "acl_types axis"})
    return multi_sco_spec(
        acl_types=tuple(params["acl_types"].split("+")),
        sco_slaves=(6, 7), acl_slaves=(1, 2, 3),
        acl_load_scale=params.get("acl_load_scale", 1.0))


def run_multi_sco_point(params: Dict, seed: int) -> List[Dict]:
    """One multi-SCO point: two HV3 links next to ACL of the given types."""
    duration_seconds = params.get("duration_seconds", 5.0)
    scenario = resolve_point_spec(
        params, multi_sco_point_spec).compile(seed).primary
    scenario.run(duration_seconds)
    piconet = scenario.piconet
    acl_kbps = scenario.acl_throughput_kbps()
    voice = {
        f"S{stats['slave']}_kbps": stats["throughput_kbps"]
        for stats in scenario.voice_stats().values()}
    voice["residual_errors"] = sum(
        stats["residual_errors"] for stats in scenario.voice_stats().values())
    return [{
        "acl_types": params["acl_types"],
        "acl_kbps": acl_kbps,
        "acl_starved": acl_kbps == 0.0,
        "voice": voice,
        "slots": piconet.slot_accounting(),
    }]


def two_piconet_interference_spec(params: Dict) -> ScenarioSpec:
    """A saturated BE piconet next to one interferer of the swept duty."""
    forbid_overrides(params, {
        "interference.interferer_duties": "interferer_duty axis"})
    duty = params["interferer_duty"]
    return interfered_be_spec(
        interferer_duties=(duty,) if duty > 0 else (),
        acl_load_scale=params.get("acl_load_scale", 1.5),
        base_bit_error_rate=params.get("base_bit_error_rate", 0.0))


def run_two_piconet_interference_point(params: Dict, seed: int) -> List[Dict]:
    """One duty-cycle point: a single co-located interfering piconet."""
    duration_seconds = params.get("duration_seconds", 5.0)
    compiled = resolve_point_spec(
        params, two_piconet_interference_spec).compile(seed)
    scenario = compiled.primary
    compiled.run(duration_seconds)
    return [{
        "interferer_duty": params["interferer_duty"],
        "acl_kbps": scenario.acl_throughput_kbps(),
        "collision_probability": compiled.collision_probability(),
        "interference_failures": compiled.interference_failures(),
        **scenario.arq_counters(scenario.be_flow_ids),
    }]


def bridge_split_point_spec(params: Dict) -> ScenarioSpec:
    """The two-piconet bridge scenario of one residency-share point."""
    forbid_overrides(params, {
        "bridges.*.share_a": "bridge_share axis"})
    return bridge_split_spec(
        bridge_share=params["bridge_share"],
        period_slots=params.get("period_slots", 96),
        switch_slots=params.get("switch_slots", 2),
        delay_requirement=params.get("delay_requirement", 0.040),
        b_load_scale=params.get("b_load_scale", 1.0),
        negotiated=params.get("negotiated", False))


def run_bridge_split_point(params: Dict, seed: int) -> List[Dict]:
    """One residency-share point of the scatternet bridge scenario."""
    share = params["bridge_share"]
    requirement = params.get("delay_requirement", 0.040)
    duration_seconds = params.get("duration_seconds", 5.0)
    compiled = resolve_point_spec(
        params, bridge_split_point_spec).compile(seed)
    scenario_a = compiled.piconets["A"]
    scenario_b = compiled.piconets["B"]
    if not scenario_a.all_gs_admitted:
        return [{"bridge_share": share,
                 **rejected_row(scenario_a, requirement)}]
    compiled.run(duration_seconds)
    bridge_gs = scenario_a.gs_delay_summary()[4]
    piconet_a, piconet_b = scenario_a.piconet, scenario_b.piconet
    row: Dict = {
        "bridge_share": share,
        "admitted": True,
        "gs": _gs_metrics(scenario_a, duration_seconds),
        "be": _be_metrics(scenario_a, duration_seconds),
        "bridge": {
            "gs_max_delay_s": bridge_gs["max_delay_s"],
            "gs_bound_violated": not gs_bound_met(bridge_gs),
            "absent_polls_a": piconet_a.bridge_absent_polls,
            "absent_polls_b": piconet_b.bridge_absent_polls,
            "b_kbps": scenario_b.acl_throughput_kbps(),
        },
    }
    if compiled.bridges[0].negotiated:
        # only negotiated runs report the skip counters, so the default
        # (unnegotiated) rows — and their golden fixtures — are unchanged
        row["bridge"]["skipped_polls_a"] = piconet_a.bridge_skipped_polls
        row["bridge"]["skipped_polls_b"] = piconet_b.bridge_skipped_polls
    return [row]


def crowded_room_spec(params: Dict) -> ScenarioSpec:
    """One victim piconet next to ``piconets - 1`` interferer processes."""
    forbid_overrides(params, {
        "interference.interferer_duties": "piconets axis"})
    piconets = params["piconets"]
    if piconets < 1:
        raise ValueError(f"piconets must be >= 1, got {piconets}")
    return interfered_be_spec(
        interferer_duties=(params.get("interferer_duty", 1.0),)
        * (piconets - 1),
        acl_load_scale=params.get("acl_load_scale", 2.0))


def run_crowded_room_point(params: Dict, seed: int) -> List[Dict]:
    """One room-occupancy point: N saturated co-located piconets.

    The room is symmetric (every piconet sees N-1 statistically identical
    interferers), so one piconet is simulated in full and the aggregate is
    N times its goodput.
    """
    piconets = params["piconets"]
    duration_seconds = params.get("duration_seconds", 5.0)
    compiled = resolve_point_spec(params, crowded_room_spec).compile(seed)
    scenario = compiled.primary
    compiled.run(duration_seconds)
    per_piconet = scenario.acl_throughput_kbps()
    return [{
        "piconets": piconets,
        "per_piconet_kbps": per_piconet,
        "aggregate_kbps": per_piconet * piconets,
        "collision_probability": compiled.collision_probability(),
        "interference_failures": compiled.interference_failures(),
        "retransmissions": scenario.arq_counters(
            scenario.be_flow_ids)["retransmissions"],
    }]


def crowded_room_coupled_spec(params: Dict) -> ScenarioSpec:
    """N fully simulated piconets coupled through one interference field."""
    forbid_overrides(params, {"piconets": "piconets axis"})
    return coupled_room_spec(
        piconets=params["piconets"],
        acl_load_scale=params.get("acl_load_scale", 1.5),
        base_bit_error_rate=params.get("base_bit_error_rate", 0.0))


def run_crowded_room_coupled_point(params: Dict, seed: int) -> List[Dict]:
    """One coupled room point: every piconet simulated, all coupled.

    Unlike ``crowded_room`` nothing is assumed symmetric: the aggregate is
    the *sum* of the measured per-piconet goodputs, and the analytic
    collision probability is validated against the fraction of slots the
    field actually saw collided for the first piconet.
    """
    piconets = params["piconets"]
    duration_seconds = params.get("duration_seconds", 5.0)
    compiled = resolve_point_spec(
        params, crowded_room_coupled_spec).compile(seed)
    compiled.run(duration_seconds)
    field = compiled.interference_field
    horizon = compiled.env.now // SLOT_US
    kbps = {name: scenario.acl_throughput_kbps()
            for name, scenario in compiled.piconets.items()}
    throughputs = list(kbps.values())
    return [{
        "piconets": piconets,
        "aggregate_kbps": sum(throughputs),
        "per_piconet_kbps_mean": sum(throughputs) / len(throughputs),
        "per_piconet_kbps_min": min(throughputs),
        "per_piconet_kbps_max": max(throughputs),
        "activity_fraction": field.activity_fraction("p1", horizon),
        "observed_collision_fraction":
            field.observed_collision_fraction("p1", horizon),
        "collision_probability": compiled.collision_probability(),
        "interference_failures": sum(
            compiled.interference_failures_by_piconet().values()),
    }]


register(ExperimentSpec(
    name="link_quality_mix",
    description="Figure-4 scenario with a heterogeneous per-slave BER ramp "
                "over per-link channels",
    run_point=run_link_quality_mix_point,
    grid={"base_bit_error_rate": [0.0, 1e-4, 3e-4]},
    defaults={"delay_requirement": 0.040, "duration_seconds": 5.0},
    scenario=link_quality_mix_spec,
))

register(ExperimentSpec(
    name="bursty_channel",
    description="Per-link Gilbert-Elliott fades at fixed mean BER vs. "
                "bad-state dwell time",
    run_point=run_bursty_channel_point,
    grid={"bad_dwell_slots": [5, 25, 125]},
    defaults={"bit_error_rate": 3e-4, "stationary_bad": 0.1,
              "delay_requirement": 0.040, "duration_seconds": 5.0},
    scenario=bursty_channel_spec,
))

register(ExperimentSpec(
    name="dm_vs_dh",
    description="DM (2/3 FEC) vs DH vs channel-adaptive segmentation "
                "goodput under a BER sweep",
    run_point=run_dm_vs_dh_point,
    grid={"bit_error_rate": [3e-5, 1e-4, 3e-4, 1e-3],
          "policy": ["DH", "DM", "adaptive"]},
    defaults={"duration_seconds": 5.0, "acl_load_scale": 2.0},
    scenario=dm_vs_dh_spec,
))

register(ExperimentSpec(
    name="multi_sco",
    description="Two HV3 voice links: DH1-only ACL degrades gracefully "
                "where DH3-capable ACL starves",
    run_point=run_multi_sco_point,
    grid={"acl_types": ["DH1", "DH1+DH3"]},
    defaults={"duration_seconds": 5.0, "acl_load_scale": 1.0},
    scenario=multi_sco_point_spec,
))

register(ExperimentSpec(
    name="two_piconet_interference",
    description="BE goodput under a co-located piconet's hop collisions "
                "vs. its duty cycle",
    run_point=run_two_piconet_interference_point,
    grid={"interferer_duty": [0.0, 0.25, 0.5, 1.0]},
    defaults={"duration_seconds": 5.0, "acl_load_scale": 1.5,
              "base_bit_error_rate": 0.0},
    scenario=two_piconet_interference_spec,
))

register(ExperimentSpec(
    name="bridge_split",
    description="Scatternet bridge (S3) time-sharing two masters: GS "
                "compliance vs. residency share",
    run_point=run_bridge_split_point,
    grid={"bridge_share": [0.25, 0.5, 0.75, 1.0]},
    defaults={"period_slots": 96, "switch_slots": 2,
              "delay_requirement": 0.040, "duration_seconds": 5.0,
              "b_load_scale": 1.0},
    scenario=bridge_split_point_spec,
))

register(ExperimentSpec(
    name="crowded_room",
    description="N saturated co-located piconets: aggregate goodput "
                "scaling under 1/79 hop collisions",
    run_point=run_crowded_room_point,
    grid={"piconets": [1, 2, 4, 8]},
    defaults={"duration_seconds": 5.0, "acl_load_scale": 2.0,
              "interferer_duty": 1.0},
    scenario=crowded_room_spec,
))

register(ExperimentSpec(
    name="crowded_room_coupled",
    description="N fully simulated piconets coupled through the "
                "interference field's occupancy index (no duty-cycle "
                "approximation)",
    run_point=run_crowded_room_coupled_point,
    grid={"piconets": [2, 4, 8]},
    defaults={"duration_seconds": 5.0, "acl_load_scale": 1.5,
              "base_bit_error_rate": 0.0},
    scenario=crowded_room_coupled_spec,
))
