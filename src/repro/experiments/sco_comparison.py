"""Table 5: PFP-scheduled Guaranteed Service versus an SCO channel.

The paper's conclusions compare the two ways of carrying 64 kbit/s voice in
a piconet: a reserved SCO (HV3) link, and an ACL flow scheduled by the
PFP/variable-interval poller with a Guaranteed Service delay bound.  The
claim: PFP approaches the delay an SCO channel achieves while consuming far
fewer slots — slots that remain available for best-effort traffic or for
retransmissions (SCO packets cannot be retransmitted at all).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.registry import ExperimentSpec, register
from repro.piconet.flows import GS, UPLINK
from repro.scenario import (
    FlowSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
    ScoSpec,
    forbid_overrides,
    resolve_point_spec,
)

#: voice payload parameters shared by both configurations: 150-byte frames
#: every 18.75 ms give exactly 64 kbit/s and map onto whole HV3 packets
#: (5 x 30 bytes), so the SCO side is not penalised by partially filled
#: reserved slots.
VOICE_INTERVAL_S = 0.01875
VOICE_SIZE_RANGE = (150, 150)


def scenario_spec(params: Dict) -> ScenarioSpec:
    """One configuration's spec: a single voice slave, SCO or PFP-polled."""
    forbid_overrides(params, {
        "poller": "configuration axis",
        "sco_links": "configuration axis",
        "flows.*.delay_bound": "configuration axis"})
    configuration = params["configuration"]
    if configuration == "sco":
        voice = FlowSpec(1, slave=1, direction=UPLINK, traffic_class=GS,
                         allowed_types=("HV3",),
                         interval_s=VOICE_INTERVAL_S, size=VOICE_SIZE_RANGE)
        return ScenarioSpec(piconets=(PiconetSpec(
            slaves=("voice",),
            flows=(voice,),
            sco_links=(ScoSpec(slave=1, packet_type="HV3", ul_flow_id=1),),
            poller=PollerSpec(kind="none")),))
    if configuration == "pfp":
        voice = FlowSpec(1, slave=1, direction=UPLINK, traffic_class=GS,
                         interval_s=VOICE_INTERVAL_S, size=VOICE_SIZE_RANGE,
                         delay_bound=params.get("pfp_delay_requirement",
                                                0.025))
        return ScenarioSpec(piconets=(PiconetSpec(
            slaves=("voice",), flows=(voice,)),))
    raise ValueError(f"unknown configuration {configuration!r}")


def run_point(params: Dict, seed: int) -> List[Dict]:
    """One configuration (``"sco"`` or ``"pfp"``) of the voice comparison."""
    configuration = params["configuration"]
    duration_seconds = params.get("duration_seconds", 10.0)
    compiled = resolve_point_spec(params, scenario_spec).compile(seed)
    scenario = compiled.primary
    if configuration == "pfp" and not scenario.all_gs_admitted:
        setup = scenario.gs_setups[1]
        raise ValueError(f"voice flow rejected: {setup.reason}")
    scenario.run(duration_seconds)
    piconet = scenario.piconet
    state = piconet.flow_state(1)
    total_slots = int(round(duration_seconds * 1600))
    if configuration == "sco":
        return [{
            "configuration": "SCO (HV3)",
            "throughput_kbps":
                state.throughput_bps(duration_seconds) / 1000.0,
            "mean_delay_ms": state.delays.mean * 1000.0,
            "max_delay_ms": state.delays.maximum * 1000.0,
            "slots_consumed_per_s": piconet.slots_sco / duration_seconds,
            "slots_free_fraction": 1.0 - piconet.slots_sco / total_slots,
            "retransmissions": state.retransmissions,
            "analytical_bound_ms": float("nan"),
        }]
    delay_requirement = params.get("pfp_delay_requirement", 0.025)
    return [{
        "configuration": f"PFP GS (bound {delay_requirement * 1000:.0f} ms)",
        "throughput_kbps": state.throughput_bps(duration_seconds) / 1000.0,
        "mean_delay_ms": state.delays.mean * 1000.0,
        "max_delay_ms": state.delays.maximum * 1000.0,
        "slots_consumed_per_s": piconet.slots_gs / duration_seconds,
        "slots_free_fraction": 1.0 - piconet.slots_gs / total_slots,
        "retransmissions": state.retransmissions,
        "analytical_bound_ms": scenario.manager.delay_bound_for(1) * 1000.0,
    }]


register(ExperimentSpec(
    name="sco_comparison",
    description="64 kbit/s voice: SCO channel vs. PFP-scheduled GS (Table 5)",
    run_point=run_point,
    grid={"configuration": ["sco", "pfp"]},
    defaults={"duration_seconds": 10.0, "pfp_delay_requirement": 0.025},
    scenario=scenario_spec,
))
