"""Budget-aware admission experiments: effective capacity vs. lossy reality.

Two registered sweeps contrast the paper's channel-oblivious admission
control with the effective-capacity pipeline of
:mod:`repro.core.link_budget` on the *same* workloads:

``admission_vs_ber``
    The Section-4.1 GS flow set admitted against a progressively worse
    channel (iid BER axis, optional interference field).  The oblivious
    controller admits the same four flows at every point and lets the
    measured delays blow through the bound; the budget-aware controller
    inflates every transaction by its expected retransmissions, so the
    admitted-set size shrinks as the loss grows — and the flows that ARE
    admitted keep complying.

``bridge_residency_admission``
    The two-piconet bridge scenario of ``bridge_split`` with piconet A's
    admission control switched between oblivious and budget-aware.  The
    aware controller sees the bridge slave's residency share and its
    worst absence window, so GS flow 4 is rejected outright once
    ``1 - share_a`` periods exceed the delay bound — the analytical twin
    of the ``negotiated`` runtime mitigation.

Rows keep the scenario-pack conventions: nested ``gs`` metric dicts,
``admitted_flows`` / ``rejected_flows`` labels, and mode-conditional keys
(``flagged_flows`` appears only on budget-aware rows, mirroring the
``skipped_polls_a/b`` idiom of ``bridge_split``) so the oblivious rows —
and any fixture built from them — never change shape.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.experiments.registry import ExperimentSpec, register
from repro.scenario import (
    AdmissionSpec,
    ChannelSpec,
    InterferenceSpec,
    ScenarioSpec,
    bridge_split_spec,
    figure4_piconet_spec,
    forbid_overrides,
    gs_bound_met,
    resolve_point_spec,
)

#: AM address of the bridge slave inside piconet A (carries GS flow 4).
BRIDGE_FLOW_ID = 4


def _admission_row(scenario, mode: str, duration_seconds: float) -> Dict:
    """Admit, run, and summarize one piconet under either admission mode.

    Unlike the packs that bail out on any rejection, rejection IS the
    metric here: the piconet runs with whatever subset was admitted and
    the row records both the set size and the survivors' compliance.
    """
    admitted = sorted(fid for fid, setup in scenario.gs_setups.items()
                      if setup.accepted)
    rejected = sorted(fid for fid, setup in scenario.gs_setups.items()
                      if not setup.accepted)
    row: Dict = {
        "admission_mode": mode,
        "admitted_flows": len(admitted),
        "rejected_flows": rejected,
    }
    summary = scenario.gs_delay_summary()
    compliant = [fid for fid in admitted if gs_bound_met(summary[fid])]
    piconet = scenario.piconet
    throughput = sum(piconet.flow_state(fid).delivered_bytes
                     for fid in admitted) * 8 / duration_seconds
    row["gs"] = {
        "throughput_kbps": throughput / 1000.0,
        "max_delay_s": max((summary[fid]["max_delay_s"]
                            for fid in admitted), default=0.0),
        "compliant_flows": len(compliant),
        "delay_compliance": (len(compliant) / len(admitted)
                             if admitted else 1.0),
    }
    manager = scenario.manager
    if manager is not None and manager.budget_aware:
        row["flagged_flows"] = manager.flagged_flows()
    return row


def admission_vs_ber_spec(params: Dict) -> ScenarioSpec:
    """The Section-4.1 piconet of one (BER, duty, mode) sweep point."""
    forbid_overrides(params, {
        "channel.ber": "bit_error_rate axis",
        "admission.mode": "admission_mode axis",
        "interference.interferer_duties": "interferer_duty axis"})
    ber = params["bit_error_rate"]
    duty = params.get("interferer_duty", 0.0)
    piconet = figure4_piconet_spec(
        delay_requirement=params.get("delay_requirement", 0.040),
        channel=ChannelSpec(model="iid", ber=ber) if ber > 0 else None,
        name="victim")
    piconet = dataclasses.replace(
        piconet, admission=AdmissionSpec(mode=params["admission_mode"]))
    interference = None
    if duty > 0:
        interference = InterferenceSpec(
            victim="victim",
            interferer_duties=(duty,) * int(params.get("interferers", 2)))
    return ScenarioSpec(piconets=(piconet,), interference=interference)


def run_admission_vs_ber_point(params: Dict, seed: int) -> List[Dict]:
    """One point: the GS flow set admitted against a lossy channel."""
    duration_seconds = params.get("duration_seconds", 5.0)
    scenario = resolve_point_spec(
        params, admission_vs_ber_spec).compile(seed).primary
    scenario.run(duration_seconds)
    row = {
        "bit_error_rate": params["bit_error_rate"],
        "interferer_duty": params.get("interferer_duty", 0.0),
        **_admission_row(scenario, params["admission_mode"],
                         duration_seconds),
    }
    return [row]


def bridge_residency_admission_spec(params: Dict) -> ScenarioSpec:
    """The bridge scenario of one (share, mode) point, A's mode applied."""
    forbid_overrides(params, {
        "bridges.*.share_a": "bridge_share axis",
        "admission.mode": "admission_mode axis",
        "*.admission.mode": "admission_mode axis",
        "piconets.*.admission.mode": "admission_mode axis"})
    spec = bridge_split_spec(
        bridge_share=params["bridge_share"],
        period_slots=params.get("period_slots", 48),
        switch_slots=params.get("switch_slots", 2),
        delay_requirement=params.get("delay_requirement", 0.040),
        b_load_scale=params.get("b_load_scale", 1.0),
        negotiated=params.get("negotiated", False))
    piconet_a = dataclasses.replace(
        spec.piconets[0],
        admission=AdmissionSpec(mode=params["admission_mode"]))
    return dataclasses.replace(
        spec, piconets=(piconet_a,) + spec.piconets[1:])


def run_bridge_residency_admission_point(params: Dict,
                                         seed: int) -> List[Dict]:
    """One point: bridge residency as an admission-time input."""
    duration_seconds = params.get("duration_seconds", 5.0)
    compiled = resolve_point_spec(
        params, bridge_residency_admission_spec).compile(seed)
    scenario_a = compiled.piconets["A"]
    compiled.run(duration_seconds)
    row = {
        "bridge_share": params["bridge_share"],
        **_admission_row(scenario_a, params["admission_mode"],
                         duration_seconds),
    }
    row["bridge_flow_admitted"] = \
        scenario_a.gs_setups[BRIDGE_FLOW_ID].accepted
    row["b_kbps"] = compiled.piconets["B"].acl_throughput_kbps()
    return [row]


register(ExperimentSpec(
    name="admission_vs_ber",
    description="Admitted-set size and delay compliance vs. channel BER "
                "and interferer duty, oblivious vs. budget-aware admission",
    run_point=run_admission_vs_ber_point,
    grid={"bit_error_rate": [0.0, 1e-4, 3e-4, 1e-3],
          "admission_mode": ["oblivious", "budget-aware"],
          "interferer_duty": [0.0, 0.8]},
    defaults={"interferers": 2, "duration_seconds": 5.0,
              "delay_requirement": 0.040},
    scenario=admission_vs_ber_spec,
))

register(ExperimentSpec(
    name="bridge_residency_admission",
    description="Bridge residency share as an admission-time input: "
                "oblivious vs. budget-aware admission of the bridge's "
                "GS flow",
    run_point=run_bridge_residency_admission_point,
    # a 48-slot (30 ms) residency period: coarse enough that low shares
    # open absence windows longer than the bridge flow's poll interval,
    # fine enough that share 0.9 leaves an admissible schedule — the
    # budget-aware column flips within the swept range
    grid={"bridge_share": [0.3, 0.5, 0.7, 0.9],
          "admission_mode": ["oblivious", "budget-aware"]},
    defaults={"duration_seconds": 5.0, "delay_requirement": 0.040,
              "period_slots": 48},
    scenario=bridge_residency_admission_spec,
))
