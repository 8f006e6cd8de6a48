"""Registered scenario packs beyond the paper's core tables and figures.

Three workloads grow the sweep registry past the Section-4 reproduction,
each a single :func:`~repro.experiments.registry.register` call over the
parameterised Figure-4 builder:

``heavy_piconet``
    Every one of the seven slaves carries best-effort traffic (the paper's
    rate mix, cycled) *in addition to* the Section-4.1 GS flows on slaves
    1..3 — 4 GS + 14 BE flows contending for the same master.  Measures how
    the GS guarantee and the fair BE division hold up under a fully loaded
    piconet.

``mixed_sco_gs``
    A reserved HV3 SCO voice link on slave 7 next to uplink GS flows
    (slaves 1..3) and uplink BE flows (slaves 4..6).  The GS admission
    control knows nothing about the SCO reservations stealing a third of
    the slots, so the recorded bound violations quantify exactly what SCO
    coexistence costs the Guaranteed Service.

``be_load_scale``
    The Figure-4 scenario under a sweep of the best-effort offered load at
    a fixed GS delay requirement — the orthogonal axis to Figure 5's delay
    sweep.

The rows deliberately use nested metric dicts (``gs``/``be``/``voice``/
``slots`` sub-dicts): the orchestrator's aggregation flattens them into
``gs_max_delay_s``-style keys, so every nested metric still gets mean/CI
treatment over replications.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import jain_fairness
from repro.experiments import figure5 as _figure5
from repro.experiments.figure5 import rejected_row
from repro.experiments.registry import ExperimentSpec, register
from repro.piconet.flows import UPLINK
from repro.scenario import (
    ScenarioSpec,
    figure4_spec,
    forbid_overrides,
    gs_bound_met,
    resolve_point_spec,
)

#: slaves of the heavy scenario: the full piconet carries best effort
HEAVY_BE_SLAVES = (1, 2, 3, 4, 5, 6, 7)


def _gs_metrics(scenario, duration_seconds: float) -> Dict:
    summary = scenario.gs_delay_summary()
    piconet = scenario.piconet
    throughput = sum(piconet.flow_state(fid).delivered_bytes
                     for fid in scenario.gs_flow_ids) * 8 / duration_seconds
    return {
        "throughput_kbps": throughput / 1000.0,
        "max_delay_s": max(d["max_delay_s"] for d in summary.values()),
        "bound_violated": not all(
            gs_bound_met(d) for d in summary.values()),
    }


def _be_metrics(scenario, duration_seconds: float) -> Dict:
    piconet = scenario.piconet
    per_flow_kbps = [
        piconet.flow_state(fid).delivered_bytes * 8 / duration_seconds / 1000.0
        for fid in scenario.be_flow_ids]
    return {
        "throughput_kbps": sum(per_flow_kbps),
        "fairness": jain_fairness(per_flow_kbps),
    }


def heavy_piconet_spec(params: Dict) -> ScenarioSpec:
    """The fully loaded piconet of one sweep point (BE on all 7 slaves)."""
    forbid_overrides(params, {
        "flows.*.delay_bound": "delay_requirement axis"})
    return figure4_spec(delay_requirement=params["delay_requirement"],
                        be_load_scale=params.get("be_load_scale", 1.0),
                        be_slaves=HEAVY_BE_SLAVES)


def run_heavy_piconet_point(params: Dict, seed: int) -> List[Dict]:
    """One heavy-piconet point: BE flows on all seven slaves next to GS."""
    requirement = params["delay_requirement"]
    duration_seconds = params.get("duration_seconds", 5.0)
    scenario = resolve_point_spec(
        params, heavy_piconet_spec).compile(seed).primary
    if not scenario.all_gs_admitted:
        return [rejected_row(scenario, requirement)]
    scenario.run(duration_seconds)
    row: Dict = {"delay_requirement_s": requirement, "admitted": True}
    for slave, value in scenario.slave_throughputs_kbps().items():
        row[f"S{slave}"] = value
    row["total_kbps"] = sum(
        v for k, v in row.items() if k.startswith("S"))
    row["gs"] = _gs_metrics(scenario, duration_seconds)
    row["be"] = _be_metrics(scenario, duration_seconds)
    row["slots"] = scenario.piconet.slot_accounting()
    return [row]


def mixed_sco_gs_spec(params: Dict) -> ScenarioSpec:
    """The mixed SCO+GS piconet of one sweep point."""
    forbid_overrides(params, {
        "flows.*.delay_bound": "delay_requirement axis"})
    return figure4_spec(delay_requirement=params["delay_requirement"],
                        be_load_scale=params.get("be_load_scale", 1.0),
                        be_slaves=(4, 5, 6), sco_slaves=(7,),
                        gs_uplink_only=True, be_directions=(UPLINK,))


def run_mixed_sco_gs_point(params: Dict, seed: int) -> List[Dict]:
    """One mixed point: HV3 SCO voice next to uplink GS and BE flows."""
    requirement = params["delay_requirement"]
    duration_seconds = params.get("duration_seconds", 5.0)
    scenario = resolve_point_spec(
        params, mixed_sco_gs_spec).compile(seed).primary
    if not scenario.all_gs_admitted:
        return [rejected_row(scenario, requirement)]
    scenario.run(duration_seconds)
    piconet = scenario.piconet
    voice = piconet.flow_state(scenario.sco_flow_ids[0])
    row: Dict = {
        "delay_requirement_s": requirement,
        "admitted": True,
        "voice": {
            "throughput_kbps":
                voice.delivered_bytes * 8 / duration_seconds / 1000.0,
            "max_delay_ms": voice.delays.maximum * 1000.0,
            "residual_errors": voice.sco_residual_errors,
        },
        "gs": _gs_metrics(scenario, duration_seconds),
        "be": _be_metrics(scenario, duration_seconds),
        "slots": piconet.slot_accounting(),
    }
    return [row]


def run_be_load_scale_point(params: Dict, seed: int) -> List[Dict]:
    """One BE-load point: the Figure-4 scenario at a scaled offered load."""
    rows: List[Dict] = []
    for row in _figure5.run_point(params, seed):
        if not row.get("admitted", False):
            rows.append(row)
            continue
        row = dict(row)
        row["be_load_scale"] = params.get("be_load_scale", 1.0)
        row["be_total_kbps"] = sum(
            row.get(f"S{slave}", 0.0) for slave in (4, 5, 6, 7))
        row["gs_total_kbps"] = sum(
            row.get(f"S{slave}", 0.0) for slave in (1, 2, 3))
        rows.append(row)
    return rows


register(ExperimentSpec(
    name="heavy_piconet",
    description="Fully loaded piconet: BE flows on all 7 slaves next to "
                "the Section-4.1 GS flows",
    run_point=run_heavy_piconet_point,
    grid={"delay_requirement": [0.032, 0.038, 0.044]},
    defaults={"duration_seconds": 5.0, "be_load_scale": 1.0},
    scenario=heavy_piconet_spec,
))

register(ExperimentSpec(
    name="mixed_sco_gs",
    description="HV3 SCO voice link coexisting with uplink GS and BE flows",
    run_point=run_mixed_sco_gs_point,
    # uplink-only GS stacks the wait bounds higher than the piggybacked
    # Figure-4 set, so the feasible band starts around 38 ms
    grid={"delay_requirement": [0.038, 0.046]},
    defaults={"duration_seconds": 5.0, "be_load_scale": 1.0},
    scenario=mixed_sco_gs_spec,
))

register(ExperimentSpec(
    name="be_load_scale",
    description="Figure-4 scenario vs. scaled best-effort offered load at "
                "a fixed GS delay bound",
    run_point=run_be_load_scale_point,
    grid={"be_load_scale": [0.5, 1.0, 1.5, 2.0]},
    defaults={"delay_requirement": 0.040, "duration_seconds": 5.0},
    scenario=_figure5.scenario_spec,
))
