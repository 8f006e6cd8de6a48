"""Table 2: delay-bound compliance.

Section 4.2: "Simulation runs, each of a simulation time of 530 seconds
(25000 samples of each GS flow), showed that the requested delay bound is
not exceeded."  This driver reproduces that check for a sweep of requested
bounds and reports requested bound, analytical bound, and the observed
maximum/mean delay of every GS flow.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.figure5 import default_delay_requirements
from repro.experiments.registry import ExperimentSpec, register
from repro.scenario import (
    ScenarioSpec,
    figure4_spec,
    forbid_overrides,
    gs_bound_met,
    resolve_point_spec,
)


def scenario_spec(params: Dict) -> ScenarioSpec:
    """The compliance scenario of one sweep point: the Figure-4 piconet."""
    forbid_overrides(params, {
        "flows.*.delay_bound": "delay_requirement axis"})
    return figure4_spec(delay_requirement=params["delay_requirement"])


def run_point(params: Dict, seed: int) -> List[Dict]:
    """One delay requirement: a compliance row per admitted GS flow."""
    requirement = params["delay_requirement"]
    scenario = resolve_point_spec(params, scenario_spec).compile(seed).primary
    if not scenario.all_gs_admitted:
        return []
    scenario.run(params.get("duration_seconds", 10.0))
    rows: List[Dict] = []
    for flow_id, summary in scenario.gs_delay_summary().items():
        rows.append({
            "delay_requirement_s": requirement,
            "flow_id": flow_id,
            "analytical_bound_s": summary["analytical_bound_s"],
            "max_delay_s": summary["max_delay_s"],
            "mean_delay_s": summary["mean_delay_s"],
            "p99_delay_s": summary["p99_delay_s"],
            "packets": summary["packets"],
            "bound_respected": gs_bound_met(summary),
        })
    return rows


register(ExperimentSpec(
    name="delay_compliance",
    description="Delay-bound compliance per GS flow (Table 2)",
    run_point=run_point,
    grid={"delay_requirement": default_delay_requirements(points=4)},
    defaults={"duration_seconds": 10.0},
    scenario=scenario_spec,
))
