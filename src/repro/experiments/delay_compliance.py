"""Table 2: delay-bound compliance.

Section 4.2: "Simulation runs, each of a simulation time of 530 seconds
(25000 samples of each GS flow), showed that the requested delay bound is
not exceeded."  This driver reproduces that check for a sweep of requested
bounds and reports requested bound, analytical bound, and the observed
maximum/mean delay of every GS flow.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import format_table
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


def run_delay_compliance(delay_requirements: Optional[Sequence[float]] = None,
                         duration_seconds: float = 10.0,
                         seed: int = 1) -> List[Dict]:
    """One row per (delay requirement, GS flow); wrapper over run_point."""
    if delay_requirements is None:
        delay_requirements = default_delay_requirements(points=4)
    rows: List[Dict] = []
    for requirement in delay_requirements:
        rows.extend(run_point({"delay_requirement": requirement,
                               "duration_seconds": duration_seconds}, seed))
    return rows


def format_delay_compliance(rows: Optional[List[Dict]] = None, **kwargs) -> str:
    rows = rows if rows is not None else run_delay_compliance(**kwargs)
    table_rows = [[r["delay_requirement_s"] * 1000.0, r["flow_id"],
                   r["analytical_bound_s"] * 1000.0, r["max_delay_s"] * 1000.0,
                   r["mean_delay_s"] * 1000.0, r["p99_delay_s"] * 1000.0,
                   r["packets"], r["bound_respected"]] for r in rows]
    table = format_table(
        ["D_req [ms]", "flow", "analytic bound [ms]", "max delay [ms]",
         "mean delay [ms]", "p99 delay [ms]", "packets", "respected"],
        table_rows, float_format=".2f")
    header = ("Table 2 — delay-bound compliance of the GS flows\n"
              "(paper: the requested delay bound is never exceeded)")
    return header + "\n\n" + table


register(ExperimentSpec(
    name="delay_compliance",
    description="Delay-bound compliance per GS flow (Table 2)",
    run_point=run_point,
    grid={"delay_requirement": default_delay_requirements(points=4)},
    defaults={"duration_seconds": 10.0},
    scenario=scenario_spec,
))
