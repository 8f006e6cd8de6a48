"""Figure 5: per-slave throughput versus the requested GS delay bound.

The paper's main result plot: for delay requirements between (roughly)
28 ms and 46 ms, every GS flow keeps its 64 kbit/s throughput while the
best-effort slaves receive whatever capacity the Guaranteed Service polling
leaves over, divided fairly — tight bounds squeeze the high-rate BE slaves
first.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.registry import ExperimentSpec, register
from repro.experiments.table1_parameters import compute_table1_parameters
from repro.scenario import (
    ScenarioSpec,
    figure4_spec,
    forbid_overrides,
    gs_bound_met,
    gs_max_delay,
    resolve_point_spec,
)


def scenario_spec(params: Dict) -> ScenarioSpec:
    """The Figure-4 scenario of one sweep point, as a declarative spec."""
    forbid_overrides(params, {
        "flows.*.delay_bound": "delay_requirement axis"})
    return figure4_spec(delay_requirement=params["delay_requirement"],
                        be_load_scale=params.get("be_load_scale", 1.0))


def default_delay_requirements(points: int = 7) -> List[float]:
    """A sweep of ``points`` values across the feasible range of Table 1."""
    if points < 1:
        raise ValueError(f"points must be a positive integer, got {points}")
    params = compute_table1_parameters()["scenario"]
    low = params["common_feasible_bound_min_ms"] / 1000.0 + 0.0005
    high = params["common_feasible_bound_max_ms"] / 1000.0 - 0.0005
    if points == 1:
        return [high]
    step = (high - low) / (points - 1)
    return [low + i * step for i in range(points)]


def rejected_row(scenario, requirement: float) -> Dict:
    """The row of a sweep point whose GS flow set admission refused."""
    rejected = [fid for fid, setup in scenario.gs_setups.items()
                if not setup.accepted]
    return {"delay_requirement_s": requirement, "admitted": False,
            "rejected_flows": rejected}


def run_point(params: Dict, seed: int) -> List[Dict]:
    """One Figure-5 parameter point: a single delay requirement.

    Returns one row with the per-slave throughput in kbit/s (keys
    ``S1``..``S7``), the total throughput, and the worst observed GS packet
    delay so the delay guarantee can be checked alongside the throughput.
    """
    requirement = params["delay_requirement"]
    scenario = resolve_point_spec(params, scenario_spec).compile(seed).primary
    if not scenario.all_gs_admitted:
        return [rejected_row(scenario, requirement)]
    scenario.run(params.get("duration_seconds", 10.0))
    throughputs = scenario.slave_throughputs_kbps()
    gs_delays = scenario.gs_delay_summary()
    row: Dict = {"delay_requirement_s": requirement, "admitted": True}
    for slave, value in throughputs.items():
        row[f"S{slave}"] = value
    row["total_kbps"] = sum(throughputs.values())
    row["gs_max_delay_s"] = gs_max_delay(gs_delays.values())
    row["gs_bound_violated"] = not all(
        gs_bound_met(d) for d in gs_delays.values())
    row["gs_slots"] = scenario.piconet.slots_gs
    row["be_slots"] = scenario.piconet.slots_be
    return [row]


register(ExperimentSpec(
    name="figure5",
    description="Per-slave throughput vs. requested GS delay bound (Fig. 5)",
    run_point=run_point,
    grid={"delay_requirement": default_delay_requirements()},
    defaults={"duration_seconds": 10.0, "be_load_scale": 1.0},
    scenario=scenario_spec,
))
