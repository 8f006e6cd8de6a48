"""Figure 5: per-slave throughput versus the requested GS delay bound.

The paper's main result plot: for delay requirements between (roughly)
28 ms and 46 ms, every GS flow keeps its 64 kbit/s throughput while the
best-effort slaves receive whatever capacity the Guaranteed Service polling
leaves over, divided fairly — tight bounds squeeze the high-rate BE slaves
first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.experiments.registry import ExperimentSpec, register
from repro.experiments.table1_parameters import compute_table1_parameters
from repro.scenario import (
    ScenarioSpec,
    figure4_spec,
    forbid_overrides,
    gs_bound_met,
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
    row["gs_max_delay_s"] = max(d["max_delay_s"] for d in gs_delays.values())
    row["gs_bound_violated"] = not all(
        gs_bound_met(d) for d in gs_delays.values())
    row["gs_slots"] = scenario.piconet.slots_gs
    row["be_slots"] = scenario.piconet.slots_be
    return [row]


def run_figure5(delay_requirements: Optional[Sequence[float]] = None,
                duration_seconds: float = 10.0,
                seed: int = 1,
                be_load_scale: float = 1.0) -> List[Dict]:
    """Run the Figure-5 sweep sequentially; one result row per requirement.

    Compatibility wrapper around :func:`run_point`; use the sweep
    orchestrator (``python -m repro.experiments run figure5``) for parallel,
    replicated runs.
    """
    if delay_requirements is None:
        delay_requirements = default_delay_requirements()
    rows: List[Dict] = []
    for requirement in delay_requirements:
        rows.extend(run_point({"delay_requirement": requirement,
                               "duration_seconds": duration_seconds,
                               "be_load_scale": be_load_scale}, seed))
    return rows


def format_figure5(rows: Optional[List[Dict]] = None, **kwargs) -> str:
    """Render the Figure-5 series as a text table."""
    rows = rows if rows is not None else run_figure5(**kwargs)
    table_rows = []
    for row in rows:
        if not row.get("admitted", False):
            table_rows.append([row["delay_requirement_s"] * 1000.0,
                               "rejected", "-", "-", "-", "-", "-", "-", "-", "-"])
            continue
        table_rows.append([
            row["delay_requirement_s"] * 1000.0,
            row.get("S1", 0.0), row.get("S2", 0.0), row.get("S3", 0.0),
            row.get("S4", 0.0), row.get("S5", 0.0), row.get("S6", 0.0),
            row.get("S7", 0.0), row["total_kbps"],
            row["gs_max_delay_s"] * 1000.0,
        ])
    table = format_table(
        ["D_req [ms]", "S1 GS", "S2 GS", "S3 GS", "S4 BE", "S5 BE", "S6 BE",
         "S7 BE", "total", "GS max delay [ms]"],
        table_rows, float_format=".1f")
    header = ("Figure 5 — throughput [kbit/s] per slave vs. requested GS delay "
              "bound\n(paper: GS slaves flat at 64/128/64 kbit/s; BE slaves at "
              "their offered load for loose bounds,\nsqueezed and fairly shared "
              "for tight bounds; total max 656 kbit/s)")
    return header + "\n\n" + table


register(ExperimentSpec(
    name="figure5",
    description="Per-slave throughput vs. requested GS delay bound (Fig. 5)",
    run_point=run_point,
    grid={"delay_requirement": default_delay_requirements()},
    defaults={"duration_seconds": 10.0, "be_load_scale": 1.0},
    scenario=scenario_spec,
))
