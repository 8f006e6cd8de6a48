"""Ablation B: contribution of the three Section-3.2 improvements.

The variable-interval poller removes three sources of wasted polls:
(1) postpone the next poll according to the actual packet size, (2) postpone
after an unsuccessful poll, and (3) skip downlink polls with an empty queue.
This driver toggles each improvement individually on top of the fixed
baseline and reports the GS slot usage, empty GS polls, best-effort
throughput and the (still respected) GS delay bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.experiments.registry import ExperimentSpec, register
from repro.scenario import (
    ScenarioSpec,
    figure4_spec,
    forbid_overrides,
    gs_bound_met,
    resolve_point_spec,
)

#: named improvement combinations evaluated by the ablation
CONFIGURATIONS = [
    ("fixed interval", dict(variable_interval=False)),
    ("variable: only packet-size postpone",
     dict(variable_interval=True, postpone_by_packet_size=True,
          postpone_after_unsuccessful=False, skip_when_no_downlink_data=False)),
    ("variable: only unsuccessful postpone",
     dict(variable_interval=True, postpone_by_packet_size=False,
          postpone_after_unsuccessful=True, skip_when_no_downlink_data=False)),
    ("variable: only downlink skip",
     dict(variable_interval=True, postpone_by_packet_size=False,
          postpone_after_unsuccessful=False, skip_when_no_downlink_data=True)),
    ("variable: all improvements",
     dict(variable_interval=True, postpone_by_packet_size=True,
          postpone_after_unsuccessful=True, skip_when_no_downlink_data=True)),
]


#: label -> poller options, for lookup by the per-point runner
_CONFIGURATION_OPTIONS = dict(CONFIGURATIONS)


def scenario_spec(params: Dict) -> ScenarioSpec:
    """One improvement combination's spec, selected by its label."""
    label = params["configuration"]
    try:
        options = _CONFIGURATION_OPTIONS[label]
    except KeyError:
        known = ", ".join(repr(name) for name, _ in CONFIGURATIONS)
        raise ValueError(
            f"unknown configuration {label!r}; known: {known}") from None
    return figure4_spec(
        delay_requirement=params.get("delay_requirement", 0.036), **options)


def run_point(params: Dict, seed: int) -> List[Dict]:
    """One improvement combination under the Figure-4 traffic."""
    forbid_overrides(params, {
        "improvements.variable_interval": "configuration axis",
        "improvements.postpone_by_packet_size": "configuration axis",
        "improvements.postpone_after_unsuccessful": "configuration axis",
        "improvements.skip_when_no_downlink_data": "configuration axis"})
    label = params["configuration"]
    scenario = resolve_point_spec(params, scenario_spec).compile(seed).primary
    if not scenario.all_gs_admitted:
        return []
    scenario.run(params.get("duration_seconds", 5.0))
    piconet = scenario.piconet
    be_throughput = sum(piconet.slave_throughput_bps(s)
                        for s in (4, 5, 6, 7)) / 1000.0
    delays = scenario.gs_delay_summary()
    gs_max_delay = max(d["max_delay_s"] for d in delays.values())
    return [{
        "configuration": label,
        "gs_slots": piconet.slots_gs,
        "gs_polls_without_data": piconet.gs_polls_without_data,
        "be_throughput_kbps": be_throughput,
        "gs_max_delay_ms": gs_max_delay * 1000.0,
        "bound_met": all(gs_bound_met(d) for d in delays.values()),
    }]


def run_improvement_ablation(delay_requirement: float = 0.036,
                             duration_seconds: float = 5.0,
                             seed: int = 1) -> List[Dict]:
    """One row per improvement combination; wrapper over run_point."""
    rows: List[Dict] = []
    for label, _ in CONFIGURATIONS:
        rows.extend(run_point({"configuration": label,
                               "delay_requirement": delay_requirement,
                               "duration_seconds": duration_seconds}, seed))
    return rows


def format_improvement_ablation(rows: Optional[List[Dict]] = None, **kwargs) -> str:
    rows = rows if rows is not None else run_improvement_ablation(**kwargs)
    table_rows = [[r["configuration"], r["gs_slots"], r["gs_polls_without_data"],
                   r["be_throughput_kbps"], r["gs_max_delay_ms"], r["bound_met"]]
                  for r in rows]
    table = format_table(
        ["configuration", "GS slots", "empty GS polls", "BE kbit/s",
         "GS max delay [ms]", "bound met"],
        table_rows, float_format=".1f")
    header = ("Ablation B — contribution of the Section-3.2 improvements "
              "(slots saved while keeping the delay bound)")
    return header + "\n\n" + table


register(ExperimentSpec(
    name="improvement_ablation",
    description="Contribution of the Section-3.2 improvements (Ablation B)",
    run_point=run_point,
    grid={"configuration": [label for label, _ in CONFIGURATIONS]},
    defaults={"delay_requirement": 0.036, "duration_seconds": 5.0},
    scenario=scenario_spec,
))
