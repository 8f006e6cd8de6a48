"""Table 3: resource savings of the variable-interval poller.

Section 3.2 motivates the variable-interval poller by the resources the
fixed-interval poller wastes (polling more often than necessary, polling
flows with no data); Section 4.2 claims the poller "saves an amount of
bandwidth that can be used for retransmissions ... and/or for transmission
of BE traffic".  This driver quantifies it: for a sweep of delay
requirements it runs the Figure-4 scenario once with the fixed-interval
poller and once with the variable-interval poller and compares the slots
consumed by GS polling, the number of empty GS polls and the best-effort
throughput achieved with the remaining capacity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.figure5 import default_delay_requirements
from repro.experiments.registry import ExperimentSpec, register
from repro.scenario import (
    SCENARIO_PARAM,
    ScenarioSpec,
    figure4_spec,
    forbid_overrides,
    gs_max_delay,
    resolve_point_spec,
)


def scenario_spec(params: Dict, variable_interval: bool = True
                  ) -> ScenarioSpec:
    """One poller configuration's spec (the sweep compares two of them)."""
    forbid_overrides(params, {
        "flows.*.delay_bound": "delay_requirement axis",
        "improvements.variable_interval": "fixed-vs-variable comparison"})
    return figure4_spec(delay_requirement=params["delay_requirement"],
                        variable_interval=variable_interval)


def _run_one(params: Dict, variable_interval: bool,
             duration_seconds: float, seed: int) -> Optional[Dict]:
    spec = resolve_point_spec(
        params, lambda point: scenario_spec(point, variable_interval))
    scenario = spec.compile(seed).primary
    if not scenario.all_gs_admitted:
        return None
    scenario.run(duration_seconds)
    piconet = scenario.piconet
    total_slots = int(round(duration_seconds * 1600))
    be_throughput = sum(
        piconet.slave_throughput_bps(slave) for slave in (4, 5, 6, 7)) / 1000.0
    return {
        "gs_slots": piconet.slots_gs,
        "gs_slot_share": piconet.slots_gs / total_slots,
        "gs_polls_without_data": piconet.gs_polls_without_data,
        "gs_transactions": piconet.transactions_gs,
        "be_throughput_kbps": be_throughput,
        "gs_max_delay_s": gs_max_delay(
            scenario.gs_delay_summary().values()),
    }


def run_point(params: Dict, seed: int) -> List[Dict]:
    """One delay requirement: fixed- vs. variable-interval poller.

    The per-poller metrics stay nested under ``fixed`` / ``variable`` — the
    orchestrator's aggregation flattens them into ``fixed_*`` /
    ``variable_*`` keys, so every one of them gets mean/CI aggregation over
    replications.
    """
    requirement = params["delay_requirement"]
    duration_seconds = params.get("duration_seconds", 5.0)
    if SCENARIO_PARAM in params:
        raise ValueError(
            "bandwidth_savings compares two poller configurations per "
            "point; use dotted --set overrides instead of a serialized "
            "scenario payload")
    forbid_overrides(params, {
        "improvements.variable_interval": "fixed-vs-variable comparison"})
    fixed = _run_one(params, False, duration_seconds, seed)
    variable = _run_one(params, True, duration_seconds, seed)
    if fixed is None or variable is None:
        return []
    return [{
        "delay_requirement_s": requirement,
        "fixed": fixed,
        "variable": variable,
        "slots_saved": fixed["gs_slots"] - variable["gs_slots"],
        "slots_saved_fraction": (
            (fixed["gs_slots"] - variable["gs_slots"]) / fixed["gs_slots"]
            if fixed["gs_slots"] else 0.0),
    }]


register(ExperimentSpec(
    name="bandwidth_savings",
    description="GS slots: fixed vs. variable-interval poller (Table 3)",
    run_point=run_point,
    grid={"delay_requirement": default_delay_requirements(points=4)},
    defaults={"duration_seconds": 5.0},
    # v2: rows returned nested (fixed/variable sub-dicts) and flattened by
    # the orchestrator's aggregation instead of pre-flattened in run_point
    version=2,
    scenario=scenario_spec,
))
