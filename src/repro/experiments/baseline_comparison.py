"""Ablation A: the surveyed baseline pollers cannot guarantee delay bounds.

Section 3 of the paper surveys existing intra-piconet pollers (round robin,
exhaustive, FEP, EDC, HOL priority, demand based) and argues that "none of
the studied pollers is able to guarantee packet delay bounds in its current
state".  This driver runs the Figure-4 traffic under every baseline poller
and under PFP, and reports the worst observed delay of the GS flows against
the delay bound PFP guarantees (and meets).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.experiments.registry import ExperimentSpec, register
from repro.scenario import (
    PollerSpec,
    ScenarioSpec,
    baseline_poller_factories,
    figure4_spec,
    forbid_overrides,
    gs_bound_met,
    gs_max_delay,
    resolve_point_spec,
)

#: Baseline poller factories evaluated by the driver (by PollerSpec kind).
BASELINE_FACTORIES: Dict[str, Callable] = baseline_poller_factories()


#: registry key of the paper's own poller in the ``poller`` sweep axis
PFP_NAME = "pfp (this paper)"


def scenario_spec(params: Dict) -> ScenarioSpec:
    """The Figure-4 scenario under one poller (PFP or a baseline kind)."""
    poller_name = params["poller"]
    if poller_name != PFP_NAME and poller_name not in BASELINE_FACTORIES:
        known = ", ".join([repr(PFP_NAME)]
                          + sorted(map(repr, BASELINE_FACTORIES)))
        raise ValueError(
            f"unknown poller {poller_name!r}; known: {known}")
    spec = figure4_spec(
        delay_requirement=params.get("delay_requirement", 0.040),
        be_load_scale=params.get("be_load_scale", 1.0))
    if poller_name == PFP_NAME:
        return spec
    # a baseline kind keeps the admission control (and the PFP it would
    # drive) and then replaces the attached poller — see PollerSpec
    piconet = spec.piconets[0]
    from dataclasses import replace
    return ScenarioSpec(piconets=(replace(
        piconet, poller=PollerSpec(kind=poller_name)),))


def run_point(params: Dict, seed: int) -> List[Dict]:
    """One poller under the Figure-4 traffic: GS delay statistics."""
    forbid_overrides(params, {"poller": "poller axis"})
    poller_name = params["poller"]
    delay_requirement = params.get("delay_requirement", 0.040)
    scenario = resolve_point_spec(params, scenario_spec).compile(seed).primary
    scenario.run(params.get("duration_seconds", 5.0))
    delays = scenario.gs_delay_summary()
    gs_throughput = sum(
        scenario.piconet.flow_state(fid).delivered_bytes * 8
        for fid in scenario.gs_flow_ids) / scenario.piconet.elapsed_seconds
    return [{
        "poller": poller_name,
        "gs_max_delay_ms": gs_max_delay(delays.values()) * 1000.0,
        "gs_mean_delay_ms": (sum(d["mean_delay_s"] for d in delays.values())
                             / len(delays)) * 1000.0,
        "gs_throughput_kbps": gs_throughput / 1000.0,
        "target_bound_ms": delay_requirement * 1000.0,
        "bound_met": all(gs_bound_met(d) for d in delays.values()),
    }]


register(ExperimentSpec(
    name="baseline_comparison",
    description="GS delays under baseline pollers vs. PFP (Ablation A)",
    run_point=run_point,
    grid={"poller": [PFP_NAME, *BASELINE_FACTORIES]},
    defaults={"delay_requirement": 0.040, "duration_seconds": 5.0,
              "be_load_scale": 1.0},
    scenario=scenario_spec,
))
