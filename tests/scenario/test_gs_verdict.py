"""The GS delay verdict: every flow is judged against its own bound."""

import math
from dataclasses import replace

from repro.piconet.flows import BE, GS, UPLINK
from repro.scenario import (
    EventSpec,
    FlowSpec,
    PiconetSpec,
    ScenarioSpec,
    TimelineSpec,
    figure4_spec,
    gs_bound_met,
)

#: 64 kbit/s voice: one 144..176-byte packet every 20 ms
VOICE = dict(direction=UPLINK, traffic_class=GS, interval_s=0.020,
             size=(144, 176))


def _two_bound_spec() -> ScenarioSpec:
    return ScenarioSpec(piconets=(PiconetSpec(
        name="two-bounds",
        slaves=("near", "far", "laptop"),
        flows=(
            FlowSpec(1, slave=1, delay_bound=0.030, rng_stream="gs-1",
                     **VOICE),
            FlowSpec(2, slave=2, delay_bound=0.040, rng_stream="gs-2",
                     **VOICE),
            FlowSpec(3, slave=3, direction=UPLINK, traffic_class=BE,
                     interval_s=0.003, size=176),
        )),))


def test_each_gs_flow_reports_and_is_judged_against_its_own_bound():
    compiled = _two_bound_spec().compile(1)
    compiled.run(1.0)
    summary = compiled.primary.gs_delay_summary()
    assert summary[1]["requested_bound_s"] == 0.030
    assert summary[2]["requested_bound_s"] == 0.040
    assert all(gs_bound_met(entry) for entry in summary.values())
    # the same observed delay passes the looser bound only
    observed = {"max_delay_s": 0.035, "analytical_bound_s": 0.029}
    assert not gs_bound_met({**summary[1], **observed})
    assert gs_bound_met({**summary[2], **observed})


def test_timeline_flow_add_is_judged_against_its_own_bound():
    base = figure4_spec(delay_requirement=0.040)
    added = replace(base.piconets[0].flows[0], flow_id=99, slave=4,
                    rng_stream="gs-99", delay_bound=0.090)
    spec = replace(base, timeline=TimelineSpec(events=(
        EventSpec(at_s=0.1, kind="flow-add", flow=added),)))
    compiled = spec.compile(1)
    compiled.run(0.6)
    assert compiled.timeline_log[0]["admitted"] is True
    summary = compiled.primary.gs_delay_summary()
    assert summary[99]["requested_bound_s"] == 0.090
    assert summary[1]["requested_bound_s"] == 0.040
    assert gs_bound_met(summary[99])


def test_flow_without_delivered_packets_has_not_met_its_bound():
    compiled = _two_bound_spec().compile(1)
    compiled.run(0.001)  # shorter than any source's first packet
    summary = compiled.primary.gs_delay_summary()
    assert all(entry["packets"] == 0 for entry in summary.values())
    assert all(math.isnan(entry["max_delay_s"]) for entry in summary.values())
    assert not any(gs_bound_met(entry) for entry in summary.values())


def test_rate_admitted_flow_is_judged_against_its_analytical_bound():
    entry = {"requested_bound_s": None, "analytical_bound_s": 0.050,
             "max_delay_s": 0.045}
    assert gs_bound_met(entry)
    assert not gs_bound_met({**entry, "max_delay_s": 0.051})
