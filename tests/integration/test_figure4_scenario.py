"""Integration tests of the full Figure-4 scenario."""

import pytest

from repro.scenario import figure4_spec
from repro.scenario.factories import figure4_gs_tspec


def build(seed=1, **kwargs):
    """The compiled Section 4.1 piconet."""
    return figure4_spec(**kwargs).compile(seed).primary


def test_scenario_wiring_matches_figure4():
    scenario = build(delay_requirement=0.040)
    assert len(scenario.piconet.slaves()) == 7
    assert scenario.gs_flow_ids == [1, 2, 3, 4]
    assert scenario.be_flow_ids == [5, 6, 7, 8, 9, 10, 11, 12]
    assert scenario.slave_flows[2] == [2, 3]     # the Figure-5 legend grouping
    assert scenario.all_gs_admitted
    assert len(scenario.sources) == 12


def test_gs_tspec_matches_paper():
    tspec = figure4_gs_tspec()
    assert tspec.r == pytest.approx(8800.0)
    assert tspec.b == 176 and tspec.m == 144 and tspec.M == 176


def test_build_requires_exactly_one_gs_parameter():
    with pytest.raises(ValueError):
        figure4_spec(delay_requirement=None, gs_rate=None)
    with pytest.raises(ValueError):
        figure4_spec(delay_requirement=0.04, gs_rate=9000.0)
    with pytest.raises(ValueError):
        figure4_spec(delay_requirement=0.04, be_load_scale=-1)


def test_gs_flows_keep_their_throughput_and_bound():
    scenario = build(seed=3, delay_requirement=0.040)
    scenario.run(4.0)
    throughputs = scenario.slave_throughputs_kbps()
    assert throughputs[1] == pytest.approx(64.0, abs=4.0)
    assert throughputs[2] == pytest.approx(128.0, abs=6.0)
    assert throughputs[3] == pytest.approx(64.0, abs=4.0)
    for summary in scenario.gs_delay_summary().values():
        assert summary["max_delay_s"] <= 0.040 + 1e-9
        assert summary["analytical_bound_s"] <= 0.040 + 1e-9


def test_be_traffic_shares_leftover_capacity_fairly():
    scenario = build(seed=2, delay_requirement=0.034, be_load_scale=1.5)
    scenario.run(4.0)
    throughputs = scenario.slave_throughputs_kbps()
    be_values = [throughputs[s] for s in (4, 5, 6, 7)]
    # saturated best-effort slaves receive roughly equal service
    assert max(be_values) - min(be_values) < 0.35 * max(be_values)


def test_different_seeds_preserve_guarantee():
    for seed in (11, 12):
        scenario = build(seed=seed, delay_requirement=0.036)
        scenario.run(2.0)
        for summary in scenario.gs_delay_summary().values():
            assert summary["max_delay_s"] <= 0.036 + 1e-9


def test_fixed_interval_poller_also_meets_bound_but_uses_more_slots():
    variable = build(seed=5, delay_requirement=0.040)
    variable.run(2.0)
    fixed = build(seed=5, delay_requirement=0.040, variable_interval=False)
    fixed.run(2.0)
    assert fixed.piconet.slots_gs > variable.piconet.slots_gs
    for scenario in (variable, fixed):
        for summary in scenario.gs_delay_summary().values():
            assert summary["max_delay_s"] <= 0.040 + 1e-9


def test_too_tight_delay_requirement_is_rejected_not_violated():
    scenario = build(delay_requirement=0.012)
    assert not scenario.all_gs_admitted
    rejected = [fid for fid, s in scenario.gs_setups.items() if not s.accepted]
    assert rejected   # at least the lowest-priority stream cannot make 12 ms


def test_gs_sources_without_be_traffic_leave_capacity_idle():
    scenario = build(delay_requirement=0.040, be_load_scale=0.0)
    scenario.run(2.0)
    accounting = scenario.piconet.slot_accounting()
    # the idle BE slaves are only probed occasionally (PFP backs off), so the
    # overwhelming majority of the unreserved capacity remains idle
    assert accounting["be"] < 400
    assert accounting["idle"] > 1500
    assert accounting["idle"] > 4 * accounting["be"]
    throughputs = scenario.slave_throughputs_kbps()
    assert throughputs[1] == pytest.approx(64.0, abs=4.0)
