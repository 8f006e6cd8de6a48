"""Tests of the experiment drivers (short runs; results shaped like the paper).

Every sweep runs through :class:`SweepRunner` on the serial backend at
master seed 0, as the CLI and the benchmarks run it.
"""

import pytest

from repro.experiments import (
    SweepRunner,
    compute_table1_parameters,
    format_table1,
)
from repro.experiments.figure5 import default_delay_requirements


def sweep_rows(experiment, **overrides):
    """The aggregated ``mean`` rows of one serial sweep."""
    result = SweepRunner(backend="serial").run(experiment, overrides=overrides)
    return [row["mean"] for row in result.rows]


def test_table1_matches_paper_constants():
    result = compute_table1_parameters()
    scenario = result["scenario"]
    assert scenario["eta_min_bytes"] == pytest.approx(144.0)
    assert scenario["token_rate_kBps"] == pytest.approx(8.8)
    assert scenario["mtu_bytes"] == 176
    assert scenario["max_transaction_ms"] == pytest.approx(3.75)
    flows = {f["flow_id"]: f for f in result["flows"]}
    assert len(flows) == 4
    # all flows export C = eta_min and D = u
    for f in flows.values():
        assert f["C_bytes"] == pytest.approx(144.0)
        assert f["D_ms"] == pytest.approx(f["u_ms"])
    # flows 2 and 3 are piggybacked and share priority / wait bound
    assert flows[2]["u_ms"] == pytest.approx(flows[3]["u_ms"])
    assert flows[2]["priority"] == flows[3]["priority"]
    # lower priority => larger wait bound
    assert flows[1]["u_ms"] < flows[2]["u_ms"] < flows[4]["u_ms"]
    assert "Table 1" in format_table1(result)


def test_default_delay_requirements_lie_in_feasible_range():
    requirements = default_delay_requirements(points=5)
    scenario = compute_table1_parameters()["scenario"]
    low = scenario["common_feasible_bound_min_ms"] / 1000.0
    high = scenario["common_feasible_bound_max_ms"] / 1000.0
    assert len(requirements) == 5
    assert all(low <= r <= high for r in requirements)
    assert requirements == sorted(requirements)


def test_default_delay_requirements_honors_points_argument():
    # regression: points=1 used to be ignored (any value < 2 returned one
    # point) and points=0/negative silently did the same
    for points in (1, 2, 3, 7):
        assert len(default_delay_requirements(points=points)) == points
    with pytest.raises(ValueError):
        default_delay_requirements(points=0)
    with pytest.raises(ValueError):
        default_delay_requirements(points=-3)


def test_figure5_shape_matches_paper():
    requirements = default_delay_requirements(points=2)
    rows = sweep_rows("figure5", delay_requirement=requirements,
                      duration_seconds=2.0)
    assert len(rows) == 2
    for row in rows:
        assert row["admitted"]
        # GS slaves keep their 64 / 128 / 64 kbit/s throughput
        assert row["S1"] == pytest.approx(64.0, abs=4.0)
        assert row["S2"] == pytest.approx(128.0, abs=6.0)
        assert row["S3"] == pytest.approx(64.0, abs=4.0)
        assert not row["gs_bound_violated"]
    tight, loose = rows[0], rows[-1]
    # a looser bound leaves more capacity for best effort
    be_tight = tight["S4"] + tight["S5"] + tight["S6"] + tight["S7"]
    be_loose = loose["S4"] + loose["S5"] + loose["S6"] + loose["S7"]
    assert be_loose >= be_tight - 1.0


def test_delay_compliance_never_exceeds_bound():
    rows = sweep_rows("delay_compliance", duration_seconds=2.0)
    assert rows
    assert all(row["bound_respected"] for row in rows)
    assert all(row["max_delay_s"] <= row["analytical_bound_s"] + 1e-9
               for row in rows)


def test_bandwidth_savings_variable_poller_uses_fewer_gs_slots():
    rows = sweep_rows("bandwidth_savings",
                      delay_requirement=default_delay_requirements(points=2),
                      duration_seconds=2.0)
    assert rows
    for row in rows:
        assert row["variable_gs_slots"] < row["fixed_gs_slots"]
        assert row["slots_saved_fraction"] > 0
        # the delay guarantee still holds for the variable poller
        assert (row["variable_gs_max_delay_s"]
                <= row["delay_requirement_s"] + 1e-9)


def test_admission_capacity_piggybacking_never_worse():
    rows = sweep_rows("admission_capacity")
    assert rows
    for row in rows:
        assert row["accepted_with_piggyback"] >= row["accepted_without_piggyback"]
    assert any(row["accepted_with_piggyback"] > row["accepted_without_piggyback"]
               for row in rows)


def test_sco_comparison_pfp_leaves_more_slots_free():
    sco, pfp = sweep_rows("sco_comparison", duration_seconds=3.0)
    assert sco["configuration"].startswith("SCO")
    assert pfp["slots_consumed_per_s"] < sco["slots_consumed_per_s"]
    assert pfp["slots_free_fraction"] > sco["slots_free_fraction"]
    # both deliver the full voice stream
    assert sco["throughput_kbps"] == pytest.approx(64.0, abs=5.0)
    assert pfp["throughput_kbps"] == pytest.approx(64.0, abs=5.0)


def test_baseline_comparison_pfp_meets_bound():
    rows = sweep_rows("baseline_comparison", duration_seconds=1.5)
    by_name = {row["poller"]: row for row in rows}
    assert by_name["pfp (this paper)"]["bound_met"]
    assert len(rows) == 8


def test_improvement_ablation_all_configurations_meet_bound():
    rows = sweep_rows("improvement_ablation", duration_seconds=1.5)
    assert len(rows) == 5
    by_name = {row["configuration"]: row for row in rows}
    fixed = by_name["fixed interval"]
    full = by_name["variable: all improvements"]
    assert full["gs_slots"] < fixed["gs_slots"]
    assert all(row["bound_met"] for row in rows)


def test_lossy_channel_degrades_gracefully():
    rows = sweep_rows("lossy_channel", bit_error_rate=[0.0, 1e-4],
                      duration_seconds=1.5)
    assert len(rows) == 2
    clean, lossy = rows
    assert clean["gs_retransmissions"] == 0
    assert lossy["gs_retransmissions"] > 0
    assert lossy["gs_retransmissions"] == (
        lossy["gs_segments_not_received"] + lossy["gs_crc_failures"])
    assert lossy["gs_throughput_kbps"] == pytest.approx(
        clean["gs_throughput_kbps"], rel=0.15)
