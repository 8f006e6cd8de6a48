"""Tests of the registered scenario packs (heavy / mixed SCO+GS / BE load).

Includes the fast orchestrator smoke test: a new scenario driven end to end
through ``python -m repro.experiments run ... --backend serial`` with one
replication, so backend regressions fail tier-1 instead of only surfacing
in long sweeps.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.stats import jain_fairness
from repro.experiments import experiment_names, get_experiment
from repro.experiments.churn_pack import run_churn_recovery_point
from repro.experiments.orchestrator import SweepRunner
from repro.experiments.scenario_packs import (
    run_be_load_scale_point,
    run_heavy_piconet_point,
    run_mixed_sco_gs_point,
)
from repro.scenario import figure4_spec

NEW_SCENARIOS = ("be_load_scale", "heavy_piconet", "mixed_sco_gs")


def test_scenario_packs_are_registered_with_grids():
    for name in NEW_SCENARIOS:
        assert name in experiment_names()
        spec = get_experiment(name)
        assert spec.grid and spec.defaults["duration_seconds"] > 0


def test_jain_fairness_bounds():
    assert jain_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_fairness([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
    assert math.isnan(jain_fairness([]))
    assert math.isnan(jain_fairness([0.0, 0.0]))


def test_heavy_piconet_point_serves_all_seven_slaves():
    rows = run_heavy_piconet_point(
        {"delay_requirement": 0.040, "duration_seconds": 1.0}, seed=1)
    assert len(rows) == 1
    row = rows[0]
    assert row["admitted"] is True
    # every slave, GS and BE alike, delivers traffic
    for slave in range(1, 8):
        assert row[f"S{slave}"] > 0
    # GS slaves carry GS + BE, so they exceed their pure-GS rates
    assert row["S1"] > 64.0 and row["S2"] > 128.0
    assert row["be"]["throughput_kbps"] > 0
    assert 0 < row["be"]["fairness"] <= 1.0
    assert row["gs"]["max_delay_s"] > 0
    assert row["slots"]["gs"] > 0 and row["slots"]["be"] > 0


def test_mixed_sco_gs_point_carries_voice_and_acl_side_by_side():
    rows = run_mixed_sco_gs_point(
        {"delay_requirement": 0.044, "duration_seconds": 1.0}, seed=1)
    assert len(rows) == 1
    row = rows[0]
    assert row["admitted"] is True
    # the SCO voice link delivers its full 64 kbit/s with a hard small delay
    assert row["voice"]["throughput_kbps"] == pytest.approx(64.0, abs=5.0)
    assert row["voice"]["max_delay_ms"] < 40.0
    # ACL traffic still flows in the 4-slot gaps between HV3 reservations
    assert row["gs"]["throughput_kbps"] > 0
    assert row["be"]["throughput_kbps"] > 0
    assert row["slots"]["sco"] > 0
    # HV3 reserves 2 of every 6 slots
    total = sum(row["slots"][k] for k in ("gs", "be", "sco", "idle"))
    assert row["slots"]["sco"] / total == pytest.approx(1 / 3, abs=0.02)


def test_rejected_gs_flows_are_not_bound_violations():
    """churn_recovery under budget-aware admission rejects every GS flow:
    nothing was admitted, so no bound can read as violated."""
    params = dict(get_experiment("churn_recovery").defaults,
                  burst_start_s=0.25, duration_seconds=0.5)
    params["admission.mode"] = "budget-aware"
    row = run_churn_recovery_point(params, seed=0)[0]
    assert row["admitted"] is False
    assert row["gs"]["bound_violated"] is False
    assert math.isnan(row["gs"]["max_delay_s"])


def test_mixed_sco_gs_requires_disjoint_sco_slaves():
    with pytest.raises(ValueError, match="sco_slaves"):
        figure4_spec(delay_requirement=0.04, sco_slaves=(4,)).compile(1)


def test_be_load_scale_point_scales_offered_load():
    low = run_be_load_scale_point(
        {"delay_requirement": 0.040, "be_load_scale": 0.5,
         "duration_seconds": 1.0}, seed=1)[0]
    high = run_be_load_scale_point(
        {"delay_requirement": 0.040, "be_load_scale": 1.5,
         "duration_seconds": 1.0}, seed=1)[0]
    assert low["admitted"] and high["admitted"]
    assert low["be_load_scale"] == 0.5 and high["be_load_scale"] == 1.5
    # more offered BE load -> more delivered BE throughput (until saturation)
    assert high["be_total_kbps"] > low["be_total_kbps"]
    # the GS flows keep their throughput regardless of the BE load
    assert low["gs_total_kbps"] == pytest.approx(high["gs_total_kbps"],
                                                 rel=0.05)


def test_scenario_pack_sweep_aggregates_nested_metrics():
    result = SweepRunner(max_workers=1).run(
        "mixed_sco_gs",
        overrides={"delay_requirement": [0.044], "duration_seconds": 0.5},
        replications=2, master_seed=0)
    assert len(result.rows) == 1
    row = result.rows[0]
    # nested voice/gs/be/slots dicts arrive flattened with CI bounds
    for key in ("voice_throughput_kbps", "gs_max_delay_s",
                "be_throughput_kbps", "slots_sco"):
        assert key in row["mean"]
        assert key in row["ci"]


def test_cli_smoke_new_scenario_serial_backend(tmp_path):
    """Fast end-to-end orchestrator smoke: new scenario, serial backend."""
    out = tmp_path / "out.json"
    command = [sys.executable, "-m", "repro.experiments", "run",
               "heavy_piconet", "--backend", "serial", "--replications", "1",
               "--no-cache", "--set", "delay_requirement=[0.04]",
               "--set", "duration_seconds=0.5", "--json", str(out)]
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    completed = subprocess.run(command, capture_output=True, text=True,
                               env=env, cwd=str(tmp_path))
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "heavy_piconet"
    assert payload["rows"] and payload["rows"][0]["mean"]["admitted"] is True
