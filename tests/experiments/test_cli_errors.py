"""Error-path tests of the ``python -m repro.experiments`` CLI.

Every malformed invocation must exit nonzero with a clear one-line
message — never a traceback.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import _parse_overrides, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})


# ------------------------------------------------------------- subprocess

def test_unknown_experiment_name_exits_with_known_names():
    result = run_cli("run", "does_not_exist", "--no-cache")
    assert result.returncode != 0
    assert "unknown experiment 'does_not_exist'" in result.stderr
    assert "registered:" in result.stderr
    assert "Traceback" not in result.stderr


def test_invalid_backend_is_rejected_by_argparse():
    result = run_cli("run", "figure5", "--backend", "quantum")
    assert result.returncode != 0
    assert "invalid choice: 'quantum'" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("backend", ["process", "batch"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_pool_backend_with_fewer_than_one_worker_exits_with_message(
        backend, workers):
    result = run_cli("run", "admission_capacity", "--no-cache",
                     "--backend", backend, "--workers", workers)
    assert result.returncode != 0
    assert result.stderr.strip() == (
        f"{backend} backend: max_workers must be >= 1, got {workers}")


def test_malformed_grid_override_exits_with_message():
    result = run_cli("run", "lossy_channel", "--no-cache",
                     "--set", "bit_error_rate=[0.0,1e-3")
    assert result.returncode != 0
    assert "not valid JSON" in result.stderr
    assert "Traceback" not in result.stderr


def test_set_without_value_exits_with_message():
    result = run_cli("run", "figure5", "--no-cache", "--set", "duration")
    assert result.returncode != 0
    assert "expects key=value" in result.stderr
    assert "Traceback" not in result.stderr


def test_wrongly_typed_override_exits_without_traceback():
    result = run_cli("run", "figure5", "--no-cache",
                     "--set", "duration_seconds=fast")
    assert result.returncode != 0
    assert "Traceback" not in result.stderr
    assert result.stderr.strip()  # some explanation is printed


def test_unknown_regen_golden_experiment_exits_with_known_names():
    result = run_cli("regen-golden", "does_not_exist")
    assert result.returncode != 0
    assert "unknown experiment 'does_not_exist'" in result.stderr
    assert "Traceback" not in result.stderr


# ------------------------------------------------------------ describe

def test_describe_unknown_experiment_exits_with_known_names():
    result = run_cli("describe", "does_not_exist")
    assert result.returncode != 0
    assert "unknown experiment 'does_not_exist'" in result.stderr
    assert "Traceback" not in result.stderr


def test_describe_prints_grid_defaults_and_resolved_spec(capsys):
    from repro.experiments.__main__ import _cmd_describe
    import argparse

    assert _cmd_describe(argparse.Namespace(
        experiment="figure5", set=["channel.ber=1e-4",
                                   "channel.model=iid"])) == 0
    out = capsys.readouterr().out
    assert "figure5:" in out
    assert "delay_requirement" in out       # the grid axis
    assert "duration_seconds" in out        # a default
    assert '"ber": 0.0001' in out           # the override reached the spec
    assert '"model": "iid"' in out


def test_describe_analytic_experiment_reports_no_scenario(capsys):
    from repro.experiments.__main__ import _cmd_describe
    import argparse

    assert _cmd_describe(argparse.Namespace(
        experiment="admission_capacity", set=[])) == 0
    out = capsys.readouterr().out
    assert "analytic experiment" in out
    assert "link budgets" not in out  # no spec, no budget table


def test_describe_prints_link_budget_table_respecting_set(capsys):
    from repro.experiments.__main__ import _cmd_describe
    import argparse

    assert _cmd_describe(argparse.Namespace(
        experiment="bridge_residency_admission",
        set=["bridge_share=[0.3]"])) == 0
    out = capsys.readouterr().out
    assert "link budgets (effective capacity per GS link)" in out
    # the bridge slave's residency share and absence window resolved
    # from the --set share (0.3 of a 48-slot period, 2 guard slots)
    assert "0.2500" in out
    assert "22.50 ms" in out


def test_describe_without_gs_flows_reports_empty_budget_table(capsys):
    from repro.experiments.__main__ import _cmd_describe
    import argparse

    assert _cmd_describe(argparse.Namespace(
        experiment="crowded_room", set=["piconets=[2]"])) == 0
    assert "(no GS-managed flows)" in capsys.readouterr().out


def test_describe_dotted_set_on_analytic_experiment_exits_with_message():
    result = run_cli("describe", "admission_capacity",
                     "--set", "admission.mode=budget-aware")
    assert result.returncode != 0
    assert "no scenario spec" in result.stderr
    assert "Traceback" not in result.stderr


# --------------------------------------------------- dotted --set overrides

def test_dotted_set_on_analytic_experiment_exits_with_message():
    result = run_cli("run", "admission_capacity", "--no-cache",
                     "--set", "channel.ber=1e-4")
    assert result.returncode != 0
    assert "no scenario spec" in result.stderr
    assert "Traceback" not in result.stderr


def test_dotted_set_unknown_spec_path_exits_with_message():
    result = run_cli("run", "figure5", "--no-cache",
                     "--set", "channel.nope=1")
    assert result.returncode != 0
    assert "has no field 'nope'" in result.stderr
    assert "Traceback" not in result.stderr


def test_describe_dotted_set_bad_value_exits_with_message():
    result = run_cli("describe", "figure5", "--set", "channel.ber=fast")
    assert result.returncode != 0
    assert "expected a number" in result.stderr
    assert "Traceback" not in result.stderr


def test_describe_fractional_size_bound_exits_with_one_line():
    # the size bound is decoded against its declared int type at --set
    # time, not accepted here and left to fail inside compile
    result = run_cli("describe", "figure5",
                     "--set", "flows.3.size=[[100, 200.5]]")
    assert result.returncode != 0
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and "expected an integer" in lines[0]


def test_describe_with_emptied_grid_axis_reports_cleanly():
    result = run_cli("describe", "figure5", "--set", "delay_requirement=[]")
    assert result.returncode == 0
    assert "points: 0" in result.stdout
    assert "emptied a grid axis" in result.stdout
    assert "Traceback" not in result.stderr


def test_axis_clobbering_overrides_are_rejected():
    from repro.experiments.bandwidth_savings import run_point as bw_point
    from repro.experiments.baseline_comparison import run_point as bl_point
    from repro.experiments.improvement_ablation import run_point as abl_point

    with pytest.raises(ValueError, match="fixed-vs-variable"):
        bw_point({"delay_requirement": 0.04,
                  "improvements.variable_interval": True}, 0)
    with pytest.raises(ValueError, match="poller axis"):
        bl_point({"poller": "fep", "poller.kind": "pfp"}, 0)
    with pytest.raises(ValueError, match="configuration axis"):
        abl_point({"configuration": "fixed interval",
                   "improvements.skip_when_no_downlink_data": True}, 0)


def test_programmatic_dotted_override_on_analytic_experiment_raises():
    from repro.experiments.orchestrator import SweepRunner

    with pytest.raises(ValueError, match="no scenario spec"):
        SweepRunner(backend="serial").run(
            "admission_capacity", overrides={"channel.ber": 1e-4})


def test_axis_clobbering_guard_covers_channel_and_bridge_packs():
    from repro.experiments.lossy_channel import scenario_spec as lossy
    from repro.experiments.channel_packs import bridge_split_point_spec

    with pytest.raises(ValueError, match="bit_error_rate axis"):
        lossy({"bit_error_rate": 1e-4, "channel.ber": 1e-3})
    with pytest.raises(ValueError, match="bridge_share axis"):
        bridge_split_point_spec({"bridge_share": 0.5,
                                 "bridges.0.share_a": 0.9})


def test_malformed_structured_dotted_set_exits_without_traceback():
    result = run_cli("run", "figure5", "--no-cache",
                     "--set", "piconets.0.flows=[[1,2]]")
    assert result.returncode != 0
    assert "Traceback" not in result.stderr
    assert "FlowSpec mappings" in result.stderr


def test_dotted_set_list_value_becomes_extra_sweep_axis():
    from repro.experiments.registry import get_experiment

    points = get_experiment("figure5").points(
        {"delay_requirement": [0.04], "channel.ber": [1e-4, 1e-3],
         "channel.model": "iid"})
    assert len(points) == 2
    assert [p["channel.ber"] for p in points] == [1e-4, 1e-3]
    assert all(p["channel.model"] == "iid" for p in points)


# ----------------------------------------------------- in-process parsing

def test_parse_overrides_accepts_json_and_strings():
    overrides = _parse_overrides(
        ["a=1", "b=[1,2]", "c=text", "d=1e-3", "e=true"])
    assert overrides == {"a": 1, "b": [1, 2], "c": "text", "d": 1e-3,
                         "e": True}


@pytest.mark.parametrize("assignment,message", [
    ("x=[1,", "not valid JSON"),
    ("x={'a': 1", "not valid JSON"),
    ("x=", "missing a value"),
    ("novalue", "expects key=value"),
    ("=5", "expects key=value"),
])
def test_parse_overrides_rejects_malformed_assignments(assignment, message):
    with pytest.raises(SystemExit, match=message):
        _parse_overrides([assignment])


def test_main_translates_registry_keyerror_to_systemexit():
    with pytest.raises(SystemExit, match="unknown experiment"):
        main(["run", "nope", "--no-cache"])


# ------------------------------------------------------ per-flow GS bounds

@pytest.mark.parametrize("experiment, point", [
    ("bursty_channel", "bad_dwell_slots=5"),
    ("link_quality_mix", "base_bit_error_rate=1e-4"),
    ("churn_recovery", "burst_start_s=0.25"),
])
def test_gs_flows_with_differing_bounds_run_cleanly(experiment, point,
                                                    capsys):
    """One GS flow's bound overridden: every flow is judged against its
    own bound instead of a piconet-wide one that no longer exists."""
    code = main(["run", experiment, "--no-cache", "--set", point,
                 "--set", "duration_seconds=0.5",
                 "--set", "flows.0.delay_bound=0.03"])
    assert code == 0
    assert "gs_bound_violated" in capsys.readouterr().out
