"""Tests of the automated sweep-analysis pass (rules + report + CLI)."""

import json
from pathlib import Path

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.analysis.findings import analyze_payload, format_report

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def payload_with(rows, replications=1):
    return {"experiment": "synthetic", "replications": replications,
            "rows": rows}


# ----------------------------------------------------------------- rules

def test_gs_bound_violation_is_critical():
    report = analyze_payload(payload_with([
        {"point": {"x": 1}, "mean": {"gs_bound_violated": False}},
        {"point": {"x": 2}, "mean": {"gs_bound_violated": True}},
        {"point": {"x": 3}, "mean": {"p1_gs_bound_violated": 0.25}},
    ]))
    violations = [f for f in report.findings
                  if f.rule == "gs_bound_violated"]
    assert [f.row_index for f in violations] == [1, 2]
    assert all(f.severity == "critical" for f in violations)
    assert "25%" in violations[1].message  # replication-split fraction


def test_compliance_cliff_between_adjacent_points():
    rows = [{"point": {"load": load},
             "mean": {"delay_compliance": value, "other": 1.0}}
            for load, value in [(1, 0.99), (2, 0.97), (3, 0.42)]]
    report = analyze_payload(payload_with(rows),
                             rules=["compliance_cliff"])
    (finding,) = report.findings
    assert finding.row_index == 2
    assert finding.metric == "delay_compliance"
    assert "0.97 -> 0.42" in finding.message


def test_starved_flow_against_busy_sibling():
    report = analyze_payload(payload_with([
        {"point": {"x": 1},
         "mean": {"gs_throughput_kbps": 120.0, "be_throughput_kbps": 0.0}},
        {"point": {"x": 2},
         "mean": {"gs_throughput_kbps": 120.0,
                  "be_throughput_kbps": 90.0}},
    ]), rules=["starved_flows"])
    (finding,) = report.findings
    assert finding.row_index == 0
    assert finding.metric == "be_throughput_kbps"


def test_explicit_starved_verdict_is_flagged():
    report = analyze_payload(payload_with([
        {"point": {"x": 1}, "mean": {"flows_starved": True}},
    ]), rules=["starved_flows"])
    assert [f.metric for f in report.findings] == ["flows_starved"]


def test_zero_goodput_is_critical_and_not_double_counted_as_starved():
    rows = [{"point": {"x": 1},
             "mean": {"gs_throughput_kbps": 0.0,
                      "be_throughput_kbps": 0.0}}]
    report = analyze_payload(payload_with(rows))
    assert [f.rule for f in report.findings] == ["zero_goodput"]
    assert report.findings[0].severity == "critical"
    assert report.critical == report.findings


def test_ci_blowup_needs_replications():
    rows = [{"point": {"x": 1}, "mean": {"value": 10.0},
             "ci": {"value": [2.0, 18.0]}}]
    assert not analyze_payload(payload_with(rows, replications=1),
                               rules=["ci_blowup"]).findings
    report = analyze_payload(payload_with(rows, replications=2),
                             rules=["ci_blowup"])
    (finding,) = report.findings
    assert finding.metric == "value"
    assert "80%" in finding.message


def test_clean_sweep_has_no_findings():
    rows = [{"point": {"x": 1},
             "mean": {"gs_throughput_kbps": 100.0,
                      "be_throughput_kbps": 80.0,
                      "delay_compliance": 0.99,
                      "gs_bound_violated": False}}]
    report = analyze_payload(payload_with(rows))
    assert not report.findings
    assert "no anomalies" in format_report(report)


def test_unknown_rule_name_raises():
    with pytest.raises(ValueError, match="unknown analysis rule"):
        analyze_payload(payload_with([]), rules=["no_such_rule"])


# ------------------------------------------------- the acceptance fixture

def test_analyze_flags_the_churn_recovery_bound_violation():
    """The known violated row of churn_recovery must be flagged."""
    payload = json.loads((GOLDEN / "churn_recovery.json").read_text())
    report = analyze_payload(payload)
    rules = {f.rule for f in report.findings}
    assert "gs_bound_violated" in rules
    assert any(f.severity == "critical"
               and f.metric == "gs_bound_violated"
               for f in report.findings)


# -------------------------------------------------------------------- CLI

def test_cli_analyze_from_json(capsys):
    code = experiments_main([
        "analyze", "--from-json",
        str(GOLDEN / "churn_recovery.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "gs_bound_violated" in out
    assert "critical" in out


def test_cli_analyze_strict_exits_nonzero_on_critical(capsys):
    code = experiments_main([
        "analyze", "--strict", "--json", "--from-json",
        str(GOLDEN / "churn_recovery.json")])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "churn_recovery"
    assert any(f["rule"] == "gs_bound_violated"
               for f in payload["findings"])


def test_cli_analyze_without_experiment_or_payload_errors():
    with pytest.raises(SystemExit, match="experiment name"):
        experiments_main(["analyze"])


def test_cli_analyze_runs_a_sweep(tmp_path, capsys):
    code = experiments_main([
        "analyze", "admission_capacity",
        "--cache-dir", str(tmp_path / "store")])
    assert code == 0
    out = capsys.readouterr().out
    assert "admission_capacity" in out
    assert "scanned" in out
