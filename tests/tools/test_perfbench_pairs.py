"""Tests of the claim and no-regression rules of
``tools/perfbench_pairs.py``."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
import perfbench_pairs  # noqa: E402

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def test_clear_gain_on_every_pair_is_improved():
    change = [value * 1.3 for value in PARENT]
    result = perfbench_pairs.verdict(PARENT, change, "higher")
    assert result["wins"] == 10
    assert result["wins_needed"] == 9
    assert result["parent"]["median"] == 100.0
    assert result["parent_iqr"] == pytest.approx(2.5)
    assert result["gap"] == pytest.approx(30.0)
    assert result["improved"]


def test_eight_wins_of_ten_is_not_enough():
    change = [value * 1.3 for value in PARENT]
    change[0] = change[1] = 90.0
    result = perfbench_pairs.verdict(PARENT, change, "higher")
    assert result["wins"] == 8
    assert not result["improved"]


def test_gap_inside_the_parent_iqr_is_not_enough():
    change = [value + 1.0 for value in PARENT]
    result = perfbench_pairs.verdict(PARENT, change, "higher")
    assert result["wins"] == 10
    assert result["gap"] == pytest.approx(1.0)
    assert result["gap"] < result["parent_iqr"]
    assert not result["improved"]


def test_lower_is_better_flips_the_sign():
    faster = [value * 0.7 for value in PARENT]
    assert perfbench_pairs.verdict(PARENT, faster, "lower")["improved"]
    result = perfbench_pairs.verdict(PARENT, faster, "higher")
    assert result["wins"] == 0
    assert result["gap"] < 0
    assert not result["improved"]


def test_mismatched_or_empty_runs_are_rejected():
    with pytest.raises(ValueError, match="same, non-zero number"):
        perfbench_pairs.verdict(PARENT, PARENT[:5], "higher")
    with pytest.raises(ValueError, match="same, non-zero number"):
        perfbench_pairs.verdict([], [], "higher")
    with pytest.raises(ValueError, match="better must be"):
        perfbench_pairs.verdict(PARENT, PARENT, "faster")


# -- the no-regression rule ---------------------------------------------------

def test_change_worse_than_the_bound_is_regressed():
    slower = [value * 0.7 for value in PARENT]
    result = perfbench_pairs.regression(PARENT, slower, "higher", 0.25)
    assert result["worse_by"] == pytest.approx(0.3)
    assert result["status"] == "regressed"


def test_small_steady_loss_inside_the_bound_is_ok():
    slower = [value * 0.95 for value in PARENT]
    result = perfbench_pairs.regression(PARENT, slower, "higher", 0.25)
    assert result["worse_by"] == pytest.approx(0.05)
    assert result["spread"] == pytest.approx(2.5 / 100.0)
    assert result["status"] == "ok"


def test_spread_wider_than_the_bound_is_unresolved_unless_all_runs_better():
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 90.0, 110.0]
    result = perfbench_pairs.regression(PARENT, noisy, "higher", 0.25)
    assert result["spread"] > 0.25
    assert result["status"] == "unresolved"
    # every pair won, but the change's worst run is below the parent's best
    paired_wins = [old + abs(new - 100.0) + 1.0
                   for old, new in zip(PARENT, noisy)]
    assert min(paired_wins) < max(PARENT)
    result = perfbench_pairs.regression(PARENT, paired_wins, "higher", 0.25)
    assert result["status"] == "unresolved"
    all_better = [old + abs(new - 100.0) + 5.0
                  for old, new in zip(PARENT, noisy)]
    assert min(all_better) > max(PARENT)
    result = perfbench_pairs.regression(PARENT, all_better, "higher", 0.25)
    assert result["spread"] > 0.25
    assert result["status"] == "ok"


def test_regression_respects_lower_is_better():
    slower = [value * 1.2 for value in PARENT]
    assert perfbench_pairs.regression(
        PARENT, slower, "lower", 0.1)["status"] == "regressed"
    assert perfbench_pairs.regression(
        PARENT, slower, "lower", 0.25)["status"] == "ok"


def test_regression_needs_a_nonzero_parent_median():
    with pytest.raises(ValueError, match="median is zero"):
        perfbench_pairs.regression([0.0, 0.0], [1.0, 1.0], "lower", 0.1)


def test_main_prints_one_row_per_workload(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "slots_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    speed = {("parent", "fast"): 100.0, ("change", "fast"): 130.0,
             ("parent", "flat"): 100.0, ("change", "flat"): 60.0}
    calls = []

    def fake_run_once(tree, workload, seed, seconds):
        side = Path(tree).name
        calls.append((side, workload))
        return {"slots_per_s": speed[side, workload] + len(calls) % 3,
                "peak_rss_mb": 30.0}

    monkeypatch.setattr(perfbench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(perfbench_pairs.subprocess, "run",
                        lambda *args, **kwargs: None)
    assert perfbench_pairs.main([str(parent), str(change), "--workload",
                                 "fast", "flat", "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # pairs alternate which side runs first, workload by workload
    assert calls[:4] == [("parent", "fast"), ("change", "fast"),
                         ("change", "fast"), ("parent", "fast")]
    assert len(calls) == 12
    rows = lines[-3:-1]  # the per-workload rows, then the JSON summary
    assert [row.split()[0] for row in rows] == ["fast", "flat"]
    assert "slots_per_s +" in rows[0] and "improved" in rows[0]
    assert "regressed" in rows[1]
    summary = json.loads(lines[-1])
    assert sorted(summary["workloads"]) == ["fast", "flat"]
    fast = summary["workloads"]["fast"]["slots_per_s"]
    assert fast["improved"] and fast["regression"]["status"] == "ok"
    flat = summary["workloads"]["flat"]["slots_per_s"]
    assert flat["regression"]["status"] == "regressed"
    assert summary["workloads"]["flat"]["peak_rss_mb"]["regression"][
        "status"] == "ok"


# -- the traced comparison ----------------------------------------------------

def _metrics(**values):
    """``{"value", "unit"}`` metrics the way ``perfbench/run.py`` prints
    them; names ending in ``_calls``/``steps`` are counts."""
    return {name.replace("__", "."): {
        "value": value,
        "unit": "count" if name.endswith(("_calls", "steps")) else (
            "s" if name.endswith("_s") else "ratio")}
        for name, value in values.items()}


def test_trace_table_lists_self_times_and_counts_and_flags_differences():
    parent = _metrics(sim__engine__self_s=0.108, sim__engine__share=0.07,
                      sim__engine__steps=9697,
                      core__pfp__select_calls=6196,
                      trace__wall_s=1.71)
    change = _metrics(sim__engine__self_s=0.041, sim__engine__share=0.03,
                      sim__engine__steps=9697,
                      core__pfp__select_calls=6197,
                      trace__wall_s=1.55)
    lines, differing = perfbench_pairs.trace_table(parent, change)
    assert differing == ["core.pfp.select_calls"]
    # self times and counts only: shares and other seconds are left out
    assert [line.split()[0] for line in lines] == [
        "sim.engine.self_s", "sim.engine.steps", "core.pfp.select_calls"]
    assert lines[0].split()[1:] == ["0.108", "->", "0.041"]
    assert lines[1].split()[1:] == ["9,697", "->", "9,697"]
    assert lines[2].endswith("COUNT DIFFERS")
    assert not lines[1].endswith("COUNT DIFFERS")


def test_trace_table_flags_a_count_on_one_side_only():
    parent = _metrics(traffic__arrivals_calls=10)
    change = _metrics(traffic__arrivals_calls=10, extra_calls=3)
    lines, differing = perfbench_pairs.trace_table(parent, change)
    assert differing == ["extra_calls"]
    assert lines[-1].split()[1:4] == ["-", "->", "3"]


def test_main_with_trace_prints_the_traced_table(tmp_path, monkeypatch,
                                                  capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "slots_per_s", "better": "higher", "bound": 0.25}]}))
    monkeypatch.setattr(perfbench_pairs, "run_once",
                        lambda tree, *args: {"slots_per_s": 100.0})
    traced = []

    def fake_run_traced(tree, workload, seed, seconds):
        traced.append((Path(tree).name, workload, seed))
        steps = 5 if Path(tree).name == "parent" else 6
        return _metrics(sim__engine__self_s=0.5, sim__engine__steps=steps)

    monkeypatch.setattr(perfbench_pairs, "run_traced", fake_run_traced)
    monkeypatch.setattr(perfbench_pairs.subprocess, "run",
                        lambda *args, **kwargs: None)
    assert perfbench_pairs.main([str(parent), str(change), "--workload",
                                 "w", "--pairs", "1", "--seed", "3",
                                 "--trace"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert traced == [("parent", "w", 3), ("change", "w", 3)]
    assert "w traced (seed 3): parent -> change" in lines
    assert any(line.startswith("sim.engine.steps")
               and line.endswith("COUNT DIFFERS") for line in lines)
    summary = json.loads(lines[-1])
    assert summary["differing_counts"] == {"w": ["sim.engine.steps"]}
