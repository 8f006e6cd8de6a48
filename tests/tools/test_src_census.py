"""Tests of ``tools/src_census.py`` on a checked-in fixture tree."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "src_census.py"
TREE = Path(__file__).parent / "fixtures" / "census_tree"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import src_census  # noqa: E402


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True)


def test_definitions_cover_functions_classes_and_methods():
    found = src_census.definitions(TREE / "src", TREE)
    assert [(d.kind, d.qualname) for d in found
            if d.path == "src/pkg/mod.py"] == [
        ("function", "used"), ("function", "_helper"),
        ("function", "only_tested"), ("function", "by_name"),
        ("function", "unregister"), ("class", "Kept"),
        ("method", "Kept.method"), ("method", "Kept.dead")]


def test_names_only_tests_or_reexports_reach_are_reported():
    found = src_census.census(TREE, allowlist={
        "unregister": "test support", "gone": "no longer defined"})
    assert [d.qualname for d in found["unreferenced"]] == [
        "only_tested", "Kept.dead"]
    assert [d.qualname for d in found["allowlisted"]] == ["unregister"]
    assert found["stale"] == ["gone"]


def test_cli_prints_a_report_then_a_json_summary_and_never_fails():
    result = run_tool("--root", str(TREE))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["unreferenced"] == ["only_tested", "Kept.dead"]
    assert summary["allowlisted"] == ["unregister"]
    assert "src/pkg/mod.py:12  function  only_tested" in result.stdout
    # the repository allowlist's other entries are not defined here
    assert "unregister" not in summary["stale"] and summary["stale"]


def test_default_root_is_the_repository():
    result = run_tool()
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert set(summary) == {"unreferenced", "allowlisted", "stale"}
    assert "kept on purpose" in result.stdout


def test_repository_defines_no_test_only_names():
    """Every name under ``src/`` is reached by the program or allowlisted
    with a reason, and every allowlist entry is still needed."""
    result = run_tool()
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["unreferenced"] == [], result.stdout
    assert summary["stale"] == [], result.stdout


def test_missing_src_is_a_usage_error(tmp_path):
    result = run_tool("--root", str(tmp_path))
    assert result.returncode == 2
    assert "no src/ directory" in result.stderr
