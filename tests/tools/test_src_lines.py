"""Tests of ``tools/src_lines.py`` on a checked-in fixture source tree."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "src_lines.py"
TREE = Path(__file__).parent / "fixtures" / "src_tree"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import src_lines  # noqa: E402

#: the fixture's ``wc -l`` counts: repro/__init__.py 3, alpha 1 + 6,
#: beta 0 + 3 (leaf.py lacks a final newline, so its 4th line is not
#: counted); NOTES.md is not Python and is skipped
EXPECTED = {"repro": 3, "repro.alpha": 7, "repro.beta": 3}


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True)


def test_counts_lines_per_package_like_wc():
    assert src_lines.count_lines(TREE) == EXPECTED


def test_cli_prints_a_table_then_a_json_summary():
    result = run_tool("--root", str(TREE))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary == {"root": str(TREE), "total": 13, "packages": EXPECTED}
    assert [line.split() for line in lines[:-1]] == [
        ["repro", "3"], ["repro.alpha", "7"], ["repro.beta", "3"],
        ["total", "13"]]


def test_default_root_is_the_repository_src():
    result = run_tool()
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["root"] == str(REPO_ROOT / "src")
    assert "repro.experiments" in summary["packages"]
    assert summary["total"] == sum(summary["packages"].values())


def test_missing_root_is_a_usage_error(tmp_path):
    result = run_tool("--root", str(tmp_path / "nope"))
    assert result.returncode == 2
    assert "not a directory" in result.stderr
