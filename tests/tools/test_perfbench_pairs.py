"""Tests of the claim rule in ``tools/perfbench_pairs.py``."""

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
