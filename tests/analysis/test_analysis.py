"""Tests of the statistics and reporting helpers."""

import math

import pytest

from repro.analysis import (
    confidence_interval,
    format_table,
    summarize,
    z_value,
)


def test_summarize_basic_statistics():
    stats = summarize([1, 2, 3, 4, 5])
    assert stats["count"] == 5
    assert stats["mean"] == pytest.approx(3.0)
    assert stats["min"] == 1 and stats["max"] == 5
    assert stats["p50"] == pytest.approx(3.0)


def test_summarize_empty_returns_nans():
    stats = summarize([])
    assert stats["count"] == 0
    assert math.isnan(stats["mean"])


def test_confidence_interval_contains_mean_and_shrinks_with_n():
    small = confidence_interval([1, 2, 3, 4, 5] * 4)
    large = confidence_interval([1, 2, 3, 4, 5] * 400)
    assert small[0] < 3.0 < small[1]
    assert (large[1] - large[0]) < (small[1] - small[0])
    with pytest.raises(ValueError):
        confidence_interval([1.0], level=1.5)


def test_z_value_standard_levels_use_table_values():
    assert z_value(0.90) == pytest.approx(1.645)
    assert z_value(0.95) == pytest.approx(1.960)
    assert z_value(0.99) == pytest.approx(2.576)


def test_z_value_nonstandard_levels_computed_not_mislabelled():
    # regression: any unsupported level silently fell back to z=1.96,
    # labelling e.g. an 80% interval as if it were 95%
    assert z_value(0.80) == pytest.approx(1.2816, abs=1e-3)
    assert z_value(0.999) == pytest.approx(3.2905, abs=1e-3)
    for level in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            z_value(level)


def test_confidence_interval_widens_with_level():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0] * 10
    narrow = confidence_interval(samples, level=0.80)
    default = confidence_interval(samples, level=0.95)
    wide = confidence_interval(samples, level=0.999)
    assert (narrow[1] - narrow[0]) < (default[1] - default[0])
    assert (default[1] - default[0]) < (wide[1] - wide[0])


def test_format_table_alignment_and_content():
    text = format_table(["name", "value"], [["alpha", 1.5], ["b", 22.25]],
                        float_format=".1f", title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert any("alpha" in line and "1.5" in line for line in lines)
    assert any("22.2" in line for line in lines)


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_format_table_renders_booleans():
    text = format_table(["ok"], [[True], [False]])
    assert "yes" in text and "no" in text
