"""Tests of the sample monitor and seeded random streams."""

import math

import pytest

from repro.analysis.stats import summarize
from repro.sim import Monitor, RandomStreams


def test_monitor_summary_statistics():
    monitor = Monitor("delays")
    for value in (4, 1, 3, 2):
        monitor.record(value)
    assert monitor.count == 4
    assert monitor.mean == pytest.approx(2.5)
    assert monitor.minimum == 1.0
    assert monitor.maximum == 4.0
    assert monitor.percentile(50) == pytest.approx(2.5)
    assert monitor.percentile(0) == 1.0
    assert monitor.percentile(100) == 4.0


def test_monitor_empty_statistics_are_nan():
    monitor = Monitor()
    assert math.isnan(monitor.mean)
    assert math.isnan(monitor.maximum)
    assert math.isnan(monitor.percentile(50))


def test_monitor_percentile_bounds_checked():
    monitor = Monitor()
    monitor.record(1.0)
    with pytest.raises(ValueError):
        monitor.percentile(150)


def test_monitor_percentiles_match_summarize():
    samples = [0.3, 1.7, 0.1, 2.9, 0.8, 1.1, 0.05]
    monitor = Monitor()
    for value in samples:
        monitor.record(value)
    stats = summarize(samples)
    for q in (50, 95, 99):
        assert monitor.percentile(q) == stats[f"p{q}"]


def test_random_streams_are_deterministic():
    a = RandomStreams(7).stream("source-1")
    b = RandomStreams(7).stream("source-1")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_random_streams_differ_by_name_and_seed():
    streams = RandomStreams(7)
    first = [streams.stream("a").random() for _ in range(5)]
    second = [streams.stream("b").random() for _ in range(5)]
    assert first != second
    other_seed = [RandomStreams(8).stream("a").random() for _ in range(5)]
    assert first != other_seed


def test_random_streams_independent_of_creation_order():
    forward = RandomStreams(3)
    backward = RandomStreams(3)
    forward.stream("x")
    value_forward = forward.stream("y").random()
    value_backward = backward.stream("y").random()
    assert value_forward == value_backward
