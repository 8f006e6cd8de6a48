"""Tests of the fixed-interval and variable-interval poll planners."""

import pytest

from repro.core import FixedIntervalPlanner, PlannerConfig, ServedSegment, VariableIntervalPlanner
from repro.piconet.flows import DOWNLINK, UPLINK


def make_config(interval=16.0, rate=9.0, direction=UPLINK):
    return PlannerConfig(flow_id=1, interval=interval, rate=rate,
                         direction=direction)


def served(packet_id=1, last=True, size=144, arrival=None):
    return ServedSegment(hl_packet_id=packet_id, is_last_segment=last,
                         hl_packet_size=size, hl_arrival_time=arrival)


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(1, interval=0, rate=1)
    with pytest.raises(ValueError):
        PlannerConfig(1, interval=1, rate=0)
    with pytest.raises(ValueError):
        PlannerConfig(1, interval=1, rate=1, direction="weird")


def test_fixed_planner_keeps_rigid_spacing():
    planner = FixedIntervalPlanner(make_config(interval=10.0), start_time=0.0)
    assert planner.is_due(0.0)
    planner.record_poll(0.0, served())
    assert planner.next_planned == pytest.approx(10.0)
    # even an unsuccessful, delayed poll does not shift the schedule
    planner.record_poll(13.0, None)
    assert planner.next_planned == pytest.approx(20.0)
    assert planner.unsuccessful_polls == 1


def test_fixed_planner_is_due_ignores_queue_state():
    planner = FixedIntervalPlanner(make_config(direction=DOWNLINK))
    assert planner.is_due(0.0, has_data=False)


def test_variable_planner_unsuccessful_poll_postpones_from_actual_time():
    planner = VariableIntervalPlanner(make_config(interval=10.0), start_time=0.0)
    planner.record_poll(3.0, None)       # executed late, no data
    assert planner.next_planned == pytest.approx(13.0)


def test_variable_planner_unsuccessful_postpone_can_be_disabled():
    planner = VariableIntervalPlanner(make_config(interval=10.0), start_time=0.0,
                                      postpone_after_unsuccessful=False)
    planner.record_poll(3.0, None)
    assert planner.next_planned == pytest.approx(10.0)


def test_variable_planner_packet_size_postpone():
    # interval = eta_min / R = 144/9 = 16; a 176-byte packet postpones the
    # next poll to first_planned + 176/9
    planner = VariableIntervalPlanner(make_config(interval=16.0, rate=9.0),
                                      start_time=0.0)
    planner.record_poll(0.5, served(packet_id=1, last=True, size=176))
    assert planner.next_planned == pytest.approx(176 / 9.0)


def test_variable_planner_minimum_size_packet_reduces_to_fixed_interval():
    # paper consistency remark: for the minimum-efficiency packet size the
    # postponement equals t_i
    planner = VariableIntervalPlanner(make_config(interval=16.0, rate=9.0),
                                      start_time=0.0)
    planner.record_poll(0.0, served(size=144))
    assert planner.next_planned == pytest.approx(144 / 9.0)
    assert planner.next_planned == pytest.approx(planner.interval)


def test_variable_planner_multisegment_packet_paced_at_interval():
    planner = VariableIntervalPlanner(make_config(interval=16.0, rate=9.0),
                                      start_time=0.0)
    planner.record_poll(0.0, served(packet_id=7, last=False, size=288))
    assert planner.next_planned == pytest.approx(16.0)
    planner.record_poll(16.0, served(packet_id=7, last=True, size=288))
    # postponed relative to the first poll of the packet: 288/9 = 32
    assert planner.next_planned == pytest.approx(32.0)


def test_variable_planner_downlink_skip_when_queue_empty():
    planner = VariableIntervalPlanner(make_config(direction=DOWNLINK),
                                      start_time=0.0)
    assert not planner.is_due(100.0, has_data=False)
    assert planner.is_due(100.0, has_data=True)


def test_variable_planner_skip_disabled_still_due():
    planner = VariableIntervalPlanner(make_config(direction=DOWNLINK),
                                      start_time=0.0,
                                      skip_when_no_downlink_data=False)
    assert planner.is_due(100.0, has_data=False)


def test_variable_planner_uplink_never_skips_on_unknown_data():
    planner = VariableIntervalPlanner(make_config(direction=UPLINK), start_time=0.0)
    assert planner.is_due(0.0, has_data=None)
    assert planner.is_due(0.0, has_data=False)


def test_variable_planner_dormant_stream_bases_plan_on_arrival_time():
    # the stream was dormant (planned time stale); a packet arrives at t=50
    # and is served at t=51: the next poll must be planned from the arrival,
    # not from the stale planned time, to preserve the polling cadence
    planner = VariableIntervalPlanner(make_config(interval=16.0, rate=9.0,
                                                  direction=DOWNLINK),
                                      start_time=0.0)
    planner.record_poll(51.0, served(packet_id=3, size=144, arrival=50.0))
    assert planner.next_planned == pytest.approx(50.0 + 16.0)


def test_variable_planner_poll_spacing_never_below_interval_when_busy():
    planner = VariableIntervalPlanner(make_config(interval=16.0, rate=9.0),
                                      start_time=0.0)
    planned_times = [planner.next_planned]
    time = 0.0
    for packet_id in range(1, 30):
        time = max(time, planner.next_planned)
        planner.record_poll(time, served(packet_id=packet_id, size=144))
        planned_times.append(planner.next_planned)
    gaps = [b - a for a, b in zip(planned_times, planned_times[1:])]
    assert all(gap >= planner.interval - 1e-9 for gap in gaps)
