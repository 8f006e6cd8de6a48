"""Tests of flow specifications, higher-layer packets and flow queues."""

import pytest

from repro.piconet import BE, DOWNLINK, FlowQueue, FlowSpec, GS, HLPacket, UPLINK


def make_spec(**overrides):
    defaults = dict(flow_id=1, slave=1, direction=UPLINK, traffic_class=GS)
    defaults.update(overrides)
    return FlowSpec(**defaults)


def test_flow_spec_validation():
    with pytest.raises(ValueError):
        make_spec(direction="sideways")
    with pytest.raises(ValueError):
        make_spec(traffic_class="bulk")
    with pytest.raises(ValueError):
        make_spec(slave=8)
    with pytest.raises(ValueError):
        make_spec(allowed_types=())


def test_flow_spec_default_name_and_predicates():
    spec = make_spec(flow_id=3, direction=DOWNLINK, traffic_class=BE)
    assert spec.name == "flow3"
    assert spec.is_downlink and not spec.is_uplink
    assert not spec.is_gs


def test_hl_packet_requires_positive_size():
    with pytest.raises(ValueError):
        HLPacket(flow_id=1, size=0, created=0.0)


def test_queue_rejects_foreign_packets():
    queue = FlowQueue(make_spec(flow_id=1))
    with pytest.raises(ValueError):
        queue.push(HLPacket(flow_id=2, size=100, created=0.0))


def test_queue_accounting():
    queue = FlowQueue(make_spec())
    assert not queue.has_data()
    queue.push(HLPacket(flow_id=1, size=144, created=0.0))
    queue.push(HLPacket(flow_id=1, size=300, created=1.0))
    assert queue.has_data()
    assert queue.offered_packets == 2
    assert queue.offered_bytes == 444
    assert queue.queued_bytes == 444
    assert queue.queued_packets == 2
    assert queue.head_arrival_time() == 0.0


def test_queue_peek_and_confirm_segments():
    queue = FlowQueue(make_spec())
    queue.push(HLPacket(flow_id=1, size=200, created=5.0))
    first = queue.peek_segment()
    assert first is not None and first.segment_index == 0
    # peeking again returns the same segment (ARQ semantics)
    assert queue.peek_segment() is first
    queue.confirm_segment()
    second = queue.peek_segment()
    assert second.segment_index == 1 and second.is_last_segment
    queue.confirm_segment()
    assert queue.peek_segment() is None
    assert not queue.has_data()


def test_queue_confirm_without_peek_raises():
    queue = FlowQueue(make_spec())
    with pytest.raises(RuntimeError):
        queue.confirm_segment()


def test_queue_preserves_fifo_across_packets():
    queue = FlowQueue(make_spec())
    queue.push(HLPacket(flow_id=1, size=50, created=0.0))
    queue.push(HLPacket(flow_id=1, size=60, created=1.0))
    seg1 = queue.peek_segment()
    queue.confirm_segment()
    seg2 = queue.peek_segment()
    queue.confirm_segment()
    assert seg1.hl_packet_size == 50
    assert seg2.hl_packet_size == 60


def test_queued_bytes_counts_partially_sent_packet():
    queue = FlowQueue(make_spec())
    queue.push(HLPacket(flow_id=1, size=300, created=0.0))
    queue.peek_segment()
    queue.confirm_segment()
    # one DH3 segment (183 bytes) has been confirmed; the rest remains queued
    assert queue.queued_bytes == 300 - 183
    assert queue.queued_packets == 1
