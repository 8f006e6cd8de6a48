"""Tests of segmentation policies and reassembly."""

import pytest

from repro.baseband import (
    BestFitSegmentationPolicy,
    ChannelAdaptiveSegmentationPolicy,
    LinkQualityEstimator,
    Reassembler,
)
from repro.baseband.segmentation import (
    ENTER_ROBUST,
    EXIT_ROBUST,
    MIN_OBSERVATIONS,
    SegmentationError,
)


@pytest.fixture
def paper_policy():
    """The Section-4 policy: DH1 and DH3 allowed, best-fit on the remainder."""
    return BestFitSegmentationPolicy(["DH1", "DH3"])


def test_paper_packet_sizes_use_single_dh3(paper_policy):
    # every GS packet of 144..176 bytes fits in one DH3
    for size in (144, 160, 176):
        pieces = paper_policy.segment_sizes(size)
        assert len(pieces) == 1
        assert pieces[0][0].name == "DH3"
        assert pieces[0][1] == size


def test_small_remainder_goes_to_dh1(paper_policy):
    # 27 bytes fit in a DH1; the policy prefers the smaller packet
    pieces = paper_policy.segment_sizes(27)
    assert [(p.name, n) for p, n in pieces] == [("DH1", 27)]


def test_multi_segment_packet_splits_greedily(paper_policy):
    pieces = paper_policy.segment_sizes(183 + 20)
    assert [(p.name, n) for p, n in pieces] == [("DH3", 183), ("DH1", 20)]


def test_remainder_larger_than_dh1_uses_dh3(paper_policy):
    pieces = paper_policy.segment_sizes(183 + 100)
    assert [(p.name, n) for p, n in pieces] == [("DH3", 183), ("DH3", 100)]


def test_segment_sizes_conserve_bytes(paper_policy):
    for size in (1, 27, 28, 144, 183, 184, 400, 1500):
        pieces = paper_policy.segment_sizes(size)
        assert sum(n for _, n in pieces) == size


def test_zero_size_rejected(paper_policy):
    with pytest.raises(SegmentationError):
        paper_policy.segment_sizes(0)


def test_policy_needs_data_carrying_type():
    with pytest.raises(ValueError):
        BestFitSegmentationPolicy(["POLL"])


def test_segment_builds_packets_with_metadata(paper_policy):
    packets = paper_policy.segment(300, flow_id=7, hl_packet_id=99,
                                   arrival_time=123.0)
    assert len(packets) == 2
    assert packets[0].segment_index == 0 and not packets[0].is_last_segment
    assert packets[1].segment_index == 1 and packets[1].is_last_segment
    assert all(p.flow_id == 7 for p in packets)
    assert all(p.hl_packet_id == 99 for p in packets)
    assert all(p.hl_packet_size == 300 for p in packets)
    assert all(p.hl_arrival_time == 123.0 for p in packets)


def test_reassembler_round_trip(paper_policy):
    reassembler = Reassembler()
    packets = paper_policy.segment(500, flow_id=1, hl_packet_id=5,
                                   arrival_time=1.0)
    results = [reassembler.push(p) for p in packets]
    assert all(r is None for r in results[:-1])
    final = results[-1]
    assert final == {"flow_id": 1, "hl_packet_id": 5, "size": 500,
                     "arrival_time": 1.0}
    assert reassembler.pending == 0


def test_reassembler_interleaves_flows(paper_policy):
    reassembler = Reassembler()
    flow_a = paper_policy.segment(300, flow_id=1, hl_packet_id=1)
    flow_b = paper_policy.segment(300, flow_id=2, hl_packet_id=2)
    assert reassembler.push(flow_a[0]) is None
    assert reassembler.push(flow_b[0]) is None
    assert reassembler.push(flow_a[1])["flow_id"] == 1
    assert reassembler.push(flow_b[1])["flow_id"] == 2


def test_reassembler_detects_out_of_order(paper_policy):
    reassembler = Reassembler()
    packets = paper_policy.segment(400, flow_id=1, hl_packet_id=3)
    with pytest.raises(SegmentationError):
        reassembler.push(packets[1])


def test_max_segment_slots(paper_policy):
    assert paper_policy.max_segment_slots() == 3
    assert BestFitSegmentationPolicy(["DH1"]).max_segment_slots() == 1
    assert BestFitSegmentationPolicy(["DH5", "DH1"]).max_segment_slots() == 5


# ---------------------------------------------------- channel-adaptive policy

def test_link_quality_estimator_ewma():
    est = LinkQualityEstimator(alpha=0.5)
    assert est.loss_estimate == 0.0
    est.observe(True)
    assert est.loss_estimate == pytest.approx(0.5)
    est.observe(False)
    assert est.loss_estimate == pytest.approx(0.25)
    assert est.observations == 2
    with pytest.raises(ValueError):
        LinkQualityEstimator(alpha=0.0)
    with pytest.raises(ValueError):
        LinkQualityEstimator(initial_loss=1.5)


def test_adaptive_policy_starts_fast():
    policy = ChannelAdaptiveSegmentationPolicy()
    assert not policy.robust_active
    # 176 bytes fit a single DH3 in fast mode
    assert [(p.name, n) for p, n in policy.segment_sizes(176)] == \
        [("DH3", 176)]


def test_adaptive_policy_switches_to_fec_types_under_loss():
    policy = ChannelAdaptiveSegmentationPolicy()
    for _ in range(50):
        policy.observe_transmission(error=True)
    assert policy.robust_active
    # the same packet now segments into DM types
    names = [p.name for p, _ in policy.segment_sizes(176)]
    assert names == ["DM3", "DM3"]


def test_adaptive_policy_hysteresis_and_recovery():
    policy = ChannelAdaptiveSegmentationPolicy()
    for _ in range(50):
        policy.observe_transmission(error=True)
    assert policy.robust_active
    # a loss estimate between the thresholds keeps the current mode
    while policy.estimator.loss_estimate > (ENTER_ROBUST + EXIT_ROBUST) / 2:
        policy.observe_transmission(error=False)
    assert policy.robust_active
    # clean air eventually re-enables the fast types
    for _ in range(100):
        policy.observe_transmission(error=False)
    assert not policy.robust_active


def test_adaptive_policy_waits_for_min_observations():
    policy = ChannelAdaptiveSegmentationPolicy()
    for _ in range(MIN_OBSERVATIONS - 1):
        policy.observe_transmission(error=True)
    assert policy.estimator.loss_estimate > ENTER_ROBUST
    assert not policy.robust_active
    policy.observe_transmission(error=True)
    assert policy.robust_active


def test_adaptive_policy_worst_case_slots_covers_both_modes():
    policy = ChannelAdaptiveSegmentationPolicy(fast_types=("DH1",),
                                               robust_types=("DM1", "DM3"))
    assert policy.max_segment_slots() == 3


def test_adaptive_policy_validates_thresholds():
    # the hysteresis band is well formed and the policy waits for data
    assert 0 <= EXIT_ROBUST <= ENTER_ROBUST <= 1
    assert MIN_OBSERVATIONS >= 1
