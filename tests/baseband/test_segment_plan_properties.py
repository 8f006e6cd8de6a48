"""Properties of the memoised segment plans and the reassembly fast path.

``SegmentationPolicy.segment`` builds packets from a plan cached per
higher-layer size, and ``Reassembler.push`` completes a single-segment
packet without a partial record.  Both are pure speedups: the packets
must equal a fresh build from ``segment_sizes`` field by field (also when
an adaptive policy flips its type set between calls), and the fast path
must return what the general path returns and raise what it raises.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.baseband.packets import BasebandPacket, get_packet_type
from repro.baseband.segmentation import (
    BestFitSegmentationPolicy,
    ChannelAdaptiveSegmentationPolicy,
    LargestPacketSegmentationPolicy,
    Reassembler,
    SegmentationError,
)

DATA_TYPES = ("DM1", "DH1", "DM3", "DH3", "DM5", "DH5")
TYPE_SETS = [combo for count in range(1, len(DATA_TYPES) + 1)
             for combo in itertools.combinations(DATA_TYPES, count)]

type_sets = st.sampled_from(TYPE_SETS)
sizes = st.one_of(st.integers(1, 2000),
                  st.sampled_from([1, 17, 27, 121, 183, 184, 224, 339, 2000]))


@st.composite
def policies(draw):
    kind = draw(st.sampled_from(["best_fit", "largest", "adaptive"]))
    if kind == "best_fit":
        return BestFitSegmentationPolicy(draw(type_sets))
    if kind == "largest":
        return LargestPacketSegmentationPolicy(draw(type_sets))
    return ChannelAdaptiveSegmentationPolicy(
        fast_types=draw(type_sets), robust_types=draw(type_sets))


def fresh_segments(policy, size, flow_id, hl_packet_id, arrival_time):
    """The packets of ``size`` built straight from ``segment_sizes``
    (never memoised), as field dicts without the packet id."""
    pieces = policy.segment_sizes(size)
    return [dict(ptype=ptype, payload=payload, flow_id=flow_id,
                 hl_packet_id=hl_packet_id, segment_index=index,
                 is_last_segment=index == len(pieces) - 1,
                 hl_packet_size=size, hl_arrival_time=arrival_time)
            for index, (ptype, payload) in enumerate(pieces)]


def fields(packet):
    values = dataclasses.asdict(packet)
    del values["packet_id"]
    values["ptype"] = packet.ptype  # asdict copies the frozen type
    return values


@given(policy=policies(),
       calls=st.lists(st.tuples(sizes, st.booleans()), min_size=1,
                      max_size=12))
@settings(max_examples=200, deadline=None)
def test_cached_segment_equals_a_fresh_build(policy, calls):
    for number, (size, flip) in enumerate(calls):
        if flip and isinstance(policy, ChannelAdaptiveSegmentationPolicy):
            policy.robust_active = not policy.robust_active
        # twice: the first call may fill the cache, the second reads it
        for _ in range(2):
            packets = policy.segment(size, flow_id=number,
                                     hl_packet_id=1000 + number,
                                     arrival_time=number * 625)
            assert [fields(packet) for packet in packets] == fresh_segments(
                policy, size, number, 1000 + number, number * 625)
            ids = [packet.packet_id for packet in packets]
            assert ids == list(range(ids[0], ids[0] + len(ids)))


def test_adaptive_modes_keep_separate_plans():
    policy = ChannelAdaptiveSegmentationPolicy(
        fast_types=("DH1", "DH3"), robust_types=("DM1", "DM3"))
    fast = policy.segment_plan(176)
    policy.robust_active = True
    robust = policy.segment_plan(176)
    assert [entry[0].name for entry in fast] == ["DH3"]
    assert [entry[0].name for entry in robust] == ["DM3", "DM3"]
    policy.robust_active = False
    assert policy.segment_plan(176) is fast


# -- reassembly -------------------------------------------------------------------

def single_segment(payload, size, flow_id=1, hl_packet_id=1,
                   arrival_time=0.0, ptype="DH5"):
    return BasebandPacket(get_packet_type(ptype), payload, flow_id,
                          hl_packet_id, 0, True, size, arrival_time)


def outcome(push, segment):
    """What one push returns, or the error it raises."""
    try:
        return push(segment)
    except SegmentationError as error:
        return ("error", str(error))


@given(payload=st.integers(0, 339), size=st.integers(0, 400),
       flow_id=st.one_of(st.none(), st.integers(1, 12)),
       hl_packet_id=st.one_of(st.none(), st.integers(1, 10**6)),
       arrival_time=st.one_of(st.none(), st.floats(0, 1e7)))
def test_single_segment_fast_path_matches_the_general_path(
        payload, size, flow_id, hl_packet_id, arrival_time):
    segment = single_segment(payload, size, flow_id, hl_packet_id,
                             arrival_time)
    fast, general = Reassembler(), Reassembler()
    assert outcome(fast.push, segment) == outcome(general._push_partial,
                                                  segment)
    assert fast.pending == general.pending == 0


def test_size_mismatch_raises_the_same_error_on_both_paths():
    segment = single_segment(100, 120, flow_id=3, hl_packet_id=9)
    messages = []
    for push in (Reassembler().push, Reassembler()._push_partial):
        with pytest.raises(SegmentationError) as raised:
            push(segment)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == (
        "reassembled 100 bytes for packet (3, 9), expected 120")


def test_out_of_order_segments_raise_the_same_error_on_both_paths():
    policy = BestFitSegmentationPolicy(("DH1", "DH3"))
    first, second = policy.segment(300, flow_id=1, hl_packet_id=4)
    # a first-and-last segment of a packet whose reassembly is under way
    restart = single_segment(27, 27, flow_id=1, hl_packet_id=4, ptype="DH1")
    messages = {}
    for name in ("push", "_push_partial"):
        reassembler = Reassembler()
        assert reassembler.push(first) is None
        with pytest.raises(SegmentationError) as restarted:
            getattr(reassembler, name)(restart)
        # the last segment without its first
        with pytest.raises(SegmentationError) as orphaned:
            getattr(Reassembler(), name)(second)
        messages[name] = (str(restarted.value), str(orphaned.value))
    assert messages["push"] == messages["_push_partial"] == (
        "out-of-order segment 0 for packet (1, 4); expected 1",
        "out-of-order segment 1 for packet (1, 4); expected 0")
