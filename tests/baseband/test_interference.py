"""Tests of the inter-piconet interference subsystem."""

import random

import pytest

from repro.baseband.channel import (
    TX_NOT_RECEIVED,
    TX_OK,
    TX_PAYLOAD_CORRUPT,
    ChannelMap,
    GilbertElliottChannel,
    IdealChannel,
    LossyChannel,
)
from repro.baseband.interference import (
    HOP_CHANNELS,
    OCCUPANCY_BLOCK_SLOTS,
    HopSequence,
    InterfererProcess,
    InterferenceAwareChannel,
    InterferenceField,
    interference_channel_map,
)
from repro.baseband.packets import BasebandPacket, get_packet_type
from repro.sim.rng import RandomStreams


def dh3_packet(payload=183):
    return BasebandPacket(ptype=get_packet_type("DH3"), payload=payload)


def dh1_packet(payload=27):
    return BasebandPacket(ptype=get_packet_type("DH1"), payload=payload)


# ------------------------------------------------------------ hop sequence

def test_hop_sequence_is_random_access_deterministic():
    forward = HopSequence(random.Random(42))
    backward = HopSequence(random.Random(42))
    slots = list(range(200))
    expected = [forward.channel_at(s) for s in slots]
    # querying in reverse (and repeatedly) yields the same channels
    assert [backward.channel_at(s) for s in reversed(slots)] \
        == list(reversed(expected))
    assert [forward.channel_at(s) for s in slots] == expected
    assert all(0 <= c < HOP_CHANNELS for c in expected)
    with pytest.raises(ValueError):
        forward.channel_at(-1)


def test_hop_sequence_covers_the_band():
    hops = HopSequence(random.Random(1))
    seen = {hops.channel_at(s) for s in range(4000)}
    assert len(seen) == HOP_CHANNELS


# ------------------------------------------------------------- interferer

def test_interferer_duty_cycle_bounds_and_activity():
    rng = random.Random(3)
    silent = InterfererProcess("s", HopSequence(rng), random.Random(5),
                               duty_cycle=0.0)
    assert not any(silent.active_at(s) for s in range(100))
    saturated = InterfererProcess("x", HopSequence(rng), random.Random(5),
                                  duty_cycle=1.0)
    assert all(saturated.active_at(s) for s in range(100))
    with pytest.raises(ValueError):
        InterfererProcess("bad", HopSequence(rng), random.Random(1),
                          duty_cycle=1.5)


# ------------------------------------------------------------------ field

def test_field_collision_rate_matches_one_in_79():
    field = InterferenceField(streams=7)
    field.register("victim")
    field.register("other", duty_cycle=1.0)
    horizon = 40_000
    count = field.count_collisions("victim", horizon)
    rate = count / horizon
    assert abs(rate - 1.0 / HOP_CHANNELS) < 0.003
    assert field.expected_collision_probability("victim") == \
        pytest.approx(1.0 / HOP_CHANNELS)


def test_field_membership_errors():
    field = InterferenceField()
    field.register("a")
    with pytest.raises(ValueError, match="already registered"):
        field.register("a")
    with pytest.raises(KeyError, match="unknown piconet"):
        field.collisions("nope", 0)


def test_field_collision_ber_scales_with_colliders_and_caps():
    field = InterferenceField(streams=1, ber_per_collision=0.2)
    field.register("victim")
    for index in range(9):
        field.register(f"i{index}", duty_cycle=1.0)
    bers = {field.collision_ber("victim", slot) for slot in range(2000)}
    assert 0.0 in bers
    assert all(b in (0.0, 0.2, 0.4, 0.5) for b in bers)


def test_field_reproducible_for_a_given_stream_seed():
    sequences = []
    for _ in range(2):
        field = InterferenceField(streams=RandomStreams(9).child("intf"))
        field.register("victim")
        field.register("other", duty_cycle=0.5)
        sequences.append([field.collisions("victim", s) for s in range(500)])
    assert sequences[0] == sequences[1]


# ---------------------------------------------------- interference channel

def test_interference_channel_ideal_base_loses_only_on_collisions():
    field = InterferenceField(streams=11, ber_per_collision=0.5)
    field.register("victim")
    field.register("other", duty_cycle=1.0)
    channel = InterferenceAwareChannel(IdealChannel(), field, "victim",
                                       rng=random.Random(2))
    packet = dh1_packet()
    failures = sum(
        0 if channel.transmit(packet, now_us=slot * 625).ok else 1
        for slot in range(20_000))
    # DH1 spans one slot: failures can only happen in collision slots
    assert failures > 0
    assert failures <= field.count_collisions("victim", 20_000)
    assert channel.interference_failures == failures


def test_interference_channel_composes_with_base_losses():
    def build(base):
        field = InterferenceField(streams=13)
        field.register("victim")
        field.register("other", duty_cycle=1.0)
        return InterferenceAwareChannel(base, field, "victim",
                                        rng=random.Random(4))

    packet = dh3_packet()
    lossy = build(LossyChannel(bit_error_rate=1e-3,
                               rng=random.Random(9)))
    ideal = build(IdealChannel())
    trials = 4000
    lossy_fails = sum(
        0 if lossy.transmit(packet, now_us=s * 6 * 625).ok else 1
        for s in range(trials))
    ideal_fails = sum(
        0 if ideal.transmit(packet, now_us=s * 6 * 625).ok else 1
        for s in range(trials))
    # the base channel's losses stack on top of the interference losses
    assert lossy_fails > ideal_fails


def test_interference_sampling_independent_of_base_model():
    """Swapping the base model must not perturb the interference draws."""

    def interference_losses(base):
        field = InterferenceField(streams=21, ber_per_collision=0.5)
        field.register("victim")
        field.register("other", duty_cycle=1.0)
        channel = InterferenceAwareChannel(base, field, "victim",
                                           rng=random.Random(6))
        packet = dh1_packet()
        losses = []
        for slot in range(10_000):
            before = channel.interference_failures
            channel.transmit(packet, now_us=slot * 625)
            losses.append(channel.interference_failures - before)
        return losses

    ideal = interference_losses(IdealChannel())
    bursty = interference_losses(
        GilbertElliottChannel(p_gb=0.05, p_bg=0.1, per_good=0.0,
                              per_bad=0.2, rng=random.Random(8)))
    # interference_failures only counts base-survivors, so compare the
    # slots where interference struck at all: a base failure in the same
    # slot hides the interference loss from the counter but never moves it
    struck_ideal = [i for i, loss in enumerate(ideal) if loss]
    struck_bursty = [i for i, loss in enumerate(bursty) if loss]
    assert set(struck_bursty) <= set(struck_ideal)


def test_interference_channel_error_probabilities_include_expected_boost():
    field = InterferenceField(streams=5)
    field.register("victim")
    field.register("other", duty_cycle=1.0)
    channel = InterferenceAwareChannel(IdealChannel(), field, "victim")
    probabilities = channel.error_probabilities(dh3_packet())
    assert probabilities.any > 0.0
    # a second, silent neighbour adds nothing
    field.register("silent", duty_cycle=0.0)
    assert channel.error_probabilities(dh3_packet()).any == \
        pytest.approx(probabilities.any)


def test_interference_channel_requires_registered_victim():
    field = InterferenceField()
    with pytest.raises(KeyError, match="unknown piconet"):
        InterferenceAwareChannel(IdealChannel(), field, "ghost")


def test_interference_channel_map_wraps_every_link():
    field = InterferenceField(streams=3)
    field.register("victim")
    field.register("other")
    cmap = interference_channel_map(field, "victim",
                                    streams=RandomStreams(2).child("cm"))
    assert isinstance(cmap, ChannelMap)
    dl = cmap.channel_for(1, "DL")
    ul = cmap.channel_for(1, "UL")
    assert isinstance(dl, InterferenceAwareChannel)
    assert dl is not ul
    assert isinstance(dl.base, IdealChannel)
    lossy_map = interference_channel_map(
        field, "victim",
        base_factory=lambda link, rng: LossyChannel(bit_error_rate=1e-4,
                                                    rng=rng),
        streams=RandomStreams(2).child("cm"))
    assert isinstance(lossy_map.channel_for(2, "DL").base, LossyChannel)


# ----------------------------------------------- occupancy index / coupling

def test_hop_sequence_block_extension_matches_per_slot_draws():
    seeded = lambda: random.Random(99)  # noqa: E731
    one_at_a_time = HopSequence(seeded())
    per_slot = [one_at_a_time.channel_at(slot) for slot in range(500)]
    blocked = HopSequence(seeded())
    blocked.extend_to(500)
    assert list(blocked.channels_until(500)) == per_slot
    # block extension is idempotent and never truncates
    blocked.extend_to(100)
    assert list(blocked.channels_until(500)) == per_slot


def test_occupancy_index_survives_late_registration():
    def build(probe_early):
        field = InterferenceField(streams=21)
        field.register("victim")
        field.register("a", duty_cycle=0.8)
        if probe_early:  # force index + cache builds before "b" exists
            field.count_collisions("victim", 300)
        field.register("b", duty_cycle=0.6)
        return [field.collisions("victim", slot) for slot in range(300)]

    assert build(probe_early=True) == build(probe_early=False)


def test_count_collisions_zero_horizon_skips_membership_check():
    field = InterferenceField()
    assert field.count_collisions("nobody", 0) == 0
    with pytest.raises(KeyError, match="unknown piconet"):
        field.count_collisions("nobody", 1)


def test_coupled_member_is_silent_until_reported():
    field = InterferenceField(streams=11)
    field.register_coupled("p1")
    field.register_coupled("p2")
    assert field.count_collisions("p1", 1000) == 0
    field.report_transmission("p2", 0, 1000)
    assert field.count_collisions("p1", 1000) > 0
    # reporting is idempotent: repeating a span changes nothing
    before = field.count_collisions("p1", 1000)
    field.report_transmission("p2", 100, 200)
    assert field.count_collisions("p1", 1000) == before


def test_mean_collision_ber_validation_names_its_arguments():
    field = InterferenceField(streams=11)
    field.register("victim")
    with pytest.raises(ValueError, match="start_slot must be >= 0"):
        field.mean_collision_ber("victim", -1, 1)
    with pytest.raises(ValueError, match="slots must be >= 1"):
        field.mean_collision_ber("victim", 0, 0)


@pytest.mark.parametrize("channels", [0, 256, 1000])
def test_channel_counts_outside_one_byte_are_rejected(channels):
    message = r"channels must be within \[1, 255\], got "
    with pytest.raises(ValueError, match=message):
        HopSequence(random.Random(0), channels=channels)
    with pytest.raises(ValueError, match=message):
        InterferenceField(streams=1, channels=channels)


def test_widest_byte_channel_count_is_accepted():
    field = InterferenceField(streams=1, channels=255)
    field.register("victim")
    field.register("other")
    hops = field.member("victim").hops
    assert all(0 <= hops.channel_at(slot) < 255 for slot in range(2000))
    assert field.count_collisions("victim", 2000) \
        == sum(field.collisions_pairwise("victim", slot)
               for slot in range(2000))


def test_coupled_report_validation():
    field = InterferenceField(streams=11)
    field.register("duty", duty_cycle=1.0)
    field.register_coupled("coupled")
    with pytest.raises(TypeError, match="duty-cycle interferer"):
        field.report_transmission("duty", 0, 1)
    with pytest.raises(KeyError, match="unknown piconet"):
        field.report_transmission("ghost", 0, 1)
    with pytest.raises(ValueError, match="start_slot"):
        field.report_transmission("coupled", -1, 1)
    with pytest.raises(ValueError, match="slots"):
        field.report_transmission("coupled", 0, 0)


def test_recorder_reports_on_the_slot_grid():
    field = InterferenceField(streams=15)
    field.register_coupled("p1")
    field.register_coupled("p2")
    record = field.recorder("p2")
    record(4 * 625, 2)  # 4 slots in, 2 slots long
    peer = field.member("p2")
    assert [peer.active_at(slot) for slot in range(8)] \
        == [False] * 4 + [True, True] + [False] * 2
    with pytest.raises(KeyError, match="unknown piconet"):
        field.recorder("ghost")


def test_activity_and_observed_collision_fractions():
    field = InterferenceField(streams=17)
    field.register_coupled("p1")
    field.register_coupled("p2")
    field.report_transmission("p2", 0, 500)
    assert field.activity_fraction("p2", 1000) == pytest.approx(0.5)
    assert field.activity_fraction("p1", 1000) == 0.0
    observed = field.observed_collision_fraction("p1", 500)
    assert observed == pytest.approx(1.0 / HOP_CHANNELS, rel=0.8)
    assert field.observed_collision_fraction("p1", 0) == 0.0


# ------------------------------------------------- interferer on/off switches

def _switched_pair(seed=21):
    """Two identically seeded fields: one always-on, one to be switched."""
    fields = []
    for _ in range(2):
        field = InterferenceField(streams=seed)
        field.register("victim")
        field.register("other", duty_cycle=1.0)
        fields.append(field)
    return fields


def test_interferer_switch_masks_without_redrawing():
    always_on, switched = _switched_pair()
    baseline = [always_on.collisions("victim", s) for s in range(600)]
    switched.set_interferer_enabled("other", 200, False)
    switched.set_interferer_enabled("other", 400, True)
    masked = [switched.collisions("victim", s) for s in range(600)]
    # off-window silent; outside it the raw draws are untouched, so the
    # pattern is identical to the always-on field slot for slot
    assert masked[:200] == baseline[:200]
    assert masked[200:400] == [0] * 200
    assert masked[400:] == baseline[400:]


def test_interferer_switch_invalidates_prebuilt_caches():
    always_on, switched = _switched_pair()
    # build the occupancy index past the switch point first
    assert switched.count_collisions("victim", 600) \
        == always_on.count_collisions("victim", 600)
    switched.set_interferer_enabled("other", 200, False)
    rebuilt = [switched.collisions("victim", s) for s in range(600)]
    assert rebuilt[200:] == [0] * 400
    assert rebuilt[:200] == [always_on.collisions("victim", s)
                             for s in range(200)]


def test_interferer_switches_must_not_move_backwards():
    _, field = _switched_pair()
    field.set_interferer_enabled("other", 300, False)
    with pytest.raises(ValueError, match="non-decreasing"):
        field.member("other").set_enabled(100, True)
    # an equal-slot switch replaces the breakpoint instead
    field.set_interferer_enabled("other", 300, True)
    assert field.member("other").enabled_at(300)


def test_interferer_switch_rejects_coupled_members():
    field = InterferenceField(streams=23)
    field.register_coupled("p1")
    with pytest.raises(TypeError, match="coupled"):
        field.set_interferer_enabled("p1", 0, False)


def test_masked_activity_slices_match_the_per_slot_switch_reference():
    member = InterfererProcess("m", HopSequence(random.Random(1)),
                               random.Random(2), duty_cycle=0.7)
    # three switches inside the first block; the masked view is built in
    # two steps so the second starts mid-interval
    for slot, enabled in ((40, False), (90, True), (150, False)):
        member.set_enabled(slot, enabled)
    member.activity_until(60)
    masked = member.activity_until(OCCUPANCY_BLOCK_SLOTS)
    raw = member._activity
    assert list(masked[:OCCUPANCY_BLOCK_SLOTS]) == [
        raw[slot] if member.enabled_at(slot) else 0
        for slot in range(OCCUPANCY_BLOCK_SLOTS)]
    assert any(raw[:40]) and any(raw[90:150])


# -------------------------------------------- bulk counts / reported air

def test_only_reported_air_allocates_occupancy_cells():
    def duty_field():
        field = InterferenceField(streams=5)
        for name, duty in (("victim", 1.0), ("a", 0.6), ("b", 0.5),
                           ("c", 0.4)):
            field.register(name, duty_cycle=duty)
        return field

    duty_only = duty_field()
    assert duty_only.count_collisions("victim", 1000) > 0
    duty_only.mean_collision_ber("victim", 995, 5)
    assert len(duty_only._occ) == 0

    mixed = duty_field()
    mixed.register_coupled("peer")
    mixed.count_collisions("victim", 1000)
    assert len(mixed._occ) >= 1000 * mixed.channels

    # a field without duty-cycle members keeps no bulk counts at all
    coupled_only = InterferenceField(streams=5)
    coupled_only.register_coupled("p1")
    coupled_only.register_coupled("p2")
    coupled_only.report_transmission("p2", 0, 500)
    assert coupled_only.count_collisions("p1", 1000) > 0
    assert coupled_only._duty_counts == {}


def _interference_aware(base):
    field = InterferenceField(streams=8, ber_per_collision=0.002)
    field.register("victim")
    for index in range(6):
        field.register(f"i{index}", duty_cycle=1.0)
    return InterferenceAwareChannel(base=base, field=field,
                                    piconet="victim",
                                    rng=random.Random(9))


@pytest.mark.parametrize("make", [
    IdealChannel,
    lambda: LossyChannel(bit_error_rate=2e-3, rng=random.Random(1)),
    lambda: LossyChannel(packet_error_rate=0.3, rng=random.Random(1)),
    lambda: GilbertElliottChannel(p_gb=0.2, p_bg=0.2, ber_bad=5e-3,
                                  rng=random.Random(1)),
    lambda: _interference_aware(None),
    lambda: _interference_aware(GilbertElliottChannel(
        p_gb=0.2, p_bg=0.2, ber_bad=5e-3, rng=random.Random(1))),
], ids=["ideal", "iid-ber", "iid-per", "gilbert", "interference",
        "interference-gilbert"])
def test_transmit_returns_one_of_the_three_singletons(make):
    """The piconet and the interference wrapper compare results by
    identity, so every model must answer with the shared singletons."""
    singletons = (TX_OK, TX_NOT_RECEIVED, TX_PAYLOAD_CORRUPT)
    channel = make()
    seen = set()
    for index in range(300):
        now_us = None if index % 3 == 0 else index * 4 * 625
        result = channel.transmit(dh3_packet(), now_us=now_us)
        assert any(result is singleton for singleton in singletons)
        seen.add(id(result))
    assert len(seen) >= (1 if isinstance(channel, IdealChannel) else 2)
