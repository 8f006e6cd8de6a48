"""Tests of the radio channel models and the per-link channel map."""

import random

import pytest

from repro.baseband import (
    ChannelMap,
    GilbertElliottChannel,
    IdealChannel,
    LossyChannel,
)
from repro.baseband.channel import TX_OK, TransmissionResult
from repro.baseband.constants import SLOT_US
from repro.baseband.packets import BasebandPacket, get_packet_type
from repro.sim.rng import RandomStreams


def _dh3(payload=100):
    return BasebandPacket(get_packet_type("DH3"), payload=payload)


# ------------------------------------------------------------------- result

def test_transmission_result_truthiness():
    assert bool(TX_OK)
    assert not TransmissionResult(received=False, payload_intact=False)
    nak = TransmissionResult(received=True, payload_intact=False)
    assert not nak and nak.received


# ----------------------------------------------------------------- channels

def test_ideal_channel_never_fails():
    channel = IdealChannel()
    assert all(channel.transmit(_dh3(), now_us=n * SLOT_US).ok
               for n in range(100))


def test_lossy_channel_requires_exactly_one_rate():
    # the bit error rate is the one way to describe an iid channel
    with pytest.raises(TypeError):
        LossyChannel()


def test_lossy_channel_rate_bounds_checked():
    with pytest.raises(ValueError):
        LossyChannel(bit_error_rate=1.5)
    with pytest.raises(ValueError):
        LossyChannel(bit_error_rate=-0.1)


def test_lossy_channel_loss_fraction_matches_rate():
    channel = LossyChannel(bit_error_rate=5e-4, rng=random.Random(1))
    outcomes = [channel.transmit(_dh3(), now_us=n * SLOT_US).ok
                for n in range(5000)]
    loss = 1 - sum(outcomes) / len(outcomes)
    assert loss == pytest.approx(channel.error_probabilities(_dh3()).any,
                                 abs=0.03)


def test_ber_longer_packets_more_likely_corrupted():
    channel = LossyChannel(bit_error_rate=1e-4)
    short = BasebandPacket(get_packet_type("DH1"), payload=10)
    long = BasebandPacket(get_packet_type("DH5"), payload=339)
    assert channel.error_probabilities(long).any > \
        channel.error_probabilities(short).any


def test_ber_fec_packets_more_robust():
    channel = LossyChannel(bit_error_rate=1e-4)
    dm3 = BasebandPacket(get_packet_type("DM3"), payload=100)
    dh3 = BasebandPacket(get_packet_type("DH3"), payload=100)
    assert channel.error_probabilities(dm3).any < \
        channel.error_probabilities(dh3).any


def test_ber_mode_separates_missed_from_crc_failures():
    # at a catastrophic BER the header (1/3 FEC) still fails far less often
    # than a long unprotected payload, so both outcome kinds appear
    channel = LossyChannel(bit_error_rate=0.02, rng=random.Random(4))
    results = [channel.transmit(_dh3(), now_us=n * SLOT_US)
               for n in range(3000)]
    missed = sum(1 for r in results if not r.received)
    crc = sum(1 for r in results if r.received and not r.payload_intact)
    assert missed > 0
    assert crc > 0
    assert crc > missed  # payload is the weakest section


# ----------------------------------------------------------- Gilbert-Elliott

def test_gilbert_elliott_parameter_validation():
    with pytest.raises(ValueError):
        GilbertElliottChannel(p_gb=1.5)
    with pytest.raises(ValueError):
        GilbertElliottChannel(ber_bad=1.5)


def test_gilbert_elliott_produces_burstier_errors_than_iid():
    rng = random.Random(3)
    channel = GilbertElliottChannel(p_gb=0.02, p_bg=0.2, ber_good=0.0,
                                    ber_bad=2e-3, rng=rng)
    outcomes = [channel.transmit(_dh3(), now_us=slot * SLOT_US).ok
                for slot in range(20000)]
    losses = [not ok for ok in outcomes]
    loss_rate = sum(losses) / len(losses)
    assert 0.0 < loss_rate < 0.5
    # measure clustering: probability a loss follows a loss should exceed the
    # unconditional loss rate for a bursty channel
    follow = sum(1 for i in range(1, len(losses)) if losses[i] and losses[i - 1])
    conditional = follow / max(1, sum(losses[:-1]))
    assert conditional > loss_rate * 1.5


def test_gilbert_elliott_stationary_probability():
    """The n-step bad probability relaxes to ``p_gb / (p_gb + p_bg)``; a
    chain that never moves stays where it is."""
    channel = GilbertElliottChannel(p_gb=0.01, p_bg=0.09)
    assert channel.n_step_bad_probability(10_000) == pytest.approx(0.1)
    frozen = GilbertElliottChannel(p_gb=0.0, p_bg=0.0)
    assert frozen.n_step_bad_probability(10_000) == 0.0
    assert frozen.n_step_bad_probability(10_000, from_good=False) == 1.0


def test_gilbert_elliott_state_advances_with_elapsed_slots():
    """Recovery depends on elapsed time, not poll count."""
    recovered_after_long_gap = 0
    recovered_after_short_gap = 0
    trials = 400
    for seed in range(trials):
        for gap_slots, counter in ((1, "short"), (1000, "long")):
            channel = GilbertElliottChannel(
                p_gb=0.0, p_bg=0.05, ber_good=0.0, ber_bad=0.5,
                rng=random.Random(seed))
            channel.state_good = False
            channel.transmit(_dh3(), now_us=0)   # anchors the clock
            result = channel.transmit(_dh3(), now_us=gap_slots * SLOT_US)
            if result.ok:
                if counter == "long":
                    recovered_after_long_gap += 1
                else:
                    recovered_after_short_gap += 1
    # after 1000 slots the chain has almost surely relaxed back to good
    # (p_gb=0), after one slot it recovers with probability p_bg=0.05
    assert recovered_after_long_gap > trials * 0.99
    assert recovered_after_short_gap < trials * 0.15


def test_gilbert_elliott_closed_form_matches_stationary_loss():
    """Empirical slot-by-slot loss approaches the stationary mix."""
    channel = GilbertElliottChannel(p_gb=0.02, p_bg=0.08, ber_good=0.0,
                                    ber_bad=0.5, rng=random.Random(11))
    packet = _dh3()
    losses = 0
    n = 20000
    for slot in range(n):
        if not channel.transmit(packet, now_us=slot * SLOT_US).ok:
            losses += 1
    # the bad state (stationary share 0.2) loses every packet, the good
    # state none
    assert losses / n == pytest.approx(0.2, rel=0.15)


def test_gilbert_elliott_ber_mode_uses_fec_model():
    channel = GilbertElliottChannel(p_gb=0.0, p_bg=0.0, ber_good=1e-4,
                                    ber_bad=1e-2)
    dm3 = BasebandPacket(get_packet_type("DM3"), payload=100)
    dh3 = BasebandPacket(get_packet_type("DH3"), payload=100)
    for good in (True, False):
        assert channel._state_probabilities(dm3, good).any < \
            channel._state_probabilities(dh3, good).any


# -------------------------------------------------------------- channel map

def test_channel_map_links_are_independent_and_deterministic():
    def build():
        return ChannelMap(
            lambda link, rng: LossyChannel(bit_error_rate=1e-3, rng=rng),
            streams=RandomStreams(42))

    def sequence(cmap, slave, direction, n=200):
        return tuple(cmap.transmit(slave, direction, _dh3(),
                                   now_us=i * SLOT_US).ok
                     for i in range(n))

    first, second = build(), build()
    # same seed -> byte-identical per-link sequences across instances
    assert sequence(first, 1, "DL") == sequence(second, 1, "DL")
    assert sequence(first, 2, "UL") == sequence(second, 2, "UL")
    # different links evolve independently
    assert sequence(build(), 1, "DL") != sequence(build(), 1, "UL")
    assert sequence(build(), 1, "DL") != sequence(build(), 3, "DL")


def test_channel_map_memoizes_per_link_instances():
    cmap = ChannelMap(
        lambda link, rng: LossyChannel(bit_error_rate=1e-4, rng=rng))
    a = cmap.channel_for(1, "DL")
    assert cmap.channel_for(1, "DL") is a
    assert cmap.channel_for(1, "UL") is not a


def test_channel_map_per_slave_heterogeneous_quality():
    def factory(link, rng):
        slave, _direction = link
        return LossyChannel(bit_error_rate=0.5, rng=rng) if slave == 1 \
            else IdealChannel()

    cmap = ChannelMap(factory, streams=RandomStreams(0))
    assert not cmap.transmit(1, "DL", _dh3(), now_us=0).ok
    assert cmap.transmit(2, "DL", _dh3(), now_us=0).ok
    assert isinstance(cmap.channel_for(2, "UL"), IdealChannel)


def test_ideal_map_transmits_every_packet():
    cmap = ChannelMap.ideal()
    assert cmap.transmit(1, "DL", _dh3(), now_us=0) is TX_OK
    assert cmap.channel_for(5, "UL") is cmap.channel_for(1, "DL")
