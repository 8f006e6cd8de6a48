"""Channel determinism: per-link error sequences are reproducible.

The ISSUE acceptance: the same master seed must yield byte-identical
per-link error sequences — and therefore byte-identical sweep results —
no matter which execution backend ran the tasks.
"""

import pytest

from repro.baseband import ChannelMap, GilbertElliottChannel, LossyChannel
from repro.baseband.fec import packet_error_probabilities
from repro.baseband.packets import BasebandPacket, get_packet_type
from repro.experiments.lossy_channel import channel_spec
from repro.experiments.orchestrator import SweepRunner
from repro.scenario import compile_channel
from repro.sim.rng import RandomStreams


def _dh3():
    return BasebandPacket(get_packet_type("DH3"), payload=150)


def test_compiled_channel_map_is_reproducible_per_link():
    def error_sequence(model):
        cmap = compile_channel(channel_spec(1e-3, model), seed=9)
        return {
            (slave, direction): tuple(
                cmap.transmit(slave, direction, _dh3(), now_us=n * 1250).ok
                for n in range(300))
            for slave in (1, 4) for direction in ("DL", "UL")}

    for model in ("iid", "gilbert"):
        first, second = error_sequence(model), error_sequence(model)
        assert first == second
        # links differ from each other (independent substreams)
        assert len(set(first.values())) > 1
    with pytest.raises(ValueError):
        channel_spec(1e-3, "warp")
    assert compile_channel(channel_spec(0.0), seed=9) is None


def test_lossy_sweep_byte_identical_across_backends():
    overrides = {"bit_error_rate": [3e-4, 1e-3], "duration_seconds": 1.0}
    results = {
        name: SweepRunner(max_workers=2, backend=name).run(
            "lossy_channel", overrides=overrides, master_seed=11)
        for name in ("serial", "batch")}
    serial = results["serial"]
    assert serial.rows, "sweep produced no rows"
    assert any(row["mean"]["gs_retransmissions"] > 0 for row in serial.rows)
    assert serial.to_json() == results["batch"].to_json()


def test_gilbert_elliott_stationary_error_rate_sanity():
    """Empirical loss of a GE link matches the closed-form stationary rate."""
    channel = GilbertElliottChannel(p_gb=0.01, p_bg=0.04, ber_good=0.0,
                                    ber_bad=2e-3,
                                    rng=RandomStreams(3).stream("ge"))
    packet = _dh3()
    n = 30000
    losses = sum(1 for slot in range(n)
                 if not channel.transmit(packet, now_us=slot * 1250).ok)
    # the bad state holds p_gb / (p_gb + p_bg) = 0.2 of the slots; the
    # good state (BER 0) loses nothing
    expected = 0.2 * packet_error_probabilities(packet, 2e-3).any
    assert 0.05 < expected < 0.95
    assert losses / n == pytest.approx(expected, rel=0.1)


def test_channel_map_streams_do_not_perturb_traffic_streams():
    """The channel substream family is isolated from the source streams."""
    parent = RandomStreams(17)
    before = parent.stream("gs-1").random()
    parent2 = RandomStreams(17)
    child = parent2.child("channel-map")
    ChannelMap(
        lambda link, rng: LossyChannel(bit_error_rate=1e-3, rng=rng),
        streams=child).transmit(1, "DL", _dh3(), now_us=0)
    after = parent2.stream("gs-1").random()
    assert before == after
