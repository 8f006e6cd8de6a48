"""Slot-level tests of the piconet TDD loop."""

import pytest

from repro.baseband.channel import ChannelMap, IdealChannel, LossyChannel
from repro.piconet import FlowSpec, Piconet
from repro.piconet.flows import BE, DOWNLINK, GS, UPLINK
from repro.schedulers import PureRoundRobinPoller
from repro.schedulers.base import KIND_BE, Poller, TransactionPlan
from repro.sim import LoopWakeup, RandomStreams
from repro.traffic.sources import CBRSource


def ber_links(ber, slaves=None, streams=None):
    """A channel map with every link (or only ``slaves``' links) at
    ``ber``, the other links ideal."""
    def factory(link, rng):
        if slaves is None or link[0] in slaves:
            return LossyChannel(bit_error_rate=ber, rng=rng)
        return IdealChannel()

    return ChannelMap(factory, streams=streams)


def build_piconet(n_slaves=1, channel=None):
    piconet = Piconet(channel=channel)
    for _ in range(n_slaves):
        piconet.add_slave()
    return piconet


class SingleSlavePoller(Poller):
    """Always polls slave 1, serving its first DL and UL flows."""

    def select(self, now):
        return self.build_plan_for_slave(1, kind=KIND_BE)


def test_add_flow_requires_known_slave():
    piconet = build_piconet(1)
    with pytest.raises(ValueError):
        piconet.add_flow(FlowSpec(1, slave=2, direction=UPLINK, traffic_class=BE))


def test_duplicate_flow_id_rejected():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    with pytest.raises(ValueError):
        piconet.add_flow(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE))


def test_uplink_delivery_and_delay_measurement():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.attach_poller(SingleSlavePoller())
    piconet.offer_packet(1, 176)
    piconet.run(0.1)
    state = piconet.flow_state(1)
    assert state.delivered_packets == 1
    assert state.delivered_bytes == 176
    # one DH3 transaction: the packet is delivered within a few slots
    assert state.delays.maximum < 0.01


def test_downlink_delivery():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE))
    piconet.attach_poller(SingleSlavePoller())
    piconet.offer_packet(1, 400)   # needs three baseband segments (183+183+34)
    piconet.run(0.1)
    state = piconet.flow_state(1)
    assert state.delivered_packets == 1
    assert state.segments_delivered == 3


def test_no_poller_means_idle_slots_only():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.offer_packet(1, 100)
    piconet.run(0.05)
    assert piconet.flow_state(1).delivered_packets == 0
    assert piconet.slots_idle > 0


def test_slot_accounting_covers_run_duration():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.attach_poller(SingleSlavePoller())
    CBRSource(piconet, 1, 0.010, 176).start()
    piconet.run(0.5)
    accounting = piconet.slot_accounting()
    total = int(round(0.5 * 1600))
    # every slot is either idle or part of a transaction (small tail slack)
    assert abs(accounting["accounted"] - total) <= 12


def test_uplink_data_arriving_after_master_tx_start_waits():
    """The paper requires data to be present when the master starts its
    transmission; data arriving mid-transaction is served by a later poll."""
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.attach_poller(SingleSlavePoller())

    def late_offer():
        # first transaction starts at t=0 (POLL + NULL, 2 slots); offer data
        # 1 us after the start so it must wait for the second transaction
        yield 1
        piconet.offer_packet(1, 27)

    LoopWakeup(piconet.env, late_offer())
    piconet.run(0.05)
    state = piconet.flow_state(1)
    assert state.delivered_packets == 1
    # delay includes waiting for the next transaction (>= 2 slots - 1 us)
    assert state.delays.minimum >= 2 * 625e-6 - 2e-6


def test_lossy_channel_triggers_retransmissions_and_still_delivers():
    piconet = build_piconet(1, channel=ber_links(1.5e-4))
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.attach_poller(SingleSlavePoller())
    source = CBRSource(piconet, 1, 0.020, 176)
    source.start()
    piconet.run(2.0)
    state = piconet.flow_state(1)
    assert state.retransmissions > 0
    # ARQ means everything offered (minus the tail) is eventually delivered
    assert state.delivered_packets >= source.packets_generated - 2


def test_gs_plan_slot_accounting_separated():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=GS))

    class GSPoller(Poller):
        def select(self, now):
            return TransactionPlan(slave=1, ul_flow_id=1, kind="GS", gs_flow_id=1)

    piconet.attach_poller(GSPoller())
    piconet.offer_packet(1, 144)
    piconet.run(0.05)
    assert piconet.slots_gs > 0
    assert piconet.slots_be == 0
    assert piconet.gs_polls_without_data > 0  # polls after the queue drained


def test_sco_link_carries_voice_and_reserves_slots():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=GS,
                              allowed_types=("HV3",)))
    piconet.add_sco_link(1, "HV3", ul_flow_id=1)
    # 150-byte frames every 18.75 ms = 64 kbit/s, exactly five HV3 packets each
    CBRSource(piconet, 1, 0.01875, 150).start()
    piconet.run(1.0)
    state = piconet.flow_state(1)
    assert state.delivered_packets >= 48
    # HV3 reserves one slot pair in six: ~533 slots per second
    assert piconet.slots_sco == pytest.approx(533, abs=10)


def test_rejected_sco_link_reserves_nothing():
    piconet = build_piconet(2)
    with pytest.raises(ValueError, match="slave 3 is not part of the"):
        piconet.add_sco_link(3)
    with pytest.raises(ValueError, match="unknown flow id 42"):
        piconet.add_sco_link(2, ul_flow_id=42)
    assert len(piconet.sco_table) == 0
    # no SCO reservation was left behind for slave 2 either
    assert piconet.park_slave(2) == []
    # HV3 has three offsets: leaked reservations would leave too few
    for slave in (1, 2):
        piconet.add_sco_link(slave)
    assert len(piconet.sco_table) == 2


def test_round_robin_poller_serves_multiple_slaves():
    piconet = build_piconet(2)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.add_flow(FlowSpec(2, slave=2, direction=UPLINK, traffic_class=BE))
    piconet.attach_poller(PureRoundRobinPoller())
    CBRSource(piconet, 1, 0.010, 100).start()
    CBRSource(piconet, 2, 0.010, 100).start()
    piconet.run(0.5)
    assert piconet.flow_state(1).delivered_packets > 20
    assert piconet.flow_state(2).delivered_packets > 20


def test_throughput_helpers():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.attach_poller(SingleSlavePoller())
    CBRSource(piconet, 1, 0.020, 176).start()
    piconet.run(1.0)
    per_slave = piconet.slave_throughput_bps(1)
    assert per_slave == pytest.approx(piconet.flow_stats(1)["throughput_bps"])
    assert per_slave == pytest.approx(176 * 8 / 0.020, rel=0.1)


# ------------------------------------------------- per-link channel subsystem

class OutcomeRecorder(SingleSlavePoller):
    """Single-slave poller that keeps every PollOutcome it is notified of."""

    def __init__(self):
        super().__init__()
        self.outcomes = []

    def notify(self, outcome):
        self.outcomes.append(outcome)


def test_poll_outcome_carries_link_identities():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    poller = OutcomeRecorder()
    piconet.attach_poller(poller)
    piconet.offer_packet(1, 100)
    piconet.run(0.05)
    assert poller.outcomes
    outcome = poller.outcomes[0]
    assert outcome.dl_link == (1, DOWNLINK)
    assert outcome.ul_link == (1, UPLINK)


def test_per_link_channel_map_isolates_slaves():
    # slave 1's links are broken, slave 2's are clean
    piconet = build_piconet(2, channel=ber_links(0.5, slaves=(1,),
                                                 streams=RandomStreams(7)))
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.add_flow(FlowSpec(2, slave=2, direction=UPLINK, traffic_class=BE))
    piconet.attach_poller(PureRoundRobinPoller())
    piconet.offer_packet(1, 100)
    piconet.offer_packet(2, 100)
    piconet.run(0.1)
    broken = piconet.flow_state(1)
    clean = piconet.flow_state(2)
    assert broken.delivered_packets == 0
    assert broken.retransmissions > 0
    assert clean.delivered_packets == 1
    assert clean.retransmissions == 0


def test_failure_decomposition_counted_per_kind():
    # at a catastrophic BER both kinds appear: packets never received
    # (access code / header lost) and payloads failing the CRC
    piconet = build_piconet(1, channel=ber_links(0.02))
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.attach_poller(SingleSlavePoller())
    CBRSource(piconet, 1, 0.020, 176).start()
    piconet.run(1.0)
    state = piconet.flow_state(1)
    assert state.crc_failures > 0
    assert state.segments_not_received > 0
    assert state.crc_failures + state.segments_not_received \
        == state.retransmissions
    stats = piconet.flow_stats(1)
    assert stats["crc_failures"] == state.crc_failures
    assert stats["segments_not_received"] == state.segments_not_received


def test_adaptive_segmentation_switches_under_loss():
    from repro.baseband import ChannelAdaptiveSegmentationPolicy
    from repro.piconet.piconet import PiconetConfig

    config = PiconetConfig(adaptive_segmentation=True)
    piconet = Piconet(channel=ber_links(1e-3), config=config)
    piconet.add_slave()
    piconet.add_flow(FlowSpec(1, slave=1, direction=DOWNLINK,
                              traffic_class=BE))
    piconet.attach_poller(SingleSlavePoller())
    policy = piconet.queue(1).policy
    assert isinstance(policy, ChannelAdaptiveSegmentationPolicy)
    CBRSource(piconet, 1, 0.010, 176).start()
    piconet.run(1.0)
    # ~75% observed loss is far above the entry threshold
    assert policy.robust_active
    assert policy.estimator.observations > 0


def test_adaptive_segmentation_skips_sco_flows():
    from repro.baseband import ChannelAdaptiveSegmentationPolicy
    from repro.baseband.segmentation import BestFitSegmentationPolicy
    from repro.piconet.piconet import PiconetConfig

    piconet = Piconet(config=PiconetConfig(adaptive_segmentation=True))
    piconet.add_slave()
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=GS,
                              allowed_types=("HV3",)))
    policy = piconet.queue(1).policy
    assert isinstance(policy, BestFitSegmentationPolicy)
    assert not isinstance(policy, ChannelAdaptiveSegmentationPolicy)


def test_explicit_zero_duration_raises():
    piconet = build_piconet(1)
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    with pytest.raises(ValueError):
        piconet.flow_stats(1, duration_seconds=0)
    with pytest.raises(ValueError):
        piconet.slave_throughput_bps(1, duration_seconds=0.0)
    with pytest.raises(ValueError):
        piconet.slave_throughput_bps(1, duration_seconds=-1.0)
    # None still means "use elapsed time"
    assert piconet.flow_stats(1)["delivered_bytes"] == 0


def test_sco_residual_errors_counted_through_link_channels():
    # every link lossy at the bit level: HV3 has no CRC and no ARQ, so
    # corrupted voice frames are still delivered, only counted as residual
    piconet = build_piconet(
        1, channel=ber_links(3e-3, streams=RandomStreams(5)))
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=GS,
                              allowed_types=("HV3",)))
    piconet.add_sco_link(1, "HV3", ul_flow_id=1)
    CBRSource(piconet, 1, 0.01875, 150).start()
    piconet.run(1.0)
    state = piconet.flow_state(1)
    assert state.sco_residual_errors > 0
    assert state.retransmissions == 0          # SCO has no ARQ
    assert state.delivered_packets >= 48       # playout is uninterrupted
