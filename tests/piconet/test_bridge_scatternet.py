"""Tests of the scatternet bridge layer and its one-clock co-simulation."""

import pytest

from repro.piconet import (
    BE,
    BridgeSchedule,
    DOWNLINK,
    FlowSpec,
    Piconet,
    Scatternet,
    UPLINK,
)
from repro.schedulers.round_robin import PureRoundRobinPoller
from repro.sim import Environment, LoopWakeup
from repro.traffic.sources import CBRSource

TYPES = ("DH1", "DH3")


def be_flow(flow_id, slave, direction):
    return FlowSpec(flow_id, slave=slave, direction=direction,
                    traffic_class=BE, allowed_types=TYPES)


# --------------------------------------------------------- bridge schedule

def test_bridge_schedule_partitions_the_period():
    schedule = BridgeSchedule(period_slots=10, share_a=0.5, switch_slots=1)
    for slot in range(30):
        assert not (schedule.present_in_a(slot)
                    and schedule.present_in_b(slot))
    # 10-slot period, boundary at 5, one guard slot per residency
    assert [schedule.present_in_a(s) for s in range(10)] == \
        [False, True, True, True, True, False, False, False, False, False]
    assert [schedule.present_in_b(s) for s in range(10)] == \
        [False] * 6 + [True] * 4


def test_bridge_schedule_extremes_never_switch():
    always_a = BridgeSchedule(period_slots=10, share_a=1.0, switch_slots=2)
    assert all(always_a.present_in_a(s) for s in range(20))
    assert not any(always_a.present_in_b(s) for s in range(20))
    always_b = BridgeSchedule(period_slots=10, share_a=0.0, switch_slots=2)
    assert all(always_b.present_in_b(s) for s in range(20))
    assert not any(always_b.present_in_a(s) for s in range(20))


def test_bridge_schedule_duty_accounts_for_guards():
    schedule = BridgeSchedule(period_slots=10, share_a=0.5, switch_slots=1)
    assert schedule.duty("A") == pytest.approx(0.4)
    assert schedule.duty("B") == pytest.approx(0.4)
    with pytest.raises(ValueError):
        schedule.presence("C")


def test_bridge_schedule_validation():
    with pytest.raises(ValueError):
        BridgeSchedule(period_slots=1)
    with pytest.raises(ValueError):
        BridgeSchedule(share_a=1.5)
    with pytest.raises(ValueError):
        BridgeSchedule(switch_slots=-1)
    with pytest.raises(ValueError):
        BridgeSchedule(period_slots=4, switch_slots=2)


def test_bridge_schedule_rejects_degenerate_extreme_shares():
    # share 0.98 of 96 slots leaves piconet B an empty residency window
    with pytest.raises(ValueError, match="no usable residency"):
        BridgeSchedule(period_slots=96, share_a=0.98, switch_slots=2)
    with pytest.raises(ValueError, match="no usable residency"):
        BridgeSchedule(period_slots=96, share_a=0.02, switch_slots=2)
    # the explicit never-switch extremes stay valid
    BridgeSchedule(period_slots=96, share_a=1.0, switch_slots=2)
    BridgeSchedule(period_slots=96, share_a=0.0, switch_slots=2)
    # the smallest non-degenerate shares next to the guards stay valid
    BridgeSchedule(period_slots=96, share_a=4 / 96, switch_slots=2)


# ------------------------------------------------------------ shared clock

def test_shared_clock_rejects_foreign_environments():
    # the scatternet's environment is the one clock of its piconets
    scatternet = Scatternet()
    with pytest.raises(ValueError, match="different Environment"):
        scatternet.adopt_piconet("p", Piconet(env=Environment()))
    native = scatternet.adopt_piconet("p", Piconet(env=scatternet.env))
    assert native.env is scatternet.env
    with pytest.raises(ValueError, match="already registered"):
        scatternet.adopt_piconet("p", native)
    with pytest.raises(KeyError, match="unknown piconet"):
        scatternet.piconet("q")


def test_shared_clock_advances_all_members_together():
    scatternet = Scatternet()
    ticks = {"a": 0, "b": 0}

    def ticker(key, interval_us):
        while True:
            yield interval_us
            ticks[key] += 1

    LoopWakeup(scatternet.env, ticker("a", 1000))
    LoopWakeup(scatternet.env, ticker("b", 2500))
    scatternet.run(0.01)
    # ticks scheduled for exactly the horizon run after the stop event
    assert ticks == {"a": 9, "b": 3}
    assert scatternet.env.now == 10_000
    with pytest.raises(ValueError):
        scatternet.run(0.0)


# ----------------------------------------------- master loop with a bridge

def build_single_slave_piconet(env):
    piconet = Piconet(env=env)
    piconet.add_slave()
    piconet.add_flow(be_flow(1, 1, DOWNLINK))
    piconet.add_flow(be_flow(2, 1, UPLINK))
    piconet.attach_poller(PureRoundRobinPoller())
    return piconet


def test_absent_bridge_polls_are_guaranteed_failures():
    env = Environment()
    piconet = build_single_slave_piconet(env)
    piconet.set_bridge_presence(1, lambda slot: False)  # never present
    sources = [CBRSource(piconet, fid, 0.005, 176) for fid in (1, 2)]
    for source in sources:
        source.start()
    piconet.run(0.5)
    assert piconet.bridge_absent_polls > 0
    assert piconet.slave_throughput_bps(1) == 0.0
    states = piconet.flow_states()
    assert all(state.delivered_bytes == 0 for state in states)
    assert sum(state.segments_not_received for state in states) > 0
    accounting = piconet.slot_accounting()
    assert accounting["bridge_absent_polls"] == piconet.bridge_absent_polls


def test_negotiated_absence_skips_polls_without_failures():
    env = Environment()
    piconet = build_single_slave_piconet(env)
    piconet.set_bridge_presence(1, lambda slot: False, negotiated=True)
    sources = [CBRSource(piconet, fid, 0.005, 176) for fid in (1, 2)]
    for source in sources:
        source.start()
    piconet.run(0.5)
    # the master knows the schedule: no transaction is ever burnt on the
    # absent bridge, so no failures are booked — the slots idle instead
    assert piconet.bridge_skipped_polls > 0
    assert piconet.bridge_absent_polls == 0
    states = piconet.flow_states()
    assert sum(state.segments_not_received for state in states) == 0
    assert sum(state.retransmissions for state in states) == 0
    accounting = piconet.slot_accounting()
    assert accounting["bridge_skipped_polls"] == piconet.bridge_skipped_polls
    assert "bridge_absent_polls" in accounting  # presence is installed
    assert accounting["gs"] + accounting["be"] == 0
    assert accounting["idle"] > 0


def test_negotiated_presence_can_be_revoked():
    env = Environment()
    piconet = build_single_slave_piconet(env)
    piconet.set_bridge_presence(1, lambda slot: False, negotiated=True)
    piconet.set_bridge_presence(1, lambda slot: False)  # back to blind
    sources = [CBRSource(piconet, fid, 0.005, 176) for fid in (1, 2)]
    for source in sources:
        source.start()
    piconet.run(0.2)
    assert piconet.bridge_skipped_polls == 0
    assert piconet.bridge_absent_polls > 0
    assert "bridge_skipped_polls" not in piconet.slot_accounting()


def test_negotiated_bridge_serves_while_present_skips_while_away():
    env = Environment()
    piconet = build_single_slave_piconet(env)
    schedule = BridgeSchedule(period_slots=64, share_a=0.5, switch_slots=2)
    piconet.set_bridge_presence(1, schedule.present_in_a, negotiated=True)
    sources = [CBRSource(piconet, fid, 0.005, 176) for fid in (1, 2)]
    for source in sources:
        source.start()
    piconet.run(1.0)
    assert piconet.bridge_skipped_polls > 0
    assert piconet.slave_throughput_bps(1) > 0
    assert piconet.bridge_absent_polls == 0


def test_present_bridge_behaves_like_a_plain_slave():
    def throughput(presence):
        env = Environment()
        piconet = build_single_slave_piconet(env)
        if presence is not None:
            piconet.set_bridge_presence(1, presence)
        sources = [CBRSource(piconet, fid, 0.005, 176, start_offset=0.001)
                   for fid in (1, 2)]
        for source in sources:
            source.start()
        piconet.run(0.5)
        return piconet.slave_throughput_bps(1)

    assert throughput(lambda slot: True) == throughput(None)


def test_slot_accounting_omits_bridge_counter_without_bridges():
    piconet = Piconet()
    assert "bridge_absent_polls" not in piconet.slot_accounting()


def test_set_bridge_presence_requires_known_slave():
    piconet = Piconet()
    with pytest.raises(ValueError, match="not part of the piconet"):
        piconet.set_bridge_presence(1, lambda slot: True)


# -------------------------------------------------------------- scatternet

def build_bridged_pair(share_a=0.5):
    scatternet = Scatternet()
    schedule = BridgeSchedule(period_slots=96, share_a=share_a,
                              switch_slots=2)
    piconets = {}
    for name in ("A", "B"):
        piconet = scatternet.adopt_piconet(name,
                                           Piconet(env=scatternet.env))
        piconet.add_slave()
        piconet.add_flow(be_flow(1, 1, DOWNLINK))
        piconet.add_flow(be_flow(2, 1, UPLINK))
        piconet.attach_poller(PureRoundRobinPoller())
        piconets[name] = piconet
    scatternet.add_bridge("bridge", schedule, "A", 1, "B", 1)
    sources = [CBRSource(piconet, fid, 0.01, 176)
               for piconet in piconets.values() for fid in (1, 2)]
    return scatternet, piconets, sources


def test_scatternet_split_shares_throughput_between_masters():
    scatternet, piconets, sources = build_bridged_pair(share_a=0.75)
    for source in sources:
        source.start()
    scatternet.run(2.0)
    a, b = piconets["A"], piconets["B"]
    assert a.env is b.env is scatternet.env
    # offered load (281.6 kbit/s) exceeds neither residency alone, but the
    # 25% residency in B cannot carry what the 75% one can
    assert a.slave_throughput_bps(1) > b.slave_throughput_bps(1) > 0
    assert a.bridge_absent_polls > 0
    assert b.bridge_absent_polls > 0
    assert scatternet.bridges[0].residences["A"] == ("A", 1)


def test_scatternet_adopt_rejects_foreign_piconet():
    scatternet = Scatternet()
    with pytest.raises(ValueError, match="different Environment"):
        scatternet.adopt_piconet("A", Piconet(env=Environment()))
    with pytest.raises(KeyError, match="unknown piconet"):
        scatternet.piconet("A")
    native = scatternet.adopt_piconet("A", Piconet(env=scatternet.env))
    with pytest.raises(ValueError, match="already registered"):
        scatternet.adopt_piconet("A", Piconet(env=scatternet.env))
    assert scatternet.piconet("A") is native


# ------------------------------------------------------------ bridge roaming

def test_set_bridge_presence_roam_resets_the_slaves_accounting():
    env = Environment()
    piconet = build_single_slave_piconet(env)
    piconet.set_bridge_presence(1, lambda slot: False)  # blind, never there
    sources = [CBRSource(piconet, fid, 0.005, 176) for fid in (1, 2)]
    for source in sources:
        source.start()
    piconet.run(0.3)
    assert piconet.bridge_absent_polls > 0
    # the roam re-registers the same slave with a new schedule: the old
    # schedule's absent-poll history is dropped, not layered under the new
    piconet.set_bridge_presence(1, lambda slot: True)
    assert piconet.bridge_absent_polls == 0
    assert piconet.topology_changes == 1  # a roam is a topology change
    piconet.run(0.3)
    assert piconet.bridge_absent_polls == 0
    assert piconet.slave_throughput_bps(1) > 0  # present bridge serves again


def test_scatternet_roam_bridge_reregisters_both_masters():
    scatternet, piconets, sources = build_bridged_pair(share_a=0.5)
    for source in sources:
        source.start()
    scatternet.run(0.2)
    bridge = scatternet.roam_bridge("bridge", 0.8)
    assert bridge.schedule.share_a == 0.8
    assert scatternet.bridge("bridge") is bridge
    for piconet in piconets.values():
        assert piconet.topology_changes == 1
    scatternet.run(0.4)
    # the bridge now spends most of the cycle in A: A outdelivers B
    assert piconets["A"].slave_throughput_bps(1) \
        > piconets["B"].slave_throughput_bps(1)
    with pytest.raises(KeyError, match="unknown bridge"):
        scatternet.roam_bridge("ghost", 0.5)
