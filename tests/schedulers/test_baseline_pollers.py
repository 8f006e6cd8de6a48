"""Tests of the baseline pollers from the related-work survey."""

import pytest

from repro.piconet import FlowSpec, Piconet
from repro.piconet.flows import BE, DOWNLINK, GS, UPLINK
from repro.schedulers import (
    DemandBasedPoller,
    EfficientDoubleCyclePoller,
    ExhaustivePoller,
    FairExhaustivePoller,
    HolPriorityPoller,
    LimitedRoundRobinPoller,
    PureRoundRobinPoller,
)
from repro.schedulers.base import Poller, TransactionPlan
from repro.schedulers.demand_based import FLOOR, SMOOTHING
from repro.schedulers.edc import MAX_BACKOFF
from repro.schedulers.exhaustive import VISIT_LIMIT
from repro.schedulers.fep import PROBE_PERIOD
from repro.traffic.sources import CBRSource

ALL_POLLERS = [
    PureRoundRobinPoller,
    lambda: LimitedRoundRobinPoller(),
    ExhaustivePoller,
    FairExhaustivePoller,
    EfficientDoubleCyclePoller,
    HolPriorityPoller,
    DemandBasedPoller,
]


def two_slave_piconet():
    piconet = Piconet()
    piconet.add_slave()
    piconet.add_slave()
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.add_flow(FlowSpec(2, slave=2, direction=UPLINK, traffic_class=BE))
    piconet.add_flow(FlowSpec(3, slave=2, direction=DOWNLINK, traffic_class=BE))
    return piconet


def test_transaction_plan_validation():
    with pytest.raises(ValueError):
        TransactionPlan(slave=0)
    with pytest.raises(ValueError):
        TransactionPlan(slave=1, kind="bogus")


def test_poller_requires_attachment():
    poller = PureRoundRobinPoller()
    with pytest.raises(RuntimeError):
        poller.select(0)


@pytest.mark.parametrize("factory", ALL_POLLERS)
def test_every_baseline_delivers_offered_traffic(factory):
    piconet = two_slave_piconet()
    piconet.attach_poller(factory())
    CBRSource(piconet, 1, 0.020, 176).start()
    CBRSource(piconet, 2, 0.020, 176).start()
    CBRSource(piconet, 3, 0.020, 176).start()
    piconet.run(2.0)
    for flow_id in (1, 2, 3):
        state = piconet.flow_state(flow_id)
        # the load is light: every baseline must deliver essentially all of it
        assert state.delivered_packets >= 90, f"{factory} starved flow {flow_id}"


@pytest.mark.parametrize("factory", ALL_POLLERS)
def test_every_baseline_survives_an_idle_piconet(factory):
    piconet = two_slave_piconet()
    piconet.attach_poller(factory())
    piconet.run(0.2)   # no traffic at all
    assert piconet.flow_state(1).delivered_packets == 0


def test_round_robin_alternates_between_slaves():
    piconet = two_slave_piconet()
    poller = PureRoundRobinPoller()
    piconet.attach_poller(poller)
    slaves = [poller.select(0).slave for _ in range(4)]
    assert slaves == [1, 2, 1, 2]


def test_round_robin_plans_follow_attached_and_detached_flows():
    piconet = two_slave_piconet()
    poller = PureRoundRobinPoller()
    piconet.attach_poller(poller)

    def flows_of_next_slave_1_plan():
        plan = next(plan for plan in (poller.select(0) for _ in range(2))
                    if plan.slave == 1)
        return plan.dl_flow_id, plan.ul_flow_id

    assert flows_of_next_slave_1_plan() == (None, 1)
    piconet.add_flow_runtime(
        FlowSpec(4, slave=1, direction=DOWNLINK, traffic_class=BE))
    assert flows_of_next_slave_1_plan() == (4, 1)
    piconet.detach_flow(1)
    assert flows_of_next_slave_1_plan() == (4, None)
    # with two downlink flows the plan follows the queues
    piconet.add_flow_runtime(
        FlowSpec(5, slave=1, direction=DOWNLINK, traffic_class=BE))
    assert flows_of_next_slave_1_plan() == (4, None)
    piconet.offer_packet(5, 176)
    assert flows_of_next_slave_1_plan() == (5, None)


def test_round_robin_serves_every_uplink_flow_of_a_slave():
    piconet = Piconet()
    piconet.add_slave()
    for flow_id in (1, 2):
        piconet.add_flow(FlowSpec(flow_id, slave=1, direction=UPLINK,
                                  traffic_class=BE))
    piconet.attach_poller(PureRoundRobinPoller())
    for flow_id in (1, 2):
        CBRSource(piconet, flow_id, 0.020, 100).start()
    piconet.run(1.0)
    for flow_id in (1, 2):
        state = piconet.flow_state(flow_id)
        assert (state.queue.offered_packets, state.delivered_packets) \
            == (50, 50), f"flow {flow_id}"


@pytest.mark.parametrize("factory", [
    ExhaustivePoller,
    HolPriorityPoller,
    DemandBasedPoller,
    FairExhaustivePoller,
    EfficientDoubleCyclePoller,
])
def test_baselines_serve_every_uplink_flow_of_a_slave(factory):
    # the shared plan helper rotates a slave's uplink flows, so a second
    # uplink flow on the same slave is polled too
    piconet = Piconet()
    piconet.add_slave()
    for flow_id in (1, 2):
        piconet.add_flow(FlowSpec(flow_id, slave=1, direction=UPLINK,
                                  traffic_class=BE))
    piconet.attach_poller(factory())
    for flow_id in (1, 2):
        CBRSource(piconet, flow_id, 0.020, 100).start()
    piconet.run(1.0)
    for flow_id in (1, 2):
        state = piconet.flow_state(flow_id)
        assert (state.queue.offered_packets, state.delivered_packets) \
            == (50, 50), f"flow {flow_id}"


def test_round_robin_polls_a_slave_whose_first_flow_arrives_late():
    piconet = Piconet()
    piconet.add_slave()
    piconet.add_slave()
    piconet.add_flow(FlowSpec(1, slave=1, direction=DOWNLINK,
                              traffic_class=BE))
    piconet.attach_poller(PureRoundRobinPoller())
    piconet.run(0.1)
    piconet.add_flow_runtime(
        FlowSpec(2, slave=2, direction=DOWNLINK, traffic_class=BE))
    CBRSource(piconet, 2, 0.020, 100).start()
    piconet.run(1.0)
    state = piconet.flow_state(2)
    assert (state.queue.offered_packets, state.delivered_packets) == (50, 50)


def test_fep_demotes_idle_slaves_and_promotes_on_data():
    piconet = two_slave_piconet()
    poller = FairExhaustivePoller()
    piconet.attach_poller(poller)
    piconet.run(0.5)   # nothing to send: both slaves end up inactive
    assert poller._active == []
    assert sorted(poller._inactive) == [1, 2]
    # downlink data for slave 2 re-activates it
    piconet.offer_packet(3, 176)
    assert poller._active == [2]


def test_hol_priority_prefers_flagged_downlink_flow():
    piconet = Piconet()
    piconet.add_slave()
    piconet.add_slave()
    piconet.add_flow(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE))
    piconet.add_flow(FlowSpec(2, slave=2, direction=DOWNLINK, traffic_class=GS))
    poller = HolPriorityPoller()
    piconet.attach_poller(poller)
    piconet.offer_packet(1, 100)
    piconet.offer_packet(2, 100)
    plan = poller.select(piconet.env.now)
    assert plan.slave == 2   # the GS flow outranks the lower-numbered BE flow


def test_demand_based_gives_more_service_to_busier_slave():
    piconet = two_slave_piconet()
    piconet.attach_poller(DemandBasedPoller())
    CBRSource(piconet, 1, 0.100, 176).start()   # light
    CBRSource(piconet, 2, 0.004, 176).start()   # heavy
    piconet.run(2.0)
    assert piconet.flow_state(2).delivered_bytes > \
        2 * piconet.flow_state(1).delivered_bytes


def test_limited_round_robin_validation():
    # the fixed poller parameters are within their valid ranges
    assert VISIT_LIMIT >= 1
    assert PROBE_PERIOD >= 1
    assert MAX_BACKOFF >= 1
    assert 0 < SMOOTHING <= 1
    assert FLOOR > 0


def test_base_poller_plan_builder_picks_both_directions():
    piconet = two_slave_piconet()

    class Probe(Poller):
        def select(self, now):
            return None

    probe = Probe()
    piconet.attach_poller(probe)
    plan = probe.build_plan_for_slave(2)
    assert plan.slave == 2
    assert plan.dl_flow_id == 3
    assert plan.ul_flow_id == 2

