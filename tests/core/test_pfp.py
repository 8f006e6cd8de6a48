"""Tests of the Predictive Fair Poller (GS precedence, BE fairness, prediction)."""

import pytest

from repro.core import GuaranteedServiceManager, PredictiveFairPoller, cbr_tspec
from repro.piconet import FlowSpec, Piconet
from repro.piconet.flows import BE, DOWNLINK, GS, UPLINK
from repro.schedulers.base import KIND_BE, KIND_GS
from repro.traffic.sources import CBRSource

M_T = 6 * 625e-6


def build_gs_be_piconet():
    """One GS uplink flow on slave 1, BE uplink flows on slaves 2 and 3."""
    piconet = Piconet()
    for _ in range(3):
        piconet.add_slave()
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=GS))
    piconet.add_flow(FlowSpec(2, slave=2, direction=UPLINK, traffic_class=BE))
    piconet.add_flow(FlowSpec(3, slave=3, direction=UPLINK, traffic_class=BE))
    manager = GuaranteedServiceManager(M_T)
    setup = manager.add_flow(piconet.flow_state(1).spec, cbr_tspec(0.020, 144, 176),
                             delay_bound=0.030)
    assert setup.accepted
    poller = PredictiveFairPoller(manager)
    piconet.attach_poller(poller)
    return piconet, manager, poller


def test_gs_poll_selected_when_due():
    piconet, _manager, poller = build_gs_be_piconet()
    plan = poller.select(piconet.env.now)
    assert plan is not None
    assert plan.kind == KIND_GS
    assert plan.slave == 1
    assert plan.gs_flow_id == 1


def test_be_capacity_divided_fairly_between_equal_slaves():
    piconet, _manager, poller = build_gs_be_piconet()
    CBRSource(piconet, 1, 0.020, (144, 176)).start()
    # both BE slaves offer far more than the residual capacity can carry
    CBRSource(piconet, 2, 0.004, 176).start()
    CBRSource(piconet, 3, 0.004, 176).start()
    piconet.run(2.0)
    t2 = piconet.slave_throughput_bps(2)
    t3 = piconet.slave_throughput_bps(3)
    assert t2 == pytest.approx(t3, rel=0.1)
    served = poller._be_slaves
    assert served[2].served_slots == pytest.approx(served[3].served_slots,
                                                   rel=0.1)


def test_idle_be_slave_gets_few_polls_after_prediction_learns():
    piconet = Piconet()
    for _ in range(2):
        piconet.add_slave()
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.add_flow(FlowSpec(2, slave=2, direction=UPLINK, traffic_class=BE))
    manager = GuaranteedServiceManager(M_T)
    poller = PredictiveFairPoller(manager)
    piconet.attach_poller(poller)
    CBRSource(piconet, 1, 0.010, 176).start()   # slave 2 stays silent
    piconet.run(2.0)
    served = poller._be_slaves
    assert served[1].served_slots > 3 * served[2].served_slots


def test_gs_delay_bound_met_in_presence_of_be_load():
    piconet, manager, _poller = build_gs_be_piconet()
    CBRSource(piconet, 1, 0.020, (144, 176)).start()
    CBRSource(piconet, 2, 0.003, 176).start()
    CBRSource(piconet, 3, 0.003, 176).start()
    piconet.run(5.0)
    state = piconet.flow_state(1)
    assert state.delivered_packets > 200
    assert state.delays.maximum <= 0.030 + 1e-9
    assert manager.delay_bound_for(1) <= 0.030 + 1e-9


def test_gs_poll_marks_unsuccessful_when_no_data():
    piconet, manager, poller = build_gs_be_piconet()
    # no traffic at all: the first GS poll finds nothing
    piconet.run(0.05)
    planner = manager.planner_for(1)
    assert planner.unsuccessful_polls >= 1
    assert piconet.gs_polls_without_data >= 1


def test_uplink_prediction_counts_a_multi_segment_packet_once_on_its_last():
    piconet = Piconet()
    piconet.add_slave()
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    poller = PredictiveFairPoller(GuaranteedServiceManager(M_T))
    piconet.attach_poller(poller)
    seen = []
    notify = poller.notify

    def recording_notify(outcome):
        notify(outcome)
        seen.append((len(outcome.deliveries),
                     [d.is_last_segment for d in outcome.deliveries],
                     poller._ul_predictions[1].packets_seen))

    poller.notify = recording_notify
    # 400 bytes: DH3 + DH3 + DH1, one segment per uplink poll
    piconet.offer_packet(1, 400)
    piconet.run(0.02)
    assert piconet.flow_state(1).segments_delivered == 3
    assert piconet.flow_state(1).delivered_packets == 1
    carrying = [entry for entry in seen if entry[0]]
    assert [entry[1] for entry in carrying] == [[False], [False], [True]]
    assert [entry[2] for entry in carrying] == [0, 0, 1]
    assert seen[-1][2] == 1
