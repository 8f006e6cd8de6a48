"""Tests of the GuaranteedServiceManager (rate negotiation, planners, export)."""

import pytest

from repro.core import GuaranteedServiceManager, cbr_tspec
from repro.core.planning import FixedIntervalPlanner, VariableIntervalPlanner
from repro.piconet.flows import DOWNLINK, FlowSpec, GS, UPLINK

M_T = 6 * 625e-6


def gs_spec(flow_id, slave, direction=UPLINK):
    return FlowSpec(flow_id, slave=slave, direction=direction, traffic_class=GS)


@pytest.fixture
def tspec():
    return cbr_tspec(0.020, 144, 176)


def test_add_flow_requires_exactly_one_of_rate_and_bound(tspec):
    manager = GuaranteedServiceManager(M_T)
    with pytest.raises(ValueError):
        manager.add_flow(gs_spec(1, 1), tspec)
    with pytest.raises(ValueError):
        manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0, delay_bound=0.04)


def test_add_flow_rejects_non_gs_spec(tspec):
    manager = GuaranteedServiceManager(M_T)
    be_spec = FlowSpec(1, slave=1, direction=UPLINK, traffic_class="BE")
    with pytest.raises(ValueError):
        manager.add_flow(be_spec, tspec, rate=9000.0)


def test_rate_based_admission_and_derived_quantities(tspec):
    manager = GuaranteedServiceManager(M_T)
    setup = manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0)
    assert setup.accepted
    assert setup.eta_min == pytest.approx(144.0)
    assert setup.interval == pytest.approx(144.0 / 9000.0)
    assert manager.stream_for(1).priority == 1
    assert manager.stream_for(1).wait_bound == pytest.approx(M_T)
    terms = manager.error_terms_for(1)
    assert terms.c_bytes == pytest.approx(144.0)
    assert terms.d_seconds == pytest.approx(M_T)


def test_delay_bound_negotiation_meets_target(tspec):
    manager = GuaranteedServiceManager(M_T)
    target = 0.030
    setup = manager.add_flow(gs_spec(1, 1), tspec, delay_bound=target)
    assert setup.accepted
    assert manager.delay_bound_for(1) <= target + 1e-9
    assert setup.rate >= tspec.r


def test_delay_bound_negotiation_loose_target_uses_token_rate(tspec):
    manager = GuaranteedServiceManager(M_T)
    setup = manager.add_flow(gs_spec(1, 1), tspec, delay_bound=0.5)
    assert setup.accepted
    assert setup.rate == pytest.approx(tspec.r)


def test_infeasible_delay_bound_rejected(tspec):
    manager = GuaranteedServiceManager(M_T)
    # tighter than the rate-independent deviation (u >= 3.75 ms)
    setup = manager.add_flow(gs_spec(1, 1), tspec, delay_bound=0.003)
    assert not setup.accepted
    assert manager.admitted_flow_ids() == []


def test_duplicate_flow_id_rejected(tspec):
    manager = GuaranteedServiceManager(M_T)
    manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0)
    with pytest.raises(ValueError):
        manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0)


def test_planner_type_follows_configuration(tspec):
    variable = GuaranteedServiceManager(M_T, variable_interval=True)
    variable.add_flow(gs_spec(1, 1), tspec, rate=9000.0)
    assert isinstance(variable.planner_for(1), VariableIntervalPlanner)
    fixed = GuaranteedServiceManager(M_T, variable_interval=False)
    fixed.add_flow(gs_spec(1, 1), tspec, rate=9000.0)
    assert isinstance(fixed.planner_for(1), FixedIntervalPlanner)


def test_piggybacked_pair_shares_one_planner(tspec):
    manager = GuaranteedServiceManager(M_T)
    manager.add_flow(gs_spec(2, 2, DOWNLINK), tspec, rate=9000.0)
    manager.add_flow(gs_spec(3, 2, UPLINK), tspec, rate=9000.0)
    streams = manager.streams
    assert len(streams) == 1
    assert set(streams[0].flow_ids) == {2, 3}
    assert manager.stream_for(2).priority \
        == manager.stream_for(3).priority == 1


def test_first_due_follows_priority_order(tspec):
    manager = GuaranteedServiceManager(M_T)
    for flow_id, slave in [(1, 1), (2, 2), (3, 3)]:
        manager.add_flow(gs_spec(flow_id, slave), tspec, rate=9000.0)
    served = []
    # all three are due at 0: each poll hands the turn to the next priority
    while (stream := manager.first_due(0.0, lambda fid: True)) is not None:
        served.append(stream.priority)
        manager.record_poll(stream.primary.flow_id, 0.0, None)
    assert served == [1, 2, 3]


def test_first_due_respects_downlink_skip(tspec):
    manager = GuaranteedServiceManager(M_T)
    manager.add_flow(gs_spec(1, 1, DOWNLINK), tspec, rate=9000.0)
    assert manager.first_due(0.0, downlink_has_data=lambda fid: False) is None
    stream = manager.first_due(0.0, downlink_has_data=lambda fid: True)
    assert stream.primary.flow_id == 1


def test_record_poll_advances_planner(tspec):
    manager = GuaranteedServiceManager(M_T)
    manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0)
    planner = manager.planner_for(1)
    before = planner.next_planned
    manager.record_poll(1, actual_time=0.001, served=None)
    assert planner.next_planned > before


def test_existing_planner_state_preserved_when_new_flow_added(tspec):
    manager = GuaranteedServiceManager(M_T)
    manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0)
    manager.record_poll(1, actual_time=0.0, served=None)
    planned = manager.planner_for(1).next_planned
    manager.add_flow(gs_spec(2, 2), tspec, rate=9000.0)
    assert manager.planner_for(1).next_planned == pytest.approx(planned)


def test_next_planned_poll(tspec):
    manager = GuaranteedServiceManager(M_T)
    assert manager.next_planned_poll() is None
    manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0, start_time=2.0)
    assert manager.next_planned_poll() == pytest.approx(2.0)


# ------------------------------------------------- budget-aware admission

from repro.core.link_budget import LinkBudget  # noqa: E402


def budgeted_manager(budgets):
    return GuaranteedServiceManager(M_T, link_budgets=budgets)


def test_lossy_budget_raises_negotiated_rate(tspec):
    oblivious = GuaranteedServiceManager(M_T)
    lossy = budgeted_manager(
        {(1, UPLINK): LinkBudget(loss_probability=0.5)})
    plain = oblivious.add_flow(gs_spec(1, 1), tspec, delay_bound=0.040)
    aware = lossy.add_flow(gs_spec(1, 1), tspec, delay_bound=0.040)
    assert plain.accepted and aware.accepted
    # the inflated C term (expected retransmissions) demands a higher rate
    assert aware.rate > plain.rate
    plain_terms = oblivious.error_terms_for(1)
    aware_terms = lossy.error_terms_for(1)
    assert aware_terms.c_bytes == pytest.approx(plain_terms.c_bytes * 2.0)


def test_absence_enters_wait_bound_and_d_term(tspec):
    absence = 0.004
    manager = budgeted_manager(
        {(1, UPLINK): LinkBudget(absence_seconds=absence)})
    setup = manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0)
    assert setup.accepted
    assert manager.stream_for(1).wait_bound == pytest.approx(M_T + absence)
    terms = manager.error_terms_for(1)
    assert terms.d_seconds == pytest.approx(M_T + absence + absence)


def test_residency_deflates_planner_interval(tspec):
    manager = budgeted_manager({(1, UPLINK): LinkBudget(residency=0.5)})
    setup = manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0)
    assert setup.accepted
    planner = manager.planner_for(1)
    assert planner.config.interval == pytest.approx(setup.interval * 0.5)


def test_observe_link_feeds_flagging(tspec):
    manager = budgeted_manager(
        {(1, UPLINK): LinkBudget(loss_probability=0.1)})
    manager.add_flow(gs_spec(1, 1), tspec, rate=9000.0)
    assert manager.measured_loss(1, UPLINK) is None
    assert manager.flagged_flows() == []
    for _ in range(100):
        manager.observe_link(1, UPLINK, error=True)
    assert manager._estimators[(1, UPLINK)].observations == 100
    assert manager.measured_loss(1, UPLINK) > 0.5
    assert manager.flagged_flows() == [1]
    # a link tracking its budget is never flagged
    manager.add_flow(gs_spec(2, 2), tspec, rate=9000.0)
    for _ in range(100):
        manager.observe_link(2, UPLINK, error=False)
    assert manager.flagged_flows() == [1]


def test_renegotiate_flow_raises_budget_and_rate(tspec):
    manager = budgeted_manager(
        {(1, UPLINK): LinkBudget(loss_probability=0.0)})
    first = manager.add_flow(gs_spec(1, 1), tspec, delay_bound=0.040)
    assert first.accepted
    for _ in range(200):
        manager.observe_link(1, UPLINK, error=True)
        manager.observe_link(1, UPLINK, error=False)
    assert manager.flagged_flows() == [1]
    renewed = manager.renegotiate_flow(1, now=1.0)
    assert renewed.accepted
    assert renewed.rate > first.rate
    # the raised budget sticks on the link
    raised = manager.budget_for(1, UPLINK)
    assert raised.loss_probability == pytest.approx(
        manager.measured_loss(1, UPLINK))


def test_renegotiate_rejection_leaves_flow_removed(tspec):
    manager = budgeted_manager({(1, UPLINK): LinkBudget()})
    setup = manager.add_flow(gs_spec(1, 1), tspec, delay_bound=0.040)
    assert setup.accepted
    # a link measuring near-total loss cannot be re-admitted at any rate
    for _ in range(400):
        manager.observe_link(1, UPLINK, error=True)
    renewed = manager.renegotiate_flow(1, now=1.0)
    assert not renewed.accepted
    assert manager.streams == []
    assert manager.next_planned_poll() is None
    with pytest.raises(KeyError):
        manager.renegotiate_flow(1)


def test_unknown_renegotiation_raises(tspec):
    manager = GuaranteedServiceManager(M_T)
    with pytest.raises(KeyError):
        manager.renegotiate_flow(9)
