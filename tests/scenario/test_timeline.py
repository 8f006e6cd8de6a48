"""Tests of the timeline subsystem: spec validation and runtime events.

The spec side (``EventSpec`` / ``TimelineSpec`` and the cross-checks
``ScenarioSpec`` runs over them) is pinned first; then each event kind is
driven end to end through a compiled scenario — park/unpark with GS
withdraw/re-admission, mid-run flow add/remove, bridge roaming,
interferer switching, and renegotiate-on-violation including the
eviction path (a rejected renegotiation must fully detach the flow).
The fast-path interaction is covered by running the same timeline
scenario on the batch kernel and the reference event loop and comparing
the ledgers byte for byte.
"""

import json
from dataclasses import replace

import pytest

from repro.piconet.batch_kernel import NO_FAST_PATH_ENV
from repro.scenario import (
    EventSpec,
    ScenarioSpec,
    TimelineSpec,
    apply_overrides,
    bridge_split_spec,
    churn_recovery_spec,
    compile_scenario,
)
from repro.scenario.factories import figure4_spec


def _timeline_spec(*events) -> ScenarioSpec:
    return replace(figure4_spec(delay_requirement=0.040),
                   timeline=TimelineSpec(events=tuple(events)))


# -- EventSpec / TimelineSpec validation --------------------------------------

def test_unknown_event_kind_rejected():
    with pytest.raises(ValueError, match="unknown event kind"):
        EventSpec(at_s=0.1, kind="explode")


def test_event_missing_needed_fields_rejected():
    with pytest.raises(ValueError, match="needs"):
        EventSpec(at_s=0.1, kind="park")
    with pytest.raises(ValueError, match="needs"):
        EventSpec(at_s=0.1, kind="bridge-roam", bridge="b")  # no share_a


def test_event_with_unused_fields_rejected():
    with pytest.raises(ValueError, match="does not use"):
        EventSpec(at_s=0.1, kind="park", slave=1, interferer=2)


def test_timeline_must_be_ordered_by_time():
    with pytest.raises(ValueError, match="ordered by at_s"):
        TimelineSpec(events=(
            EventSpec(at_s=0.5, kind="park", slave=1),
            EventSpec(at_s=0.2, kind="unpark", slave=1)))


def test_scenario_rejects_parking_a_bridge_slave():
    spec = bridge_split_spec(bridge_share=0.5)
    with pytest.raises(ValueError, match="bridge slave"):
        replace(spec, timeline=TimelineSpec(events=(
            EventSpec(at_s=0.1, kind="park", piconet="A", slave=3),)))


def test_scenario_rejects_duplicate_flow_add():
    flow = figure4_spec(delay_requirement=0.04).piconets[0].flows[0]
    with pytest.raises(ValueError, match="re-uses flow id"):
        _timeline_spec(EventSpec(at_s=0.1, kind="flow-add", flow=flow))


def test_scenario_rejects_out_of_range_interferer():
    spec = churn_recovery_spec(interferers=2)
    with pytest.raises(ValueError, match="interferer 3"):
        replace(spec, timeline=TimelineSpec(events=(
            EventSpec(at_s=0.1, kind="interferer-on", interferer=3),)))


def test_scenario_rejects_interferer_event_without_field():
    with pytest.raises(ValueError, match="interference field"):
        _timeline_spec(EventSpec(at_s=0.1, kind="interferer-on",
                                 interferer=1))


def test_scenario_rejects_renegotiating_unknown_flow():
    with pytest.raises(ValueError, match="unknown flow id"):
        _timeline_spec(EventSpec(at_s=0.1, kind="flow-renegotiate",
                                 flow_id=99))


def test_flow_remove_then_readd_is_legal():
    flow = figure4_spec(delay_requirement=0.04).piconets[0].flows[0]
    spec = _timeline_spec(
        EventSpec(at_s=0.1, kind="flow-remove", flow_id=flow.flow_id),
        EventSpec(at_s=0.2, kind="flow-add", flow=flow))
    assert len(spec.timeline.events) == 2


def test_timeline_spec_round_trips_through_json():
    spec = churn_recovery_spec()
    wire = json.dumps(spec.to_dict(), sort_keys=True)
    assert ScenarioSpec.from_dict(json.loads(wire)) == spec


def test_timeline_fields_reachable_by_dotted_override():
    spec = churn_recovery_spec()
    mutated = apply_overrides(spec, {"timeline.events.8.tolerance": 0.04})
    assert mutated.timeline.events[8].tolerance == 0.04
    with pytest.raises(ValueError):
        apply_overrides(spec, {"timeline.events.8.nonsense": 1})


# -- runtime: event execution -------------------------------------------------

def test_empty_timeline_installs_nothing():
    compiled = compile_scenario(figure4_spec(delay_requirement=0.04), seed=1)
    compiled.run(0.1)
    assert compiled.timeline_log == []
    accounting = compiled.primary.piconet.slot_accounting()
    assert "topology_changes" not in accounting
    assert "parked_slaves" not in accounting


def test_park_withdraws_and_unpark_readmits_gs_flow():
    spec = _timeline_spec(
        EventSpec(at_s=0.2, kind="park", slave=1),
        EventSpec(at_s=0.4, kind="unpark", slave=1))
    compiled = compile_scenario(spec, seed=1)
    compiled.run(0.8)
    park, unpark = compiled.timeline_log
    assert park["kind"] == "park" and park["gs_withdrawn"] == [1]
    assert park["parked_flows"] == [1]
    assert unpark["kind"] == "unpark"
    assert unpark["gs_readmitted"] == {"1": True}
    # the flow is attached and admitted again, and kept delivering after
    piconet = compiled.primary.piconet
    assert piconet.parked_slaves() == []
    assert 1 in compiled.primary.manager.admitted_flow_ids()
    assert piconet.flow_state(1).delivered_packets > 0
    accounting = piconet.slot_accounting()
    assert accounting["topology_changes"] == 2
    assert "parked_slaves" not in accounting  # nobody parked at the end


def test_parked_slave_queues_but_is_not_polled():
    spec = _timeline_spec(EventSpec(at_s=0.1, kind="park", slave=4))
    compiled = compile_scenario(spec, seed=1)
    compiled.run(0.5)
    piconet = compiled.primary.piconet
    assert piconet.parked_slaves() == [4]
    # arrivals kept queueing into the parked states, none were delivered
    # after the park (BE slave 4 carries flows of both directions)
    parked = [state for state in piconet._parked_states.values()
              if state.spec.slave == 4]
    assert parked and any(state.queue.offered_packets > 0
                          for state in parked)
    assert piconet.slot_accounting()["parked_slaves"] == [4]


def test_flow_add_and_remove_mid_run():
    base = figure4_spec(delay_requirement=0.040)
    new_flow = replace(base.piconets[0].flows[4], flow_id=99,
                       rng_stream="be-99")
    spec = replace(base, timeline=TimelineSpec(events=(
        EventSpec(at_s=0.1, kind="flow-add", flow=new_flow),
        EventSpec(at_s=0.4, kind="flow-remove", flow_id=99))))
    compiled = compile_scenario(spec, seed=1)
    compiled.run(0.3)
    added = compiled.timeline_log[0]
    assert added["kind"] == "flow-add" and added["flow_id"] == 99
    assert 99 in compiled.primary.be_flow_ids
    state = compiled.primary.piconet.flow_state(99)
    assert state.queue.offered_packets > 0
    compiled.run(0.8)
    removed = compiled.timeline_log[1]
    assert removed["kind"] == "flow-remove"
    assert removed["gs_withdrawn"] is False
    assert 99 not in compiled.primary.piconet._states
    offered_at_removal = state.queue.offered_packets
    compiled.run(1.0)  # the stopped source must not offer anything more
    assert state.queue.offered_packets == offered_at_removal


def test_bridge_roam_rebalances_residency():
    spec = bridge_split_spec(bridge_share=0.9)
    spec = replace(spec, timeline=TimelineSpec(events=(
        EventSpec(at_s=0.3, kind="bridge-roam", bridge="bridge",
                  share_a=0.2),)))
    compiled = compile_scenario(spec, seed=1)
    compiled.run(0.8)
    roam, = compiled.timeline_log
    assert roam["kind"] == "bridge-roam" and roam["share_a"] == 0.2
    bridge = compiled.scatternet.bridge("bridge")
    assert bridge.schedule.share_a == 0.2
    # both masters re-registered the new presence pattern
    for role, (piconet_name, slave) in bridge.residences.items():
        piconet = compiled.piconet(piconet_name).piconet
        assert piconet._bridge_presence[slave] is not None


def test_interferer_switches_gate_collision_losses():
    # all interferers off for the whole run: no collision losses at all
    quiet = churn_recovery_spec(burst_start_s=1.0, renegotiate_at_s=1.0)
    compiled = compile_scenario(quiet, seed=1)
    compiled.run(0.5)
    assert compiled.interference_failures() == 0

    # burst at 0.1s: losses appear once the interferers switch on
    noisy = churn_recovery_spec(burst_start_s=0.1, renegotiate_at_s=1.0)
    compiled = compile_scenario(noisy, seed=1)
    compiled.run(0.5)
    assert compiled.interference_failures() > 0


def test_renegotiation_recovers_the_flagged_flow():
    compiled = compile_scenario(churn_recovery_spec(), seed=0)
    compiled.run(1.0)
    record = next(r for r in compiled.timeline_log
                  if r["kind"] == "flow-renegotiate")
    assert record["outcome"] == "renegotiated"
    assert record["measured_loss"] > 0.02
    manager = compiled.primary.manager
    assert 1 in manager.admitted_flow_ids()
    # the renewed reservation carries the raised (non-zero) loss budget
    budget = manager.setup(1).request.budget
    assert budget is not None and budget.loss_probability > 0.0


def test_rejected_renegotiation_evicts_the_flow_completely():
    """Satellite regression: an evicted flow gets zero further GS service."""
    compiled = compile_scenario(churn_recovery_spec(), seed=0)
    manager = compiled.primary.manager
    piconet = compiled.primary.piconet
    compiled.run(0.4)  # past the burst: real loss is being observed
    # drive the measured loss of flow 1's link to a level no admission
    # test can cover, so the timeline's renegotiation at 0.5s must reject
    for _ in range(400):
        manager.observe_link(1, "UL", error=True)
    compiled.run(0.7)
    record = next(r for r in compiled.timeline_log
                  if r["kind"] == "flow-renegotiate")
    assert record["outcome"] == "evicted"
    assert "reason" in record
    assert 1 not in manager.admitted_flow_ids()
    assert manager.stream_for(1) is None
    assert 1 not in piconet._states  # state and segments fully detached
    state = compiled.primary.piconet._parked_states.get(1)
    assert state is None
    delivered = compiled.primary.gs_delay_summary()[1]["packets"]
    compiled.run(1.2)  # half a second more: not a single further delivery
    assert compiled.primary.gs_delay_summary()[1]["packets"] == delivered


# -- runtime: fast-path byte-identity -----------------------------------------

def _ledger(compiled):
    primary = compiled.primary
    return (primary.piconet.slot_accounting(),
            primary.slave_throughputs_kbps(),
            primary.gs_delay_summary(),
            compiled.timeline_log)


def test_park_unpark_byte_identical_fast_vs_reference(monkeypatch):
    spec = _timeline_spec(
        EventSpec(at_s=0.2, kind="park", slave=1),
        EventSpec(at_s=0.4, kind="unpark", slave=1))

    monkeypatch.delenv(NO_FAST_PATH_ENV, raising=False)
    fast = compile_scenario(spec, seed=3)
    fast.run(0.8)
    assert fast.primary.piconet.fast_path_stats()["enabled"]

    monkeypatch.setenv(NO_FAST_PATH_ENV, "1")
    reference = compile_scenario(spec, seed=3)
    reference.run(0.8)
    assert not reference.primary.piconet.fast_path_stats()["enabled"]

    assert _ledger(fast) == _ledger(reference)


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("fast_path", [True, False])
def test_raising_timeline_action_aborts_the_run_at_its_time(
        monkeypatch, fast_path):
    # the runner process fails with nobody waiting on it.  At 202.5 ms the
    # master resumes between the push and the pop of that failure, so only
    # "a failed event is never absorbable" keeps it out of a kernel window:
    # it must abort Environment.run from the event loop
    boom = _Boom("flow-remove failed")

    def raising(cp, event, record):
        raise boom

    monkeypatch.setattr("repro.scenario.timeline._run_flow_remove", raising)
    if fast_path:
        monkeypatch.delenv(NO_FAST_PATH_ENV, raising=False)
    else:
        monkeypatch.setenv(NO_FAST_PATH_ENV, "1")
    compiled = compile_scenario(_timeline_spec(
        EventSpec(at_s=0.2025, kind="flow-remove", flow_id=2)), seed=3)
    with pytest.raises(_Boom) as raised:
        compiled.run(0.8)
    assert raised.value is boom
    assert not any(entry.frame.code.name == "_absorb"
                   for entry in raised.traceback)
    assert compiled.env.now == 202_500
    assert compiled.timeline_log == []
    stats = compiled.primary.piconet.fast_path_stats()
    assert stats["enabled"] == fast_path
    if fast_path:
        assert stats["windows"] > 0


def test_timeline_events_bail_out_the_kernel():
    spec = _timeline_spec(
        EventSpec(at_s=0.2, kind="park", slave=4),
        EventSpec(at_s=0.4, kind="unpark", slave=4))
    compiled = compile_scenario(spec, seed=1)
    compiled.run(0.8)
    stats = compiled.primary.piconet.fast_path_stats()
    assert stats["enabled"]
    assert stats["bailouts"]["topology"] >= 2  # one per topology change
