"""PFP's incremental state against the full scans it replaces.

PFP keeps its best-effort slaves in fairness order and the GS manager
keeps the earliest planned poll, both updated only where a key or a
planned time moves.  These properties replay random sequences of
arrivals, polls with their notifications, flow detach/re-attach and GS
withdraw/re-admit, and check every selection against a brute-force
scan: the best-effort slave against the minimum key over every slave
predicted to have data, the GS stream against the first due planner in
priority order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseband.constants import SLOT_US
from repro.core import GuaranteedServiceManager, PredictiveFairPoller, cbr_tspec
from repro.core.pfp import AVAILABILITY_THRESHOLD
from repro.piconet import FlowSpec, Piconet
from repro.piconet.flows import BE, DOWNLINK, GS, UPLINK
from repro.schedulers.base import KIND_BE, PollOutcome

M_T = 6 * 625e-6

#: flow id -> (slave, direction, class): a pure uplink, a pure downlink
#: (improvement 3 may skip it) and a piggybacked GS pair; best-effort
#: slaves with downlink, uplink, both, and two uplinks
FLOWS = {
    1: (1, UPLINK, GS),
    2: (2, DOWNLINK, GS),
    3: (3, DOWNLINK, GS),
    4: (3, UPLINK, GS),
    5: (4, DOWNLINK, BE),
    6: (4, UPLINK, BE),
    7: (5, UPLINK, BE),
    8: (5, UPLINK, BE),
    9: (6, DOWNLINK, BE),
    10: (7, UPLINK, BE),
}
GS_FLOWS = [fid for fid, (_s, _d, cls) in FLOWS.items() if cls == GS]

OPERATIONS = st.lists(
    st.tuples(st.sampled_from(("arrive", "poll", "poll", "poll", "idle",
                               "detach", "withdraw")),
              st.integers(min_value=0, max_value=10_000)),
    min_size=1, max_size=80)


def _build():
    piconet = Piconet()
    for _ in range(7):
        piconet.add_slave()
    for flow_id, (slave, direction, cls) in FLOWS.items():
        piconet.add_flow(FlowSpec(flow_id, slave=slave, direction=direction,
                                  traffic_class=cls))
    manager = GuaranteedServiceManager(M_T)
    tspec = cbr_tspec(0.020, 144, 176)
    for flow_id in GS_FLOWS:
        setup = manager.add_flow(piconet.flow_state(flow_id).spec, tspec,
                                 rate=9000.0)
        assert setup.accepted
    poller = PredictiveFairPoller(manager)
    piconet.attach_poller(poller)
    return piconet, manager, poller


def _brute_force_be(poller, now):
    """The slave a full scan over every best-effort slave picks."""
    best = None
    for state in poller._be_slaves.values():
        if poller._slave_availability(state, now) < AVAILABILITY_THRESHOLD:
            continue
        key = (state.served_slots, state.last_polled_at, state.slave)
        if best is None or key < best:
            best = key
    return best[2] if best is not None else None


def _brute_force_gs(manager, now, has_data):
    """The first stream, in priority order, whose planner is due."""
    for stream in manager.streams:
        primary = stream.primary
        downlink_only = (stream.secondary is None
                         and primary.direction == DOWNLINK)
        if manager.planner_for(primary.flow_id).is_due(
                now, has_data(primary.flow_id) if downlink_only else None):
            return stream
    return None


def _execute(piconet, plan, now, draw):
    """Serve ``plan`` like the master would, deliveries and all."""
    deliveries = []
    carried = {}
    slots = 0
    for direction, flow_id in ((DOWNLINK, plan.dl_flow_id),
                               (UPLINK, plan.ul_flow_id)):
        state = piconet._states.get(flow_id)
        segment = state.queue.peek_segment() if state is not None else None
        slots += segment.ptype.slots if segment is not None else 1
        # one segment in four is lost and stays queued (ARQ)
        carried[direction] = segment is not None and draw % 4 != 0
        if carried[direction]:
            state.queue.confirm_segment()
            deliveries.append(segment)
        draw //= 4
    return PollOutcome(plan=plan, start=now, end=now + slots * SLOT_US,
                       slots=slots, dl_carried_data=carried[DOWNLINK],
                       ul_carried_data=carried[UPLINK],
                       deliveries=deliveries)


@settings(max_examples=300, deadline=None)
@given(operations=OPERATIONS)
def test_incremental_selection_matches_full_scans(operations):
    piconet, manager, poller = _build()
    detached = {}
    withdrawn = {}
    now = 0
    for operation, value in operations:
        flow_ids = sorted(FLOWS)
        flow_id = flow_ids[value % len(flow_ids)]
        if operation == "arrive":
            if flow_id in piconet._states:
                piconet.offer_packet(flow_id, 20 + value % 320)
        elif operation == "idle":
            now += (1 + value % 40) * SLOT_US
        elif operation == "detach":
            # a second draw of the same flow re-attaches it
            if flow_id in detached:
                piconet.attach_flow_state(detached.pop(flow_id))
            elif FLOWS[flow_id][2] == BE:
                detached[flow_id] = piconet.detach_flow(flow_id)
        elif operation == "withdraw":
            gs_flow = GS_FLOWS[value % len(GS_FLOWS)]
            if gs_flow in withdrawn:
                setup = withdrawn.pop(gs_flow)
                if not manager.readmit(setup, now / 1e6).accepted:
                    withdrawn[gs_flow] = setup
            else:
                withdrawn[gs_flow] = manager.withdraw_flow(gs_flow,
                                                           now / 1e6)
        else:
            seconds = now / 1e6
            has_data = poller.downlink_has_data
            expected_gs = _brute_force_gs(manager, seconds, has_data)
            assert manager.first_due(seconds, has_data) is expected_gs
            expected_be = _brute_force_be(poller, now)
            plan = poller.select(now)
            if expected_gs is None:
                assert (plan.slave if plan is not None else None) \
                    == expected_be
                assert plan is None or plan.kind == KIND_BE
            else:
                assert plan.gs_flow_id == expected_gs.primary.flow_id
            if plan is None:
                now += 2 * SLOT_US
            else:
                outcome = _execute(piconet, plan, now, value)
                poller.notify(outcome)
                now = outcome.end
        assert manager.next_planned_poll() == min(
            (manager.planner_for(stream.primary.flow_id).next_planned
             for stream in manager.streams), default=None)
        entries = poller._be_order
        assert entries == sorted(entries)
        assert [entry[3] for entry in entries] \
            == sorted(poller._be_slaves.values(),
                      key=lambda state: (state.served_slots,
                                         state.last_polled_at, state.slave))
