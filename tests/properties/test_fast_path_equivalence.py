"""Property test: the master's heap bypass is byte-identical to the heap.

A master's :class:`~repro.sim.events.LoopWakeup` resumes its loop without
the heap round trip when nothing is due first and fires traffic sources
inline.  It promises the heap's event order, event ids and RNG draws, so
for *any* valid scenario the results must match a run in which the master
re-arms through the heap after every step (``LoopWakeup._fire`` patched
to ``heap_path_fire`` of ``tests/heap_path.py``) exactly, not
approximately.  This test draws randomized
scenarios (single piconets, interference fields, scatternet bridges; SCO
links, adaptive segmentation, every poller kind, ideal/iid/Gilbert-Elliott
channels) from the same strategies the serialization property tests use,
runs each both ways, and compares every piconet's per-flow statistics,
per-packet delay samples, slot ledger and the event-id counter.

The bypass fires sources inline, so a second strategy aims at
heap-order ties: slot-aligned CBR sources (intervals of whole slots,
start offsets on even slots, where transactions end), compiled or added
beside the compiled ones, and a timeline ``flow-remove`` that stops a
source between two master steps.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_scenario_properties import scenario_specs

from heap_path import heap_path_fire
from repro.scenario import (
    BASELINE_POLLER_KINDS,
    ChannelSpec,
    EventSpec,
    FlowSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
    TimelineSpec,
    compile_scenario,
)
from repro.sim.events import LoopWakeup
from repro.traffic.sources import CBRSource

DURATION_S = 0.4
SEED = 7
SLOT_S = 625e-6


#: the hooks that run at every data commit: a delivered segment, or a
#: failed one booked for ARQ
COMMIT_HOOKS = ("_deliver", "record_failure")


def _log_order(piconet):
    """Log arrivals and data commits of ``piconet`` in the order they
    happen.

    A tie between an arrival and a commit at the same instant resolves
    by heap order; the log makes a wrong resolution visible even when
    no statistic depends on it.
    """
    log = []
    env = piconet.env

    def hook(owner, name):
        def logged(*args, _call=getattr(owner, name), **kwargs):
            log.append((name, env.now))
            return _call(*args, **kwargs)
        setattr(owner, name, logged)

    hook(piconet, "offer_packet")
    hook(piconet, "_deliver")
    for state in piconet.flow_states():
        hook(state, "record_failure")
    return log


def _observed(spec, bypass, sources=()):
    """Run one variant and capture everything the repo reports on.

    Without ``bypass`` every master re-arms through the heap.

    Each of ``sources`` builds, from the primary piconet, an extra
    traffic source, which then starts with the compiled ones (and a
    ``flow-remove`` of its flow stops it).

    Serialized through JSON so NaN delay percentiles (flows that delivered
    nothing) compare equal instead of failing ``==``.  Some randomized
    specs are rejected at compile/run time (e.g. extreme Gilbert-Elliott
    parameters, unsatisfiable SCO reservations); the rejection is
    deterministic behaviour both paths must reproduce identically, so the
    error becomes the observation instead of discarding the example.
    """
    with pytest.MonkeyPatch.context() as patch:
        if not bypass:
            patch.setattr(LoopWakeup, "_fire", heap_path_fire)
        try:
            compiled = compile_scenario(spec, seed=SEED)
            primary = compiled.primary
            primary.sources.extend(
                build(primary.piconet) for build in sources)
            order = _log_order(primary.piconet)
            compiled.run(DURATION_S)
        except ValueError as error:
            return f"ValueError: {error}"
    if any(state.segments_delivered
           for state in primary.piconet.flow_states()):
        # a hook that no longer runs would leave the log silently empty
        assert any(name in COMMIT_HOOKS for name, _when in order)
    observed = {"timeline": compiled.timeline_log, "order": order,
                # every bypassed master step took its event id
                "event_ids": compiled.env._eid,
                "heap": sorted((when, eid) for when, eid, _event
                               in compiled.env._queue)}
    for name, piconet in compiled.piconets.items():
        pic = piconet.piconet
        observed[name] = {
            "slots": pic.slot_accounting(),
            "flows": {state.spec.flow_id: pic.flow_stats(state.spec.flow_id)
                      for state in pic.flow_states()},
            "delays": {state.spec.flow_id: state.delays.samples
                       for state in pic.flow_states()},
            "generated": [source.packets_generated
                          for source in piconet.sources],
        }
    return json.dumps(observed, sort_keys=True)


@given(scenario_specs())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fast_path_results_byte_identical(spec):
    assert _observed(spec, bypass=True) == _observed(spec, bypass=False)


@st.composite
def _extra_source(draw, flow_id):
    """A factory of one CBR source whose arrivals tend to tie with
    commits."""
    seed = draw(st.integers(0, 2**16))
    size = draw(st.one_of(st.integers(1, 600), st.tuples(
        st.integers(1, 200), st.integers(200, 600))))
    slots = draw(st.integers(1, 12))
    # even slots: with or without alignment, transactions end there
    offset = draw(st.integers(0, 8)) * 2 * SLOT_S
    return lambda piconet: CBRSource(
        piconet, flow_id, slots * SLOT_S, size,
        rng=random.Random(seed), start_offset=offset)


@st.composite
def tie_order_cases(draw):
    slave_count = draw(st.integers(1, 4))
    flows, sources = [], []
    for flow_id in range(1, draw(st.integers(1, 5)) + 1):
        slave = draw(st.integers(1, slave_count))
        direction = draw(st.sampled_from(["UL", "DL"]))
        if draw(st.booleans()):
            # a compiled, slot-aligned CBR source (GS flows get admission)
            traffic_class = draw(st.sampled_from(["GS", "BE"]))
            flows.append(FlowSpec(
                flow_id, slave=slave, direction=direction,
                traffic_class=traffic_class,
                interval_s=draw(st.integers(2, 64)) * SLOT_S,
                size=draw(st.integers(1, 300)),
                delay_bound=(draw(st.sampled_from([0.02, 0.04, 0.1]))
                             if traffic_class == "GS" else None)))
        else:
            flows.append(FlowSpec(flow_id, slave=slave, direction=direction,
                                  traffic_class="BE"))
            if draw(st.booleans()):
                sources.append(draw(_extra_source(flow_id)))
    events = ()
    if draw(st.booleans()):
        events = (EventSpec(
            at_s=draw(st.integers(1, 200)) * 2 * SLOT_S, kind="flow-remove",
            flow_id=draw(st.integers(1, len(flows)))),)
    kinds = ("round_robin",) + BASELINE_POLLER_KINDS
    if any(flow.traffic_class == "GS" for flow in flows):
        kinds = ("pfp",) + kinds  # the paper's poller needs a GS flow
    kind = draw(st.sampled_from(kinds))
    piconet = PiconetSpec(
        name="ties", slaves=tuple(f"s{i}" for i in range(slave_count)),
        flows=tuple(flows),
        allowed_types=draw(st.sampled_from(
            [("DH1", "DH3", "DH5"), ("DH1",), ("DM1", "DM3")])),
        align_even_slots=draw(st.booleans()),
        channel=ChannelSpec(model=draw(st.sampled_from(["ideal", "iid"])),
                            ber=draw(st.floats(0.0, 1e-3))),
        poller=PollerSpec(kind=kind))
    return (ScenarioSpec(piconets=(piconet,),
                         timeline=TimelineSpec(events=events)),
            tuple(sources))


@given(tie_order_cases())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_arrivals_tied_with_commits_are_byte_identical(case):
    spec, sources = case
    assert (_observed(spec, True, sources)
            == _observed(spec, False, sources))
