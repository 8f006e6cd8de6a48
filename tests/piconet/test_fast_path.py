"""Unit tests of the master's heap bypass.

A master's :class:`~repro.sim.events.LoopWakeup` resumes its TDD loop
without the heap round trip whenever nothing is due before its next
step, and fires traffic-source wake-ups that are due first inline.  The
byte-identity of the bypass against the plain heap path (``LoopWakeup._fire``
patched to ``Wakeup._fire``) is covered property-based in
``tests/properties/test_fast_path_equivalence`` and fixture-based in
``tests/experiments/test_golden``; here its mechanics are pinned
directly: steady stretches that never touch the heap, and every event
other than a source that sends the master back to it.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.piconet.flows import BE, DOWNLINK
from repro.scenario import compile_scenario
from repro.scenario.factories import figure4_piconet_spec
from repro.scenario.specs import (
    EventSpec,
    FlowSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
    TimelineSpec,
)
from repro.sim.events import LoopWakeup, Wakeup
from repro.traffic.sources import CBRSource

STEADY_TYPES = ("DH1", "DH3", "DH5")


@pytest.fixture
def heap_fires(monkeypatch):
    """The times at which the heap fired a master's wake-up: one per
    start and one per heap round trip the bypass could not skip."""
    fires = []
    fire = LoopWakeup._fire

    def counted(self, wakeup):
        fires.append(self.env.now)
        fire(self, wakeup)

    monkeypatch.setattr(LoopWakeup, "_fire", counted)
    return fires


def _steady_spec():
    """One slave, one sourceless BE downlink, round-robin poller."""
    piconet = PiconetSpec(
        name="steady", slaves=("S1",),
        flows=(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE,
                        allowed_types=STEADY_TYPES),),
        allowed_types=STEADY_TYPES,
        poller=PollerSpec(kind="round_robin"))
    return ScenarioSpec(piconets=(piconet,))


@contextmanager
def _master_path(bypass):
    """Without ``bypass`` a master started in the block re-arms through
    the heap like a plain wake-up."""
    with pytest.MonkeyPatch.context() as patch:
        if not bypass:
            patch.setattr(LoopWakeup, "_fire", Wakeup._fire)
        yield


# -- stretches that never touch the heap --------------------------------------

def test_kernel_runs_steady_state_inline(heap_fires):
    compiled = compile_scenario(_steady_spec(), seed=1)
    compiled.run(1.0)
    assert heap_fires == [0]  # only the start: every step bypassed the heap
    # the last transaction crosses the stop event
    assert compiled.primary.piconet.slot_accounting()["accounted"] >= 1590


def test_idle_kernel_window_on_pollerless_piconet(heap_fires):
    # a piconet whose poller never plans idles, through the bypass too
    spec = replace(
        _steady_spec().piconets[0],
        poller=PollerSpec(kind="round_robin", only_slaves=()))
    compiled = compile_scenario(ScenarioSpec(piconets=(spec,)), seed=1)
    compiled.run(0.5)
    assert heap_fires == [0]
    assert compiled.primary.piconet.slot_accounting()["idle"] == 800


def test_figure4_runs_as_one_window_with_all_but_the_last_transaction_inline(
        heap_fires):
    # every event of figure 4 but the stop event is a source wake-up,
    # which the bypass fires inline
    spec = ScenarioSpec(piconets=(figure4_piconet_spec(
        delay_requirement=0.040),))
    compiled = compile_scenario(spec, seed=3)
    compiled.run(2.0)
    assert sum(source.packets_generated
               for source in compiled.primary.sources) > 100
    assert heap_fires == [0]
    # the master's next step waits on the heap behind the stop event
    (master,) = [event for _when, _eid, event in compiled.env._queue
                 if isinstance(event, LoopWakeup)]
    assert master.callbacks is not None


def test_fast_path_stats_returns_an_independent_copy():
    piconet = compile_scenario(_steady_spec(), seed=1).primary.piconet
    stats = piconet.fast_path_stats()
    stats["enabled"] = True
    assert piconet.fast_path_stats() == {"enabled": False}


# -- equivalence smoke test (the property test draws random scenarios) ---------

def test_backlogged_run_is_identical_on_both_paths():
    results = {}
    for bypass in (True, False):
        compiled = compile_scenario(_steady_spec(), seed=3)
        for _ in range(40):
            compiled.primary.piconet.offer_packet(1, 16000)
        with _master_path(bypass):
            compiled.run(2.0)
        piconet = compiled.primary.piconet
        results[bypass] = (piconet.slot_accounting(), piconet.flow_stats(1),
                           compiled.env._eid)
    assert results[True] == results[False]
    assert results[True][1]["delivered_packets"] > 0


# -- events that send the master back to the heap -----------------------------

#: one DH5 + NULL transaction of the backlogged steady flow
DH5_TXN_US = 6 * 625


def _sourced_steady_spec(timeline=None):
    """The steady piconet plus a slot-aligned CBR downlink on a 2nd slave."""
    piconet = PiconetSpec(
        name="steady", slaves=("S1", "S2"),
        flows=(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE,
                        allowed_types=STEADY_TYPES),
               FlowSpec(2, slave=2, direction=DOWNLINK, traffic_class=BE,
                        interval_s=4 * 625e-6, size=20,
                        allowed_types=STEADY_TYPES)),
        allowed_types=STEADY_TYPES,
        poller=PollerSpec(kind="round_robin"))
    return ScenarioSpec(piconets=(piconet,),
                        timeline=timeline or TimelineSpec())


def _traced_run(bypass, hard_at_us=None, duration_s=0.1):
    """Run the sourced steady piconet with a backlog on flow 1 (and a
    process waking at ``hard_at_us``); the order of commits and that
    wake-up."""
    compiled = compile_scenario(_sourced_steady_spec(), seed=5)
    piconet = compiled.primary.piconet
    env = compiled.env
    for _ in range(60):
        piconet.offer_packet(1, 2000)
    log = []
    finish = piconet._finish_transaction

    def logged_finish(txn):
        finish(txn)
        log.append(("commit", env.now))

    piconet._finish_transaction = logged_finish

    def hard(env):
        yield env.timeout(hard_at_us)
        log.append(("hard", env.now))

    if hard_at_us is not None:
        env.process(hard(env))
    with _master_path(bypass):
        compiled.run(duration_s)
    return log


def test_window_ends_strictly_before_an_event_it_cannot_absorb():
    # the wake-up lands exactly on a commit instant: it was scheduled
    # first, so it fires before the master commits
    hard_at = _traced_run(bypass=False)[12][1]
    log = _traced_run(True, hard_at)
    assert log == _traced_run(False, hard_at)
    position = log.index(("hard", hard_at))
    assert log[position + 1] == ("commit", hard_at)
    assert all(when < hard_at for _kind, when in log[:position])


def test_window_ends_strictly_before_a_timeline_event_and_the_stop_event():
    at_s = 9 * DH5_TXN_US / 1e6
    timeline = TimelineSpec(events=(
        EventSpec(at_s=at_s, kind="flow-remove", flow_id=2),))
    results = {}
    for bypass in (True, False):
        compiled = compile_scenario(_sourced_steady_spec(timeline), seed=5)
        piconet = compiled.primary.piconet
        for _ in range(60):
            piconet.offer_packet(1, 2000)
        with _master_path(bypass):
            compiled.run(0.05)
            assert compiled.env.now == 50_000  # never past the stop event
            compiled.run(0.05)
        assert compiled.env.now == 100_000
        results[bypass] = (piconet.slot_accounting(), piconet.flow_stats(1),
                           compiled.primary.sources[0].packets_generated,
                           compiled.timeline_log, compiled.env._eid)
    assert results[True] == results[False]
    assert results[True][1]["delivered_packets"] > 0
    # the source fired every 4 slots from t=0 until the event stopped it
    assert results[True][2] == 9 * DH5_TXN_US // (4 * 625) + 1


def test_bypass_leaves_master_and_timeline_wakeups_on_the_heap():
    timeline = TimelineSpec(events=(
        EventSpec(at_s=0.5, kind="flow-remove", flow_id=2),))
    heaps = {}
    for bypass in (True, False):
        compiled = compile_scenario(_sourced_steady_spec(timeline), seed=5)
        source = compiled.primary.sources[0]
        assert isinstance(source, CBRSource)
        with _master_path(bypass):
            compiled.run(0.01)
        assert source.packets_generated > 0
        heaps[bypass] = sorted(
            (when, eid, type(event).__name__)
            for when, eid, event in compiled.env._queue)
    assert heaps[True] == heaps[False]
    # the master, the source and the timeline runner's timeout
    assert sorted(kind for _when, _eid, kind in heaps[True]) == [
        "LoopWakeup", "Timeout", "Wakeup"]
