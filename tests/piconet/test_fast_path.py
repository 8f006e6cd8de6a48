"""Unit tests of the slot-batch fast path (plan / execute / commit kernel).

The byte-identity of the kernel against the reference event loop is
covered property-based in ``tests/properties/test_fast_path_equivalence``
and fixture-based in ``tests/experiments/test_golden``; here the kernel's
mechanics are pinned directly: the clock-resync primitive, the bailout
counters, windows that absorb traffic arrivals but end before every
other event, and every way of switching the fast path off (config
field, spec field, environment variable).
"""

from dataclasses import replace

import pytest

from repro.piconet.batch_kernel import (
    NO_FAST_PATH_ENV,
    BatchKernel,
    absorbable,
)
from repro.piconet.flows import BE, DOWNLINK
from repro.piconet.piconet import Piconet, PiconetConfig
from repro.scenario import compile_scenario
from repro.scenario.factories import coupled_room_spec, figure4_piconet_spec
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


@pytest.fixture(autouse=True)
def _fast_path_enabled(monkeypatch):
    # these tests pin kernel mechanics, so they must not inherit an outer
    # REPRO_NO_FAST_PATH (e.g. a full-suite run under the kill switch)
    monkeypatch.delenv(NO_FAST_PATH_ENV, raising=False)


def _steady_spec(fast_path=True):
    """One slave, one sourceless BE downlink, round-robin poller."""
    piconet = PiconetSpec(
        name="steady", slaves=("S1",),
        flows=(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE,
                        allowed_types=STEADY_TYPES),),
        allowed_types=STEADY_TYPES,
        poller=PollerSpec(kind="round_robin"),
        fast_path=fast_path)
    return ScenarioSpec(piconets=(piconet,))


# -- kernel engagement and bailout counters -----------------------------------

def test_kernel_runs_steady_state_inline():
    compiled = compile_scenario(_steady_spec(), seed=1)
    compiled.run(1.0)
    stats = compiled.primary.piconet.fast_path_stats()
    assert stats["enabled"]
    assert stats["windows"] >= 1
    assert stats["transactions"] > 0
    # the run's stop event eventually falls within one transaction bound
    assert stats["bailouts"]["horizon"] >= 1
    assert stats["bailouts"]["sco"] == 0
    assert stats["bailouts"]["bridge"] == 0


def test_kernel_bails_on_sco_reservations():
    spec = ScenarioSpec(piconets=(
        figure4_piconet_spec(delay_requirement=0.040, sco_slaves=(4,),
                             be_slaves=(5, 6, 7)),))
    compiled = compile_scenario(spec, seed=1)
    compiled.run(0.5)
    stats = compiled.primary.piconet.fast_path_stats()
    assert stats["enabled"]
    assert stats["bailouts"]["sco"] > 0
    assert stats["transactions"] == 0  # never inline while SCO is reserved


def test_stats_shape_matches_kernel_counters():
    compiled = compile_scenario(_steady_spec(), seed=1)
    compiled.run(0.2)
    kernel = compiled.primary.piconet._batch_kernel
    assert compiled.primary.piconet.fast_path_stats() == {
        "enabled": True,
        "windows": kernel.windows,
        "transactions": kernel.transactions,
        "idle_advances": kernel.idle_advances,
        "bailouts": kernel.bailouts,
    }


# -- the off switches ----------------------------------------------------------

def test_spec_fast_path_false_disables_the_kernel():
    compiled = compile_scenario(_steady_spec(fast_path=False), seed=1)
    piconet = compiled.primary.piconet
    assert piconet._batch_kernel is None
    assert piconet.fast_path_stats() == {"enabled": False}
    compiled.run(0.2)  # the reference path still runs the scenario
    assert piconet.slot_accounting()["accounted"] >= 0.2 * 1600 * 0.95


def test_config_fast_path_false_disables_the_kernel():
    piconet = Piconet(config=PiconetConfig(fast_path=False))
    assert piconet._batch_kernel is None
    assert Piconet().fast_path_stats() == {
        "enabled": True, "windows": 0, "transactions": 0,
        "idle_advances": 0,
        "bailouts": {"sco": 0, "bridge": 0, "horizon": 0,
                     "adaptive_flip": 0, "topology": 0}}


def test_env_var_disables_the_kernel(monkeypatch):
    monkeypatch.setenv(NO_FAST_PATH_ENV, "1")
    piconet = Piconet()  # fast_path defaults to True in the config
    assert piconet._batch_kernel is None
    assert piconet.fast_path_stats() == {"enabled": False}


# -- equivalence smoke test (the property test draws random scenarios) ---------

def test_backlogged_run_is_identical_on_both_paths():
    results = {}
    for fast in (True, False):
        spec = _steady_spec(fast_path=fast)
        compiled = compile_scenario(spec, seed=3)
        for _ in range(40):
            compiled.primary.piconet.offer_packet(1, 16000)
        compiled.run(2.0)
        piconet = compiled.primary.piconet
        results[fast] = (piconet.slot_accounting(), piconet.flow_stats(1))
    assert results[True] == results[False]
    assert results[True][1]["delivered_packets"] > 0


def test_idle_kernel_window_on_pollerless_piconet():
    # a piconet whose poller never plans falls back to pure idling, which
    # the kernel also takes inline (try_idle)
    spec = replace(
        _steady_spec().piconets[0],
        poller=PollerSpec(kind="round_robin", only_slaves=()))
    compiled = compile_scenario(ScenarioSpec(piconets=(spec,)), seed=1)
    compiled.run(0.5)
    stats = compiled.primary.piconet.fast_path_stats()
    assert stats["enabled"]
    assert stats["idle_advances"] > 0


def test_idle_sentinel_repr():
    assert repr(BatchKernel.IDLE) == "<BatchKernel.IDLE>"


def test_fast_path_stats_returns_an_independent_copy():
    compiled = compile_scenario(_steady_spec(), seed=1)
    compiled.run(0.2)
    piconet = compiled.primary.piconet
    stats = piconet.fast_path_stats()
    stats["windows"] = -1
    stats["bailouts"]["topology"] = 999
    fresh = piconet.fast_path_stats()
    assert fresh["windows"] >= 0
    assert fresh["bailouts"]["topology"] == 0
    assert piconet._batch_kernel.bailouts["topology"] == 0


def test_topology_change_bails_out_of_the_current_window():
    compiled = compile_scenario(_steady_spec(), seed=1)
    compiled.run(0.2)
    piconet = compiled.primary.piconet
    before = piconet.fast_path_stats()["bailouts"]["topology"]
    from repro.piconet.flows import FlowSpec as RuntimeFlowSpec
    piconet.add_flow_runtime(RuntimeFlowSpec(
        2, slave=1, direction=DOWNLINK, traffic_class=BE,
        allowed_types=STEADY_TYPES))
    compiled.run(0.2)
    stats = piconet.fast_path_stats()
    assert stats["bailouts"]["topology"] == before + 1
    assert piconet.topology_changes == 1


# -- windows that absorb traffic arrivals -------------------------------------

#: one DH5 + NULL transaction of the backlogged steady flow
DH5_TXN_US = 6 * 625


def _sourced_steady_spec(fast_path=True, timeline=None):
    """The steady piconet plus a slot-aligned CBR downlink on a 2nd slave."""
    piconet = PiconetSpec(
        name="steady", slaves=("S1", "S2"),
        flows=(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE,
                        allowed_types=STEADY_TYPES),
               FlowSpec(2, slave=2, direction=DOWNLINK, traffic_class=BE,
                        interval_s=4 * 625e-6, size=20,
                        allowed_types=STEADY_TYPES)),
        allowed_types=STEADY_TYPES,
        poller=PollerSpec(kind="round_robin"),
        fast_path=fast_path)
    return ScenarioSpec(piconets=(piconet,),
                        timeline=timeline or TimelineSpec())


def _acl_transactions(piconet):
    return piconet.transactions_gs + piconet.transactions_be


def test_figure4_runs_as_one_window_with_all_but_the_last_transaction_inline():
    spec = ScenarioSpec(piconets=(figure4_piconet_spec(
        delay_requirement=0.040),))
    compiled = compile_scenario(spec, seed=3)
    compiled.run(2.0)
    piconet = compiled.primary.piconet
    stats = piconet.fast_path_stats()
    assert sum(source.packets_generated
               for source in compiled.primary.sources) > 100
    assert 1 <= stats["windows"] <= 3
    # at most the last transaction crosses the stop event of run(until=...)
    assert stats["transactions"] >= _acl_transactions(piconet) - 1
    assert stats["bailouts"]["horizon"] <= 3


def _traced_run(spec, hard_at_us=None, duration_s=0.1):
    """Run ``spec`` with a backlog on flow 1 (and an unflagged process
    waking at ``hard_at_us``); the order of commits and that wake-up."""
    compiled = compile_scenario(spec, seed=5)
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
    compiled.run(duration_s)
    return log, piconet.fast_path_stats()


def test_window_ends_strictly_before_an_event_it_cannot_absorb():
    # the wake-up lands exactly on a commit instant: it was scheduled
    # first, so it fires before the master commits
    plain, _ = _traced_run(_sourced_steady_spec(fast_path=False))
    hard_at = plain[12][1]
    log, stats = _traced_run(_sourced_steady_spec(), hard_at)
    reference, ref_stats = _traced_run(
        _sourced_steady_spec(fast_path=False), hard_at)
    assert log == reference
    position = log.index(("hard", hard_at))
    assert log[position + 1] == ("commit", hard_at)
    assert all(when < hard_at for _kind, when in log[:position])
    assert stats["windows"] >= 2  # the wake-up split the run
    assert stats["transactions"] > 0 and ref_stats == {"enabled": False}


def test_window_ends_strictly_before_a_timeline_event_and_the_stop_event():
    at_s = 9 * DH5_TXN_US / 1e6
    timeline = TimelineSpec(events=(
        EventSpec(at_s=at_s, kind="flow-remove", flow_id=2),))
    results = {}
    for fast in (True, False):
        compiled = compile_scenario(
            _sourced_steady_spec(fast, timeline), seed=5)
        piconet = compiled.primary.piconet
        for _ in range(60):
            piconet.offer_packet(1, 2000)
        compiled.run(0.05)
        assert compiled.env.now == 50_000  # never past the stop event
        compiled.run(0.05)
        assert compiled.env.now == 100_000
        results[fast] = (piconet.slot_accounting(), piconet.flow_stats(1),
                         compiled.primary.sources[0].packets_generated,
                         compiled.timeline_log)
        if fast:
            stats = piconet.fast_path_stats()
    assert results[True] == results[False]
    assert results[True][1]["delivered_packets"] > 0
    # the source fired every 4 slots from t=0 until the event stopped it
    assert results[True][2] == 9 * DH5_TXN_US // (4 * 625) + 1
    assert stats["bailouts"]["topology"] == 1
    assert stats["windows"] >= 3  # split by the event and by each stop
    assert stats["transactions"] > 0


def test_source_wakeups_are_absorbable_master_and_timeline_events_not():
    timeline = TimelineSpec(events=(
        EventSpec(at_s=0.5, kind="flow-remove", flow_id=2),))
    # the reference loop leaves the master's own wake-up on the heap
    compiled = compile_scenario(
        _sourced_steady_spec(fast_path=False, timeline=timeline), seed=5)
    source = compiled.primary.sources[0]
    assert isinstance(source, CBRSource)
    compiled.run(0.01)
    assert source.packets_generated > 0
    verdicts = {}
    for _when, _eid, event in compiled.env._queue:
        if isinstance(event, LoopWakeup):
            # a wake-up's generator is the __self__ of its _next
            name = event._next.__self__.gi_code.co_name
        elif isinstance(event, Wakeup):
            assert event is source._wakeup
            name = "source"
        else:
            (waiter,) = event.callbacks
            name = waiter.__self__._generator.gi_code.co_name
        verdicts[name] = absorbable(event)
    assert verdicts == {"source": True, "_master_process": False,
                        "_runner": False}


def test_coupled_room_kernel_still_runs_no_inline_transaction():
    compiled = compile_scenario(coupled_room_spec(piconets=16), seed=3)
    compiled.run(0.05)
    for piconet in compiled.piconets.values():
        stats = piconet.piconet.fast_path_stats()
        assert stats["enabled"]
        assert stats["windows"] == 0
        assert stats["transactions"] == 0
