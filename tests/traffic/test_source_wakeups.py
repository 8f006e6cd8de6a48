"""Tests of the traffic source's heap-entry life cycle.

A source is its own heap entry: firing it offers one packet and re-arms
it with the next event id.  These tests pin that life cycle (start,
start offset, stop, errors) and the CBR emission times, which must
match those of the generator-driven sources it replaced.  The error
paths drive a bare ``LoopWakeup(env, generator)`` that offers packets.
"""

import random

import pytest
from test_sources_sinks import make_piconet

from heap_path import heap_path_fire
from repro.piconet.flows import BE, DOWNLINK
from repro.scenario import compile_scenario
from repro.scenario.specs import (
    FlowSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
)
from repro.sim.events import LoopWakeup
from repro.traffic import CBRSource


def record_offers(piconet):
    """``(time_us, size)`` of every packet offered to ``piconet``."""
    offers = []
    offer = piconet.offer_packet

    def recording(flow_id, size):
        offers.append((piconet.env.now, size))
        return offer(flow_id, size)

    piconet.offer_packet = recording
    return offers


def source_entries(env):
    """The sources' heap entries."""
    return [entry for entry in env._queue if isinstance(entry[2], CBRSource)]


def loop_entries(env):
    """The loop wake-ups' heap entries (the master's, the replays')."""
    return [entry for entry in env._queue
            if isinstance(entry[2], LoopWakeup)]


# -- life cycle ----------------------------------------------------------------

def test_start_is_idempotent():
    piconet = make_piconet()
    source = CBRSource(piconet, 1, interval=0.001, size=10)
    source.start()
    source.start()
    assert len(source_entries(piconet.env)) == 1
    assert piconet.env._eid == 1  # one arming, one event id
    piconet.run(0.0105)
    assert source.packets_generated == 11  # t = 0, 1, ..., 10 ms


def test_start_offset_is_honoured():
    piconet = make_piconet()
    offers = record_offers(piconet)
    CBRSource(piconet, 1, interval=0.002, size=10,
              start_offset=0.0013).start()
    piconet.run(0.01)
    assert [when for when, _size in offers] == [1300, 3300, 5300, 7300,
                                                9300]


def test_stop_mid_run_ends_emissions_and_schedules_nothing_more():
    piconet = make_piconet()
    source = CBRSource(piconet, 1, interval=0.001, size=10)
    source.start()
    piconet.run(0.0025)
    emitted = source.packets_generated
    assert emitted == 3
    source.stop()
    # the entry already armed for the next arrival
    assert [when for when, _eid, _entry in source_entries(piconet.env)] \
        == [3000]
    piconet.run(0.01)
    assert source.packets_generated == emitted
    assert source_entries(piconet.env) == []
    source.start()  # a stopped source never restarts
    assert source_entries(piconet.env) == []


def test_start_offset_takes_one_event_id_even_when_stopped_before_it():
    # the start offset is a wake-up of its own, so it takes one event id
    # whether or not the source emits after it.  Recorded with the
    # generator-driven source, whose first yield was the offset
    piconet = make_piconet()
    source = CBRSource(piconet, 1, interval=0.001, size=10,
                       start_offset=0.0042)
    source.start()
    piconet.run(0.002)
    source.stop()
    piconet.run(0.01)
    assert source.packets_generated == 0
    assert source_entries(piconet.env) == []
    assert piconet.env._eid == 25
    assert [(when, eid) for when, eid, _entry in piconet.env._queue] \
        == [(12500, 24)]


def test_sub_microsecond_interval_is_clamped_with_a_capped_deficit():
    # a 0.4 us interval runs clamped at one packet per microsecond; the
    # cumulative target trails the clock by the 0.5 us cap, not by the
    # 0.6 us each arrival adds.  Recorded with the generator-driven
    # source (its target_us local after the run)
    piconet = make_piconet()
    offers = record_offers(piconet)
    source = CBRSource(piconet, 1, interval=0.4e-6, size=40)
    source.start()
    piconet.run(0.001)
    assert [when for when, _size in offers] == list(range(1000))
    assert piconet.env._eid == 1005
    assert source._target_us == 998.5


def replay(piconet, trace):
    """A wake-up generator offering ``(delay_us, size)`` packets in turn."""
    for delay, size in trace:
        yield delay
        piconet.offer_packet(1, size)


def test_finished_trace_source_leaves_nothing_on_the_heap():
    piconet = make_piconet()
    LoopWakeup(piconet.env, replay(piconet, [(1000, 10), (1000, 20)]))
    piconet.run(0.01)
    assert piconet.flow_state(1).queue.offered_bytes == 30
    # only the master's own loop is left
    assert len(loop_entries(piconet.env)) == len(piconet.env._queue) == 1


class _Boom(RuntimeError):
    pass


def _failing(piconet):
    """Emits at 1 and 2 ms, then raises at its 3 ms wake-up."""
    yield from replay(piconet, [(1000, 10), (1000, 10)])
    yield 1000
    raise _Boom("source failed")


def test_exception_in_a_source_propagates_out_of_run_at_its_time():
    piconet = make_piconet()
    LoopWakeup(piconet.env, _failing(piconet))
    with pytest.raises(_Boom, match="source failed"):
        piconet.run(0.01)
    assert piconet.env.now == 3000
    assert piconet.flow_state(1).queue.offered_packets == 2


def _negative():
    yield 1000
    yield -5


def test_negative_delay_is_rejected():
    piconet = make_piconet()
    LoopWakeup(piconet.env, _negative())
    with pytest.raises(ValueError, match="negative delay -5"):
        piconet.run(0.01)
    assert piconet.env.now == 1000


def _inline_spec():
    """A backlogged round-robin downlink plus a CBR downlink, so the
    master's loop fires the source's arrivals inline."""
    piconet = PiconetSpec(
        name="p", slaves=("S1", "S2"),
        flows=(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE,
                        allowed_types=("DH1", "DH3", "DH5")),
               FlowSpec(2, slave=2, direction=DOWNLINK, traffic_class=BE,
                        interval_s=4 * 625e-6, size=20)),
        poller=PollerSpec(kind="round_robin"))
    return ScenarioSpec(piconets=(piconet,))


#: the code of the master's heap bypass (before any patch)
_BYPASS_CODE = LoopWakeup._fire.__code__


@pytest.mark.parametrize("bypass", [True, False])
def test_exception_in_an_inline_arrival_aborts_the_run_at_its_time(
        monkeypatch, bypass):
    if not bypass:
        monkeypatch.setattr(LoopWakeup, "_fire", heap_path_fire)
    compiled = compile_scenario(_inline_spec(), seed=1)
    piconet = compiled.primary.piconet
    for _ in range(40):
        piconet.offer_packet(1, 2000)
    offer = piconet.offer_packet

    def failing(flow_id, size):
        if flow_id == 2 and piconet.env.now >= 20 * 2500:
            raise _Boom(f"arrival at {piconet.env.now}")
        return offer(flow_id, size)

    piconet.offer_packet = failing
    with pytest.raises(_Boom, match="arrival at 50000") as raised:
        compiled.run(0.1)
    assert compiled.env.now == 50_000
    # with the bypass the source fired inside the master's loop
    inline = any(entry.frame.code.raw is _BYPASS_CODE
                 for entry in raised.traceback)
    assert inline == bypass
    # the master's entry went back on the heap before the error left:
    # the keys a run on the heap alone leaves behind
    assert compiled.env._eid == 63
    assert sorted((when, eid) for when, eid, _event
                  in compiled.env._queue) == [(50000, 62), (100000, 2)]


# -- emission times, pinned against the process-based source -------------------

def _emissions(build, duration):
    piconet = make_piconet()
    offers = record_offers(piconet)
    build(piconet).start()
    piconet.run(duration)
    return offers


def test_cbr_emission_times_are_unchanged():
    assert _emissions(lambda p: CBRSource(
        p, 1, 0.0012345, (100, 180), rng=random.Random(4),
        start_offset=0.0007), 0.02) == [
        (700, 130), (1934, 138), (3169, 113), (4404, 150), (5638, 161),
        (6872, 119), (8107, 111), (9342, 108), (10576, 102), (11810, 151),
        (13045, 170), (14280, 137), (15514, 107), (16748, 128),
        (17983, 166), (19218, 168)]
