"""Tests of the traffic sources' wake-up life cycle.

A source runs as a :class:`~repro.sim.events.Wakeup`: one heap entry per
arrival, re-armed by its own callback.  These tests pin that life cycle
(start, start offset, stop, errors) and the emission times, which must
match those of the process-based sources they replaced.
"""

import random

import pytest
from test_sources_sinks import make_piconet

from repro.piconet.flows import BE, DOWNLINK
from repro.scenario import compile_scenario
from repro.scenario.specs import (
    FlowSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
)
from repro.sim.events import LoopWakeup, Wakeup
from repro.traffic import (
    CBRSource,
    OnOffSource,
    PoissonSource,
    TraceSource,
    TrafficSource,
)


def record_offers(piconet):
    """``(time_us, size)`` of every packet offered to ``piconet``."""
    offers = []
    offer = piconet.offer_packet

    def recording(flow_id, size):
        offers.append((piconet.env.now, size))
        return offer(flow_id, size)

    piconet.offer_packet = recording
    return offers


def wakeups(env):
    """The sources' heap entries: every wake-up but the master loop's."""
    return [entry for entry in env._queue
            if isinstance(entry[2], Wakeup)
            and not isinstance(entry[2], LoopWakeup)]


# -- life cycle ----------------------------------------------------------------

def test_start_is_idempotent():
    piconet = make_piconet()
    source = CBRSource(piconet, 1, interval=0.001, size=10)
    source.start()
    wakeup = source._wakeup
    source.start()
    assert source._wakeup is wakeup
    assert len(wakeups(piconet.env)) == 1
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
    assert len(wakeups(piconet.env)) == 1  # the wake-up already armed
    piconet.run(0.01)
    assert source.packets_generated == emitted
    assert wakeups(piconet.env) == []
    source.start()  # a stopped source never restarts
    assert wakeups(piconet.env) == []


def test_finished_trace_source_leaves_nothing_on_the_heap():
    piconet = make_piconet()
    source = TraceSource(piconet, 1, trace=[(0.001, 10), (0.002, 20)])
    source.start()
    piconet.run(0.01)
    assert source.packets_generated == 2
    assert wakeups(piconet.env) == []


class _Boom(RuntimeError):
    pass


class _FailingSource(TrafficSource):
    """Emits at 1 and 2 ms, then raises at its 3 ms wake-up."""

    def _intervals(self):
        yield 0.001
        yield 0.001
        raise _Boom("source failed")


def test_exception_in_a_source_propagates_out_of_run_at_its_time():
    piconet = make_piconet()
    source = _FailingSource(piconet, 1, size=10, start_offset=0.001)
    source.start()
    with pytest.raises(_Boom, match="source failed"):
        piconet.run(0.01)
    assert piconet.env.now == 3000
    assert source.packets_generated == 2


class _NegativeSource(TrafficSource):
    def _run(self):
        yield 1000
        yield -5


def test_negative_delay_is_rejected():
    piconet = make_piconet()
    _NegativeSource(piconet, 1, size=10).start()
    with pytest.raises(ValueError, match="negative delay -5"):
        piconet.run(0.01)
    assert piconet.env.now == 1000


def _kernel_spec(fast_path):
    """A backlogged round-robin downlink plus a CBR downlink, so the
    batch kernel fires the source's wake-ups inline."""
    piconet = PiconetSpec(
        name="p", slaves=("S1", "S2"),
        flows=(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE,
                        allowed_types=("DH1", "DH3", "DH5")),
               FlowSpec(2, slave=2, direction=DOWNLINK, traffic_class=BE,
                        interval_s=4 * 625e-6, size=20)),
        poller=PollerSpec(kind="round_robin"), fast_path=fast_path)
    return ScenarioSpec(piconets=(piconet,))


@pytest.mark.parametrize("fast_path", [True, False])
def test_exception_in_an_inline_arrival_aborts_the_run_at_its_time(
        fast_path):
    compiled = compile_scenario(_kernel_spec(fast_path), seed=1)
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
    # on the fast path the wake-up fired inside a kernel window
    inline = any(entry.frame.code.name == "_absorb"
                 for entry in raised.traceback)
    assert inline == fast_path


# -- emission times, pinned against the process-based sources ------------------

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


def test_poisson_emission_times_are_unchanged():
    times = [when for when, _size in _emissions(lambda p: PoissonSource(
        p, 1, 800.0, 120, rng=random.Random(7)), 0.02)]
    assert times == [0, 489, 694, 2009, 2103, 3063, 3632, 3706, 4592, 4639,
                     5350, 5441, 5559, 6250, 8442, 8607, 8923, 10157,
                     13846, 14922, 15553]


def test_onoff_emission_times_are_unchanged():
    times = [when for when, _size in _emissions(lambda p: OnOffSource(
        p, 1, 0.0009, 50, mean_on=0.004, mean_off=0.003,
        rng=random.Random(11), start_offset=0.0005), 0.03)]
    assert times == [500, 1400, 2300, 5661, 6561, 7461, 8361, 9261, 10161,
                     11061, 11961, 12861, 13761, 14661, 15561, 18341, 19241,
                     20141, 21041, 24597, 27649, 28549, 29449]


def test_trace_emission_times_are_unchanged():
    assert _emissions(lambda p: TraceSource(
        p, 1, [(0.0, 10), (0.0012, 20), (0.0012, 30), (0.0049999, 40),
               (0.02, 50)], start_offset=0.001), 0.03) == [
        (1000, 10), (2200, 20), (2200, 30), (6000, 40), (21000, 50)]
