"""Tests of the traffic sources and the per-flow statistics they feed."""

import random

import pytest

from repro.core import cbr_tspec
from repro.core.token_bucket import check_trace_conformance
from repro.piconet import FlowSpec, Piconet
from repro.piconet.flows import BE, UPLINK
from repro.schedulers.base import KIND_BE, Poller
from repro.traffic import CBRSource, OnOffSource, PoissonSource, TraceSource


class ServeSlaveOne(Poller):
    def select(self, now):
        return self.build_plan_for_slave(1, kind=KIND_BE)


def make_piconet():
    piconet = Piconet()
    piconet.add_slave()
    piconet.add_flow(FlowSpec(1, slave=1, direction=UPLINK, traffic_class=BE))
    piconet.attach_poller(ServeSlaveOne())
    return piconet


def test_cbr_source_rate_and_count():
    piconet = make_piconet()
    source = CBRSource(piconet, 1, interval=0.020, size=176)
    source.start()
    piconet.run(1.0)
    assert source.packets_generated == pytest.approx(50, abs=1)
    assert source.bytes_generated == source.packets_generated * 176


def test_cbr_source_from_rate():
    piconet = make_piconet()
    source = CBRSource.from_rate(piconet, 1, rate_bps=41_600, size=176)
    assert source.interval == pytest.approx(176 * 8 / 41_600)


def test_cbr_source_uniform_sizes_within_range():
    piconet = make_piconet()
    source = CBRSource(piconet, 1, 0.010, (144, 176), rng=random.Random(2))
    source.start()
    piconet.run(1.0)
    sizes = {source.next_size() for _ in range(200)}
    assert min(sizes) >= 144 and max(sizes) <= 176


def test_gs_cbr_source_conforms_to_its_tspec():
    """The Figure-4 GS sources must conform to the TSpec they advertise."""
    piconet = make_piconet()
    trace = []
    original_offer = piconet.offer_packet

    def recording_offer(flow_id, size):
        trace.append((piconet.env.now / 1e6, size))
        return original_offer(flow_id, size)

    piconet.offer_packet = recording_offer
    CBRSource(piconet, 1, 0.020, (144, 176), rng=random.Random(3)).start()
    piconet.run(5.0)
    assert check_trace_conformance(cbr_tspec(0.020, 144, 176), trace) == []


def test_cbr_source_validation():
    piconet = make_piconet()
    with pytest.raises(ValueError):
        CBRSource(piconet, 1, interval=0, size=100)
    with pytest.raises(ValueError):
        CBRSource.from_rate(piconet, 1, rate_bps=0, size=100)


def test_cbr_source_fractional_microsecond_interval_does_not_drift():
    # regression: rounding each 1.4 us gap independently to 1 us used to
    # inflate the emitted rate by 40%; tracking the cumulative target keeps
    # the long-run rate nominal
    piconet = make_piconet()
    source = CBRSource(piconet, 1, interval=1.4e-6, size=40)
    source.start()
    piconet.run(0.02)
    assert source.packets_generated == pytest.approx(0.02 / 1.4e-6, rel=0.01)


def test_cbr_source_sub_microsecond_interval_matches_simulated_time():
    # regression: a sub-us interval is clamped to the 1 us simulation
    # resolution; the emitted rate must equal one packet per simulated
    # microsecond (and never be "repaid" later as a burst)
    piconet = make_piconet()
    source = CBRSource(piconet, 1, interval=0.4e-6, size=40)
    source.start()
    piconet.run(0.01)
    assert source.packets_generated == pytest.approx(10_000, rel=0.01)


def test_onoff_source_sub_microsecond_interval_keeps_duty_cycle():
    # regression: `elapsed += interval` accumulated the nominal interval
    # while the timeout was clamped to 1 us, so a 0.5 us interval stretched
    # every on-period to twice its duration (duty cycle 2/3 instead of 1/2)
    piconet = make_piconet()
    source = OnOffSource(piconet, 1, interval=0.5e-6, size=40,
                         mean_on=0.0005, mean_off=0.0005,
                         rng=random.Random(7))
    source.start()
    piconet.run(0.05)
    # ~50% duty at 1 packet/us: 25_000 expected, 33_333 with the old bug
    assert 21_000 < source.packets_generated < 29_000


def test_poisson_source_mean_rate():
    piconet = make_piconet()
    source = PoissonSource(piconet, 1, rate_packets_per_second=100, size=50,
                           rng=random.Random(5))
    source.start()
    piconet.run(5.0)
    assert source.packets_generated == pytest.approx(500, rel=0.2)


def test_onoff_source_produces_bursts():
    piconet = make_piconet()
    source = OnOffSource(piconet, 1, interval=0.005, size=50, mean_on=0.1,
                         mean_off=0.1, rng=random.Random(7))
    source.start()
    piconet.run(5.0)
    # roughly half the time on => roughly half the packets of an always-on CBR
    always_on = 5.0 / 0.005
    assert 0.2 * always_on < source.packets_generated < 0.8 * always_on


def test_trace_source_replays_exact_times():
    piconet = make_piconet()
    source = TraceSource(piconet, 1, trace=[(0.010, 100), (0.025, 50)])
    source.start()
    piconet.run(0.1)
    assert source.packets_generated == 2
    assert piconet.flow_state(1).queue.offered_bytes == 150


def test_start_offset_delays_first_packet():
    piconet = make_piconet()
    source = CBRSource(piconet, 1, 0.020, 176, start_offset=0.5)
    source.start()
    piconet.run(0.4)
    assert source.packets_generated == 0


def test_sink_summary_and_helpers():
    """A source's delivered traffic, read back through ``flow_stats``."""
    piconet = make_piconet()
    CBRSource(piconet, 1, 0.020, 176).start()
    piconet.run(1.0)
    stats = piconet.flow_stats(1)
    assert stats["flow_id"] == 1
    assert stats["throughput_bps"] / 1000.0 == pytest.approx(70.4, rel=0.1)
    assert stats["delay_max"] >= stats["delay_mean"] - 1e-12
    assert stats["delivered_packets"] > 0
    assert piconet.slave_throughput_bps(1) == pytest.approx(
        stats["throughput_bps"], rel=1e-6)
