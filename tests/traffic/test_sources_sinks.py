"""Tests of the traffic sources and the per-flow statistics they feed."""

import random

import pytest

from repro.core import cbr_tspec
from repro.core.token_bucket import check_trace_conformance
from repro.piconet import FlowSpec, Piconet
from repro.piconet.flows import BE, UPLINK
from repro.schedulers.base import KIND_BE, Poller
from repro.traffic import CBRSource


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


def test_cbr_source_uniform_sizes_within_range():
    piconet = make_piconet()
    sizes = []
    offer = piconet.offer_packet

    def recording(flow_id, size):
        sizes.append(size)
        return offer(flow_id, size)

    piconet.offer_packet = recording
    CBRSource(piconet, 1, 0.010, (144, 176), rng=random.Random(2)).start()
    piconet.run(1.0)
    assert len(sizes) == 100  # t = 0, 10, ..., 990 ms
    assert min(sizes) >= 144 and max(sizes) <= 176
    assert len(set(sizes)) > 10


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


@pytest.mark.parametrize("size", [0, -5, 176.0, True, "176", None,
                                  (176, 144), (0, 10), (144, 176.0),
                                  [144, 176], (144,), (144, 160, 176)])
def test_cbr_source_rejects_a_bad_size_at_construction(size):
    # a size that cannot be drawn fails here, in one line, instead of
    # mid-run inside the heap at the first arrival
    with pytest.raises(ValueError, match="size must be a positive int") \
            as raised:
        CBRSource(make_piconet(), 1, interval=0.01, size=size)
    assert "\n" not in str(raised.value)


@pytest.mark.parametrize("size", [1, (1, 1)])
def test_cbr_source_accepts_the_smallest_size_and_range(size):
    piconet = make_piconet()
    source = CBRSource(piconet, 1, interval=0.01, size=size)
    source.start()
    piconet.run(0.05)
    assert source.packets_generated == 5  # t = 0, 10, ..., 40 ms


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
