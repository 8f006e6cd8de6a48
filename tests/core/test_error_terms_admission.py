"""Tests of the exported error terms and the Fig. 3 admission control."""

import pytest

from repro.core import (
    AdmissionController,
    ErrorTerms,
    GSFlowRequest,
    cbr_tspec,
    export_error_terms,
)
from repro.core.admission import max_admissible_rate
from repro.piconet.flows import DOWNLINK, UPLINK

MS = 1e-3
M_T = 6 * 625e-6   # DH3 both ways


def make_request(flow_id, slave, direction=UPLINK, rate=8800.0):
    tspec = cbr_tspec(0.020, 144, 176)
    return GSFlowRequest(flow_id=flow_id, slave=slave, direction=direction,
                         tspec=tspec, rate=rate, eta_min=144.0,
                         max_segment_slots=3)


# ------------------------------------------------------------- error terms

def test_error_terms_validation():
    with pytest.raises(ValueError):
        ErrorTerms(-1, 0)
    with pytest.raises(ValueError):
        ErrorTerms(0, -1)


def test_export_error_terms_matches_eq7():
    terms = export_error_terms(eta_min=144, wait_bound=0.00625)
    assert terms.c_bytes == 144
    assert terms.d_seconds == 0.00625


# --------------------------------------------------------------- admission

def test_single_flow_admitted_with_highest_priority():
    controller = AdmissionController(M_T)
    result = controller.request_admission(make_request(1, slave=1))
    assert result.accepted
    stream = result.stream_for(1)
    assert stream.priority == 1
    assert stream.wait_bound == pytest.approx(M_T)


def test_request_validation():
    tspec = cbr_tspec(0.020, 144, 176)
    with pytest.raises(ValueError):
        GSFlowRequest(1, 1, UPLINK, tspec, rate=100.0, eta_min=144)   # below r
    with pytest.raises(ValueError):
        GSFlowRequest(1, 1, "sideways", tspec, rate=9000.0, eta_min=144)
    with pytest.raises(ValueError):
        GSFlowRequest(1, 1, UPLINK, tspec, rate=9000.0, eta_min=144,
                      max_segment_slots=2)


def test_duplicate_flow_rejected():
    controller = AdmissionController(M_T)
    assert controller.request_admission(make_request(1, 1)).accepted
    assert not controller.request_admission(make_request(1, 1)).accepted


def test_rate_needing_interval_below_transaction_time_rejected():
    controller = AdmissionController(M_T)
    # t_i = 144 / rate < 3.75 ms  =>  rate > 38.4 kB/s
    result = controller.request_admission(make_request(1, 1, rate=50_000.0))
    assert not result.accepted


def test_figure4_priorities_and_wait_bounds():
    """The DESIGN.md interpretation of the Figure-4 GS flows."""
    controller = AdmissionController(M_T)
    controller.request_admission(make_request(1, slave=1, direction=UPLINK))
    controller.request_admission(make_request(2, slave=2, direction=DOWNLINK))
    controller.request_admission(make_request(3, slave=2, direction=UPLINK))
    result = controller.request_admission(make_request(4, slave=3, direction=UPLINK))
    assert result.accepted
    streams = result.streams
    assert len(streams) == 3      # flows 2 and 3 share one stream
    paired = [s for s in streams if s.secondary is not None]
    assert len(paired) == 1 and set(paired[0].flow_ids) == {2, 3}
    bounds = {tuple(sorted(s.flow_ids)): s.wait_bound for s in streams}
    assert bounds[(1,)] == pytest.approx(3.75 * MS)
    assert bounds[(2, 3)] == pytest.approx(6.25 * MS)
    assert bounds[(4,)] == pytest.approx(10.0 * MS)


def test_every_accepted_stream_satisfies_eq9():
    controller = AdmissionController(M_T)
    for flow_id, slave in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 4), (6, 5)]:
        controller.request_admission(make_request(flow_id, slave))
    for stream in controller.streams:
        assert stream.wait_bound <= stream.interval + 1e-12
        assert stream.rate <= max_admissible_rate(
            stream.primary.eta_min, stream.wait_bound) + 1e-9


def test_piggybacking_accepts_more_flows_than_naive():
    rate = 14_000.0
    def admit_all(piggyback):
        controller = AdmissionController(M_T, piggyback_aware=piggyback)
        accepted = 0
        flow_id = 1
        for slave in range(1, 8):
            for direction in (UPLINK, DOWNLINK):
                result = controller.request_admission(
                    make_request(flow_id, slave, direction, rate=rate))
                accepted += int(result.accepted)
                flow_id += 1
        return accepted

    assert admit_all(True) > admit_all(False)


def test_rejected_request_leaves_state_unchanged():
    controller = AdmissionController(M_T)
    for flow_id in range(1, 4):
        controller.request_admission(make_request(flow_id, slave=flow_id,
                                                  rate=12_800.0))
    streams_before = {tuple(s.flow_ids): s.priority for s in controller.streams}
    # an aggressive request that cannot be admitted
    result = controller.request_admission(make_request(9, slave=4, rate=30_000.0))
    assert not result.accepted
    streams_after = {tuple(s.flow_ids): s.priority for s in controller.streams}
    assert streams_before == streams_after


def test_evaluate_does_not_commit():
    controller = AdmissionController(M_T)
    result = controller.evaluate(make_request(1, 1))
    assert result.accepted
    assert controller.streams == []


def test_remove_flow_recomputes_priorities():
    controller = AdmissionController(M_T)
    for flow_id, slave in [(1, 1), (2, 2), (3, 3)]:
        controller.request_admission(make_request(flow_id, slave))
    controller.remove_flow(1)
    assert sorted(fid for s in controller.streams for fid in s.flow_ids) \
        == [2, 3]
    assert sorted(s.priority for s in controller.streams) == [1, 2]
    with pytest.raises(KeyError):
        controller.remove_flow(99)
