"""Tests of TSpec and the operational token bucket."""

import pytest

from repro.core import TSpec, TokenBucket, cbr_tspec
from repro.core.token_bucket import check_trace_conformance


def test_tspec_validation():
    with pytest.raises(ValueError):
        TSpec(p=100, r=200, b=500, m=10, M=100)      # p < r
    with pytest.raises(ValueError):
        TSpec(p=200, r=100, b=50, m=10, M=100)       # b < M
    with pytest.raises(ValueError):
        TSpec(p=200, r=100, b=500, m=200, M=100)     # m > M
    with pytest.raises(ValueError):
        TSpec(p=200, r=0, b=500, m=10, M=100)        # r <= 0


def test_paper_cbr_tspec_values():
    """Section 4.1: p = r = 8.8 kB/s, b = M = 176 B, m = 144 B."""
    tspec = cbr_tspec(0.020, 144, 176)
    assert tspec.r == pytest.approx(8800.0)
    assert tspec.p == pytest.approx(8800.0)
    assert tspec.b == 176
    assert tspec.M == 176
    assert tspec.m == 144


def test_token_bucket_accepts_conformant_cbr():
    tspec = cbr_tspec(0.020, 144, 176)
    bucket = TokenBucket(tspec)
    times = [i * 0.020 for i in range(50)]
    assert all(bucket.consume(176, t) for t in times)


def test_token_bucket_rejects_burst_beyond_bucket():
    tspec = cbr_tspec(0.020, 144, 176)
    bucket = TokenBucket(tspec)
    assert bucket.consume(176, 0.0)
    # a second maximum-size packet at the same instant exceeds the bucket
    assert not bucket.consume(176, 0.0)
    # but it becomes conformant once tokens have refilled
    assert bucket.consume(176, 0.020)


def test_token_bucket_minimum_policed_unit():
    tspec = TSpec(p=1000, r=1000, b=200, m=100, M=200)
    bucket = TokenBucket(tspec)
    assert bucket.consume(10, 0.0)      # counted as 100 bytes
    assert bucket.consume(10, 0.0)      # another 100 -> bucket empty
    assert not bucket.consume(10, 0.0)


def test_token_bucket_rejects_oversized_packet():
    tspec = cbr_tspec(0.020, 144, 176)
    bucket = TokenBucket(tspec)
    assert not bucket.conforms(200, 0.0)


def test_token_bucket_time_cannot_go_backwards():
    tspec = cbr_tspec(0.020, 144, 176)
    bucket = TokenBucket(tspec)
    bucket.consume(144, 1.0)
    with pytest.raises(ValueError):
        bucket.conforms(144, 0.5)


def test_trace_conformance_reports_violations():
    tspec = cbr_tspec(0.020, 144, 176)
    good_trace = [(i * 0.020, 160) for i in range(10)]
    assert check_trace_conformance(tspec, good_trace) == []
    bad_trace = [(0.0, 176), (0.001, 176), (0.002, 176)]
    assert check_trace_conformance(tspec, bad_trace) == [1, 2]


def test_token_bucket_tolerance_consume_never_goes_negative():
    # regression: a packet accepted via the 1e-9 conformance tolerance used
    # to push the token count epsilon below zero, and the deficit persisted
    tspec = TSpec(p=1000.0, r=1000.0, b=176.0, m=144, M=176)
    bucket = TokenBucket(tspec, full=False)
    # refill to just under one packet's worth of tokens: 176 * (1 - 2**-53)
    shortfall = 176.0 * (1.0 - 2.0 ** -53)
    bucket._refill(shortfall / tspec.r)
    assert bucket.consume(176, shortfall / tspec.r)
    assert bucket._tokens >= 0.0
    # after a refill long enough for exactly one more packet, the next
    # packet must still conform — a lingering deficit would reject it
    now = shortfall / tspec.r + 176.0 / tspec.r
    assert bucket.consume(176, now)
    assert bucket._tokens >= 0.0
