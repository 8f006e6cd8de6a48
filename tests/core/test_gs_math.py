"""Tests of the RFC 2212 delay-bound mathematics (Eq. 1)."""

import pytest

from repro.core import TSpec, cbr_tspec, delay_bound, rate_for_delay_bound
from repro.core.gs_math import bound_at_token_rate


@pytest.fixture
def paper_tspec():
    return cbr_tspec(0.020, 144, 176)


def test_delay_bound_high_rate_case(paper_tspec):
    # R >= p: bound = (M + C)/R + D
    bound = delay_bound(paper_tspec, rate=17_600, ctot=144, dtot=0.00375)
    assert bound == pytest.approx((176 + 144) / 17_600 + 0.00375)


def test_delay_bound_with_burst_term():
    tspec = TSpec(p=20_000, r=10_000, b=2_000, m=100, M=500)
    rate = 12_000   # r <= R < p
    bound = delay_bound(tspec, rate, ctot=0, dtot=0)
    expected = ((tspec.b - tspec.M) / rate) * ((tspec.p - rate) / (tspec.p - tspec.r)) \
        + tspec.M / rate
    assert bound == pytest.approx(expected)


def test_delay_bound_monotonically_decreasing_in_rate(paper_tspec):
    rates = [9_000, 12_000, 20_000, 40_000]
    bounds = [delay_bound(paper_tspec, r, 144, 0.00375) for r in rates]
    assert all(earlier > later for earlier, later in zip(bounds, bounds[1:]))


def test_delay_bound_rejects_rate_below_token_rate(paper_tspec):
    with pytest.raises(ValueError):
        delay_bound(paper_tspec, rate=1_000, ctot=0, dtot=0)
    with pytest.raises(ValueError):
        delay_bound(paper_tspec, rate=-1, ctot=0, dtot=0)
    with pytest.raises(ValueError):
        delay_bound(paper_tspec, rate=10_000, ctot=-1, dtot=0)


def test_bound_at_token_rate_is_the_loosest_needed(paper_tspec):
    loosest = bound_at_token_rate(paper_tspec, ctot=144, dtot=0.010)
    assert loosest == pytest.approx((176 + 144) / 8800 + 0.010)
    tighter = delay_bound(paper_tspec, 12_000, 144, 0.010)
    assert tighter < loosest


def test_rate_for_delay_bound_inverts_delay_bound(paper_tspec):
    for target in (0.025, 0.030, 0.040):
        rate = rate_for_delay_bound(paper_tspec, target, ctot=144, dtot=0.00625)
        assert rate is not None
        achieved = delay_bound(paper_tspec, rate, 144, 0.00625)
        assert achieved == pytest.approx(target) or rate == paper_tspec.r


def test_rate_for_delay_bound_with_burst_case():
    tspec = TSpec(p=50_000, r=10_000, b=3_000, m=100, M=500)
    target = 0.08
    rate = rate_for_delay_bound(tspec, target, ctot=200, dtot=0.005)
    assert rate is not None and tspec.r <= rate <= tspec.p
    assert delay_bound(tspec, rate, 200, 0.005) == pytest.approx(target)


def test_rate_for_delay_bound_infeasible_target(paper_tspec):
    # a target below the rate-independent deviation cannot be met
    assert rate_for_delay_bound(paper_tspec, 0.004, ctot=144, dtot=0.00625) is None
    with pytest.raises(ValueError):
        rate_for_delay_bound(paper_tspec, -0.01, 0, 0)


def test_rate_for_loose_bound_clamps_to_token_rate(paper_tspec):
    rate = rate_for_delay_bound(paper_tspec, 1.0, ctot=144, dtot=0.00375)
    assert rate == pytest.approx(paper_tspec.r)
