"""Tests of poll efficiency (Eq. 4) and the Fig. 2 wait-bound algorithm."""

import pytest

from repro.baseband.segmentation import SegmentationPolicy
from repro.baseband.segmentation import BestFitSegmentationPolicy
from repro.core import compute_wait_bound, min_poll_efficiency
from repro.core.poll_efficiency import _candidate_sizes
from repro.core.wait_bound import HigherPriorityStream

MS = 1e-3


class FecMidstreamPolicy(SegmentationPolicy):
    """Mid-stream segments prefer the FEC-protected DM3; final best fit.

    A legitimate policy whose segment plans mix types mid-stream: its
    breakpoints sit at mixed-capacity sums (e.g. DM3+DH3 = 304 bytes), not
    at multiples of any single capacity.
    """

    def choose_type(self, remaining):
        for ptype in self.by_capacity:
            if remaining <= ptype.max_payload:
                return ptype
        return next(t for t in self.by_capacity if t.name == "DM3")


def test_paper_minimum_poll_efficiency_is_144_bytes():
    # Section 4.1: the minimum poll efficiency of the GS flows is achieved by
    # a 144-byte packet sent in one DH3 packet.
    assert min_poll_efficiency(144, 176, ("DH1", "DH3")) == pytest.approx(144.0)


def test_poll_efficiency_single_segment_equals_size():
    # over the one-size range [L, L] the minimum is L's own efficiency
    assert min_poll_efficiency(150, 150, ("DH1", "DH3")) \
        == pytest.approx(150.0)
    assert BestFitSegmentationPolicy(("DH1", "DH3")).segment_count(150) == 1


def test_poll_efficiency_drops_after_capacity_breakpoint():
    # 183 bytes fit in one DH3; 184 bytes need DH3 + DH1
    assert min_poll_efficiency(183, 183, ("DH1", "DH3")) \
        == pytest.approx(183.0)
    assert min_poll_efficiency(184, 184, ("DH1", "DH3")) \
        == pytest.approx(92.0)


def test_min_poll_efficiency_candidate_set_matches_exhaustive():
    for (low, high) in [(100, 400), (144, 176), (27, 500), (180, 190)]:
        fast = min_poll_efficiency(low, high, ("DH1", "DH3"))
        slow = min_poll_efficiency(low, high, ("DH1", "DH3"), exhaustive=True)
        assert fast == pytest.approx(slow)


def test_candidate_sizes_include_mixed_capacity_sums():
    # regression: only multiples of single capacities were enumerated, so
    # breakpoints at mixed-type sums (DM3+DH3 = 304 -> step at 305) were
    # missed for policies whose plans mix types mid-stream
    policy = FecMidstreamPolicy(("DH1", "DM3", "DH3"))
    candidates = _candidate_sizes(250, 360, policy)
    assert 305 in candidates  # 121 + 183 + 1
    assert 332 in candidates  # 121 + 183 + 27 + 1


def test_min_poll_efficiency_true_minimum_for_midstream_mixing_policy():
    # with FecMidstreamPolicy the segment count steps from 2 to 3 at
    # 305 = DM3+DH3+1; the candidate set used to miss it and report
    # 324/3 = 108 instead of 305/3 ~ 101.67
    policy = FecMidstreamPolicy(("DH1", "DM3", "DH3"))
    fast = min_poll_efficiency(250, 360, policy=policy)
    slow = min_poll_efficiency(250, 360, policy=policy, exhaustive=True)
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx(305 / 3)


def test_min_poll_efficiency_with_dh5_allowed():
    value = min_poll_efficiency(144, 176, ("DH1", "DH3", "DH5"))
    assert value == pytest.approx(144.0)


def test_min_poll_efficiency_validation():
    with pytest.raises(ValueError):
        min_poll_efficiency(0, 100)
    with pytest.raises(ValueError):
        min_poll_efficiency(200, 100)


# ---------------------------------------------------------------- wait bound

def test_highest_priority_flow_gets_max_transaction_time():
    result = compute_wait_bound(3.75 * MS, [])
    assert result.converged
    assert result.wait_bound == pytest.approx(3.75 * MS)


def test_paper_scenario_wait_bounds():
    """The Figure-4 streams: flow 1, pair (2,3), flow 4 (DESIGN.md values)."""
    m_t = 3.75 * MS
    stream1 = HigherPriorityStream(interval=16.36 * MS,
                                   max_transaction_time=2.5 * MS)
    stream23 = HigherPriorityStream(interval=16.36 * MS,
                                    max_transaction_time=3.75 * MS)
    u1 = compute_wait_bound(m_t, [])
    u2 = compute_wait_bound(m_t, [stream1])
    u3 = compute_wait_bound(m_t, [stream1, stream23])
    assert u1.wait_bound == pytest.approx(3.75 * MS)
    assert u2.wait_bound == pytest.approx(6.25 * MS)
    assert u3.wait_bound == pytest.approx(10.0 * MS)
    assert all(r.converged for r in (u1, u2, u3))


def test_wait_bound_grows_with_more_higher_priority_flows():
    m_t = 3.75 * MS
    streams = [HigherPriorityStream(interval=20 * MS, max_transaction_time=2.5 * MS)
               for _ in range(5)]
    bounds = [compute_wait_bound(m_t, streams[:k]).wait_bound for k in range(6)]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_wait_bound_aborts_when_exceeding_own_interval():
    m_t = 3.75 * MS
    heavy = [HigherPriorityStream(interval=4 * MS, max_transaction_time=3.75 * MS)
             for _ in range(3)]
    result = compute_wait_bound(m_t, heavy, own_interval=10 * MS)
    assert not result.converged
    assert result.wait_bound > 10 * MS


def test_wait_bound_ceil_effect_with_short_higher_priority_interval():
    # a higher-priority stream polling faster than u accumulates several polls
    m_t = 3.75 * MS
    fast = HigherPriorityStream(interval=3 * MS, max_transaction_time=2.5 * MS)
    result = compute_wait_bound(m_t, [fast], own_interval=60 * MS)
    # iteration: 3.75 -> 3.75 + 2.5*ceil(3.75/3)=8.75 -> 3.75+2.5*3=11.25
    # -> 3.75+2.5*4=13.75 -> 3.75+2.5*5=16.25 -> 3.75+2.5*6=18.75 ->
    # 3.75+2.5*7=21.25 -> ... converges when ceil stops growing
    assert result.converged
    assert result.wait_bound > 8 * MS


def test_wait_bound_input_validation():
    with pytest.raises(ValueError):
        compute_wait_bound(0, [])
    with pytest.raises(ValueError):
        compute_wait_bound(1.0, [], own_interval=0)
    with pytest.raises(ValueError):
        HigherPriorityStream(interval=-1, max_transaction_time=1)


def test_wait_bound_overloaded_set_diverges_without_crash():
    # regression: with no own_interval and sum(s_max_j / t_j) >= 1 the
    # iterate used to overflow to infinity and math.ceil raised
    # OverflowError; now the overload is detected up front
    from repro.core.wait_bound import UNBOUNDED_WAIT
    m_t = 3.75 * MS
    overloaded = [HigherPriorityStream(interval=5 * MS,
                                       max_transaction_time=2.5 * MS)
                  for _ in range(2)]
    result = compute_wait_bound(m_t, overloaded)
    assert not result.converged
    assert result.wait_bound == UNBOUNDED_WAIT
    assert result.iterations == 0

    # the Hypothesis falsifying example, spelled out
    intervals = [0.0625, 0.005, 0.005, 0.005, 0.005]
    streams = [HigherPriorityStream(interval=i, max_transaction_time=2.5 * MS)
               for i in intervals]
    result = compute_wait_bound(m_t, streams)
    assert not result.converged
    assert result.wait_bound == UNBOUNDED_WAIT


def test_wait_bound_near_saturation_still_converges():
    # utilization just below 1 must still run the real iteration
    m_t = 1.0 * MS
    streams = [HigherPriorityStream(interval=10 * MS,
                                    max_transaction_time=4.9 * MS),
               HigherPriorityStream(interval=10 * MS,
                                    max_transaction_time=4.9 * MS)]
    result = compute_wait_bound(m_t, streams)
    assert result.converged
    assert result.wait_bound >= m_t
