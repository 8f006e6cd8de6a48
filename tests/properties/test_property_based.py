"""Property-based tests (hypothesis) of the core invariants."""

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baseband.segmentation import BestFitSegmentationPolicy
from repro.core import TSpec, TokenBucket, cbr_tspec, compute_wait_bound, delay_bound, min_poll_efficiency, rate_for_delay_bound
from repro.core.admission import AdmissionController, GSFlowRequest
from repro.core.link_budget import LinkBudget
from repro.core.planning import PlannerConfig, ServedSegment, VariableIntervalPlanner
from repro.core.wait_bound import HigherPriorityStream
from repro.piconet.flows import DOWNLINK, UPLINK
from repro.sim import Environment, LoopWakeup

MS = 1e-3
PAPER_TYPES = ("DH1", "DH3")


# ----------------------------------------------------------- segmentation

@given(size=st.integers(min_value=1, max_value=5000))
def test_segmentation_conserves_bytes_and_respects_capacities(size):
    policy = BestFitSegmentationPolicy(PAPER_TYPES)
    pieces = policy.segment_sizes(size)
    assert sum(n for _, n in pieces) == size
    assert all(0 < n <= ptype.max_payload for ptype, n in pieces)
    # only the last segment may be smaller than a full DH1
    assert all(n > 0 for _, n in pieces)


@given(size=st.integers(min_value=1, max_value=5000))
def test_segment_count_is_monotone_lower_bound(size):
    policy = BestFitSegmentationPolicy(PAPER_TYPES)
    count = policy.segment_count(size)
    assert count >= math.ceil(size / 183)
    assert count <= math.ceil(size / 27)


# ------------------------------------------------------- poll efficiency

@given(m=st.integers(min_value=1, max_value=600),
       span=st.integers(min_value=0, max_value=200))
@settings(max_examples=40, deadline=None)
def test_min_poll_efficiency_is_a_true_minimum(m, span):
    M = m + span
    eta = min_poll_efficiency(m, M, PAPER_TYPES)
    exhaustive = min_poll_efficiency(m, M, PAPER_TYPES, exhaustive=True)
    assert eta == exhaustive
    policy = BestFitSegmentationPolicy(PAPER_TYPES)
    # no packet size in range achieves a lower efficiency
    for size in (m, M, (m + M) // 2):
        assert size / policy.segment_count(size) >= eta - 1e-9


class _MidstreamMixingPolicy(BestFitSegmentationPolicy):
    """Non-final segments use the *second largest* type: plans mix types
    mid-stream, so segment-count breakpoints sit at mixed-capacity sums."""

    def choose_type(self, remaining):
        for ptype in self.by_capacity:
            if remaining <= ptype.max_payload:
                return ptype
        return self.by_capacity[-2] if len(self.by_capacity) > 1 \
            else self.largest


#: allowed-type sets whose segment plans mix packet types
MIXING_TYPE_SETS = [
    ("DH1", "DH3"),
    ("DH1", "DH3", "DH5"),
    ("DM1", "DH3"),
    ("DH1", "DM3", "DH5"),
    ("DM1", "DM3", "DH3", "DH5"),
]


@given(m=st.integers(min_value=1, max_value=500),
       span=st.integers(min_value=0, max_value=300),
       types=st.sampled_from(MIXING_TYPE_SETS),
       mixing=st.booleans())
@settings(max_examples=60, deadline=None)
# regression: only multiples of single capacities were enumerated as
# breakpoint candidates, missing mixed-type sums (e.g. DM3+DH3+1 = 305)
@example(m=250, span=110, types=("DH1", "DM3", "DH3"), mixing=True)
def test_min_poll_efficiency_true_minimum_across_type_sets(m, span, types,
                                                           mixing):
    M = m + span
    make_policy = _MidstreamMixingPolicy if mixing \
        else BestFitSegmentationPolicy
    policy = make_policy(types)
    eta = min_poll_efficiency(m, M, policy=policy)
    exhaustive = min_poll_efficiency(m, M, policy=policy, exhaustive=True)
    assert eta == exhaustive


# -------------------------------------------------------------- gs math

@given(rate=st.floats(min_value=8800.0, max_value=200_000.0),
       ctot=st.floats(min_value=0.0, max_value=1000.0),
       dtot=st.floats(min_value=0.0, max_value=0.05))
def test_delay_bound_positive_and_decreasing_in_rate(rate, ctot, dtot):
    tspec = cbr_tspec(0.020, 144, 176)
    bound = delay_bound(tspec, rate, ctot, dtot)
    assert bound > 0
    assert delay_bound(tspec, rate * 2, ctot, dtot) <= bound + 1e-12


@given(target=st.floats(min_value=0.012, max_value=0.5),
       dtot=st.floats(min_value=0.0, max_value=0.01))
def test_rate_for_delay_bound_round_trip(target, dtot):
    tspec = cbr_tspec(0.020, 144, 176)
    rate = rate_for_delay_bound(tspec, target, ctot=144.0, dtot=dtot)
    if target <= dtot:
        assert rate is None
    else:
        assert rate is not None and rate >= tspec.r
        assert delay_bound(tspec, rate, 144.0, dtot) <= target + 1e-9


# ----------------------------------------------------------- token bucket

@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.02),
                          st.integers(min_value=144, max_value=176)),
                min_size=1, max_size=100))
def test_cbr_spaced_arrivals_always_conform(gaps_and_sizes):
    tspec = cbr_tspec(0.020, 144, 176)
    bucket = TokenBucket(tspec)
    now = 0.0
    for extra_gap, size in gaps_and_sizes:
        now += 0.020 + extra_gap     # at least the CBR interval apart
        assert bucket.consume(size, now)


# ------------------------------------------------------------ wait bound

@given(intervals=st.lists(st.floats(min_value=5 * MS, max_value=100 * MS),
                          min_size=0, max_size=6))
# regression: an overloaded higher-priority set (sum s_max_j / t_j >= 1)
# used to diverge to float infinity and crash with OverflowError
@example(intervals=[0.0625, 0.005, 0.005, 0.005, 0.005])
def test_wait_bound_monotone_in_higher_priority_set(intervals):
    m_t = 3.75 * MS
    streams = [HigherPriorityStream(interval=i, max_transaction_time=2.5 * MS)
               for i in intervals]
    previous = 0.0
    for k in range(len(streams) + 1):
        result = compute_wait_bound(m_t, streams[:k])
        assert result.wait_bound >= max(previous, m_t) - 1e-12
        previous = result.wait_bound


# -------------------------------------------------------------- admission

@given(st.lists(st.tuples(st.integers(min_value=1, max_value=7),
                          st.sampled_from([UPLINK, DOWNLINK]),
                          st.floats(min_value=8800.0, max_value=30_000.0)),
                min_size=1, max_size=10))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# regression (hypothesis-found): over a whole greedy *sequence* piggybacking
# can end up with fewer flows — pairing admits an expensive flow whose
# capacity two later cheap flows needed.  The sound invariant is
# per-decision dominance, checked below.
@example(flows=[(1, UPLINK, 8800.0), (1, DOWNLINK, 10473.0),
                (1, UPLINK, 26585.0), (1, UPLINK, 8800.0),
                (1, UPLINK, 8800.0)])
def test_admission_satisfies_eq9_and_piggyback_dominates_per_decision(flows):
    tspec = cbr_tspec(0.020, 144, 176)

    def request(index, slave, direction, rate):
        return GSFlowRequest(flow_id=index, slave=slave, direction=direction,
                             tspec=tspec, rate=rate, eta_min=144.0)

    def check_invariants(controller):
        # invariant: every accepted stream satisfies Eq. 9
        for stream in controller.streams:
            assert stream.wait_bound <= stream.interval + 1e-12
        # invariant: priorities are a permutation of 1..n_streams
        priorities = sorted(s.priority for s in controller.streams)
        assert priorities == list(range(1, len(priorities) + 1))

    oblivious = AdmissionController(6 * 625e-6, piggyback_aware=False)
    admitted = []
    for index, (slave, direction, rate) in enumerate(flows, start=1):
        # a piggyback-aware controller holding exactly the same admitted
        # set (replayed; dominance makes every replayed admission succeed)
        aware = AdmissionController(6 * 625e-6, piggyback_aware=True)
        for args in admitted:
            assert aware.request_admission(request(*args)).accepted
        check_invariants(aware)
        decision = oblivious.request_admission(
            request(index, slave, direction, rate))
        check_invariants(oblivious)
        if decision.accepted:
            # ...never rejects a flow the pair-oblivious controller accepts
            assert aware.request_admission(
                request(index, slave, direction, rate)).accepted
            admitted.append((index, slave, direction, rate))


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=7),
                          st.sampled_from([UPLINK, DOWNLINK]),
                          st.floats(min_value=8800.0, max_value=30_000.0)),
                min_size=1, max_size=10))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ideal_budget_admission_equals_oblivious(flows):
    # an ideal LinkBudget (no loss, full residency, no absence) must be
    # indistinguishable from carrying no budget at all: same decisions,
    # same priorities, same intervals and wait bounds — bit for bit
    tspec = cbr_tspec(0.020, 144, 176)

    def request(index, slave, direction, rate, budget):
        return GSFlowRequest(flow_id=index, slave=slave, direction=direction,
                             tspec=tspec, rate=rate, eta_min=144.0,
                             budget=budget)

    oblivious = AdmissionController(6 * 625e-6, piggyback_aware=True)
    budgeted = AdmissionController(6 * 625e-6, piggyback_aware=True)
    for index, (slave, direction, rate) in enumerate(flows, start=1):
        plain = oblivious.request_admission(
            request(index, slave, direction, rate, None))
        ideal = budgeted.request_admission(
            request(index, slave, direction, rate, LinkBudget()))
        assert plain.accepted == ideal.accepted
        assert plain.reason == ideal.reason
        plain_streams = sorted(
            (s.flow_ids, s.priority, s.interval, s.wait_bound)
            for s in oblivious.streams)
        ideal_streams = sorted(
            (s.flow_ids, s.priority, s.interval, s.wait_bound)
            for s in budgeted.streams)
        assert plain_streams == ideal_streams


# ---------------------------------------------------------------- planner

@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=144, max_value=176),
                          st.floats(min_value=0.0, max_value=5 * MS)),
                min_size=1, max_size=50))
def test_variable_planner_never_plans_polls_closer_than_interval(events):
    config = PlannerConfig(flow_id=1, interval=16 * MS, rate=9000.0,
                           direction=UPLINK)
    planner = VariableIntervalPlanner(config, start_time=0.0)
    now = 0.0
    previous_planned = None
    for packet_id, (has_data, size, jitter) in enumerate(events, start=1):
        now = max(now, planner.next_planned) + jitter
        served = None
        if has_data:
            served = ServedSegment(hl_packet_id=packet_id, is_last_segment=True,
                                   hl_packet_size=size, hl_arrival_time=None)
        planner.record_poll(now, served)
        planned = planner.next_planned
        if previous_planned is not None:
            assert planned >= previous_planned - 1e-9
        previous_planned = planned


# ------------------------------------------------------------------- DES

@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50))
def test_event_loop_processes_timeouts_in_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield delay
        fired.append(env.now)

    for delay in delays:
        LoopWakeup(env, waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
