"""Property-based tests of the channel-state and interference invariants."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baseband.channel import GilbertElliottChannel
from repro.baseband.interference import (
    InterferenceField,
    bulk_active,
    bulk_randrange,
)
from repro.sim.rng import RandomStreams

probabilities = st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False)
duty_cycles = st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)


# ------------------------------------------------- Gilbert-Elliott closure

def iterated_bad_probability(p_gb: float, p_bg: float, slots: int,
                             from_good: bool) -> float:
    """``P(bad after slots)`` by explicit one-slot steps of the chain."""
    p_bad = 0.0 if from_good else 1.0
    for _ in range(slots):
        p_bad = p_bad * (1.0 - p_bg) + (1.0 - p_bad) * p_gb
    return p_bad


@given(p_gb=probabilities, p_bg=probabilities,
       slots=st.integers(min_value=0, max_value=400),
       from_good=st.booleans())
# rounding once took this one to -5.6e-17
@example(p_gb=0.5, p_bg=1.0, slots=1, from_good=False)
@settings(max_examples=200, deadline=None)
def test_closed_form_n_step_matches_explicit_single_slot_steps(
        p_gb, p_bg, slots, from_good):
    channel = GilbertElliottChannel(p_gb=p_gb, p_bg=p_bg)
    closed = channel.n_step_bad_probability(slots, from_good=from_good)
    explicit = iterated_bad_probability(p_gb, p_bg, slots, from_good)
    assert closed == pytest.approx(explicit, abs=1e-9)
    assert 0.0 <= closed <= 1.0


@given(p_gb=st.floats(min_value=1e-6, max_value=1.0),
       p_bg=st.floats(min_value=1e-6, max_value=1.0),
       from_good=st.booleans())
@settings(max_examples=50, deadline=None)
def test_n_step_converges_to_the_stationary_distribution(
        p_gb, p_bg, from_good):
    channel = GilbertElliottChannel(p_gb=p_gb, p_bg=p_bg)
    total = p_gb + p_bg
    if total < 2.0:  # total == 2 oscillates deterministically
        # the chain mixes at rate |1 - total|: give it 40 time constants
        slots = int(40 / min(total, 2.0 - total)) + 1
        limit = channel.n_step_bad_probability(slots, from_good=from_good)
        assert limit == pytest.approx(channel.stationary_bad, abs=1e-6)
    assert channel.n_step_bad_probability(0, from_good=True) == 0.0
    assert channel.n_step_bad_probability(0, from_good=False) == 1.0
    with pytest.raises(ValueError):
        channel.n_step_bad_probability(-1)


# --------------------------------------------- interference field counting

@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       duties=st.lists(duty_cycles, min_size=1, max_size=4),
       horizon=st.integers(min_value=1, max_value=400))
@settings(max_examples=60, deadline=None)
def test_field_collisions_match_brute_force_hop_overlap_count(
        seed, duties, horizon):
    field = InterferenceField(streams=RandomStreams(seed).child("intf"))
    victim = field.register("victim")
    others = [field.register(f"i{index}", duty_cycle=duty)
              for index, duty in enumerate(duties)]

    brute_force = 0
    for slot in range(horizon):
        channel = victim.hops.channel_at(slot)
        for other in others:
            if other.active_at(slot) \
                    and other.hops.channel_at(slot) == channel:
                brute_force += 1

    assert field.count_collisions("victim", horizon) == brute_force
    # per-slot counts agree too, and the victim never collides with itself
    assert all(field.collisions("victim", slot)
               <= len(others) for slot in range(horizon))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       duties=st.lists(duty_cycles, min_size=0, max_size=4),
       horizon=st.integers(min_value=1, max_value=400),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_occupancy_index_equals_pairwise_scan(seed, duties, horizon, data):
    """The tentpole equivalence: every public collision accessor built on
    the occupancy index returns exactly what the retained pairwise
    reference scan returns — same integers, bit-identical floats —
    regardless of the order slots are first queried in."""
    field = InterferenceField(streams=RandomStreams(seed).child("intf"))
    field.register("victim")
    for index, duty in enumerate(duties):
        field.register(f"i{index}", duty_cycle=duty)

    # query in an arbitrary order first, so the index's lazy block builds
    # and the pairwise scan's lazy per-slot draws interleave arbitrarily
    probes = data.draw(st.lists(
        st.integers(min_value=0, max_value=horizon - 1), max_size=20))
    for slot in probes:
        assert field.collisions("victim", slot) \
            == field.collisions_pairwise("victim", slot)

    pairwise = [field.collisions_pairwise("victim", slot)
                for slot in range(horizon)]
    assert [field.collisions("victim", slot) for slot in range(horizon)] \
        == pairwise
    assert field.count_collisions("victim", horizon) == sum(pairwise)
    per_collision = field.ber_per_collision
    for slot in probes:
        expected = min(0.5, pairwise[slot] * per_collision) \
            if pairwise[slot] else 0.0
        assert field.collision_ber("victim", slot) == expected

    start = data.draw(st.integers(min_value=0, max_value=horizon - 1))
    slots = data.draw(st.integers(min_value=1, max_value=5))
    expected_mean = sum(
        min(0.5, count * per_collision) if count else 0.0
        for count in (field.collisions_pairwise("victim", s)
                      for s in range(start, start + slots))) / slots
    assert field.mean_collision_ber("victim", start, slots) == expected_mean


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       reports=st.lists(st.tuples(st.integers(min_value=0, max_value=380),
                                  st.integers(min_value=1, max_value=5)),
                        max_size=12),
       horizon=st.integers(min_value=1, max_value=400))
@settings(max_examples=60, deadline=None)
def test_coupled_occupancy_equals_pairwise_scan(seed, reports, horizon):
    """Coupled members (reported activity, overlapping and out-of-order
    reports included) agree with the pairwise reference too."""
    field = InterferenceField(streams=RandomStreams(seed).child("intf"))
    field.register_coupled("victim")
    field.register_coupled("peer")
    field.register("noise", duty_cycle=0.5)
    # interleave reports with queries so reports land both before and
    # after the occupancy index covers their slots
    for index, (start, slots) in enumerate(reports):
        field.report_transmission("peer", start, slots)
        if index % 2:
            field.count_collisions("victim", horizon)
    pairwise = [field.collisions_pairwise("victim", slot)
                for slot in range(horizon)]
    assert [field.collisions("victim", slot) for slot in range(horizon)] \
        == pairwise
    assert field.count_collisions("victim", horizon) == sum(pairwise)


@given(duties=st.lists(duty_cycles, min_size=0, max_size=5))
@settings(max_examples=60, deadline=None)
def test_field_analytic_collision_probability_product_form(duties):
    field = InterferenceField(streams=5)
    field.register("victim")
    for index, duty in enumerate(duties):
        field.register(f"i{index}", duty_cycle=duty)
    expected = 1.0
    for duty in duties:
        expected *= 1.0 - duty / field.channels
    assert field.expected_collision_probability("victim") == \
        pytest.approx(1.0 - expected)


def test_field_empirical_rate_approaches_the_analytic_probability():
    field = InterferenceField(streams=17)
    field.register("victim")
    field.register("a", duty_cycle=1.0)
    field.register("b", duty_cycle=0.5)
    horizon = 60_000
    # collider-slots over the horizon: the expected count sums each
    # member's own duty/channels rate
    expected = (1.0 + 0.5) / field.channels * horizon
    count = field.count_collisions("victim", horizon)
    assert count == pytest.approx(expected, rel=0.15)


# ----------------------------------------------- bulk exact-order draws

seeds = st.integers(min_value=0, max_value=2**32 - 1)
draw_counts = st.integers(min_value=0, max_value=600)

#: duties whose threshold falls exactly on a top-byte boundary (a tie on
#: every 256th draw) and their nearest neighbours on either side
TIE_DUTIES = sorted({duty for k in range(257)
                     for duty in (k / 256,
                                  math.nextafter(k / 256, 0.0),
                                  math.nextafter(k / 256, 1.0))
                     if 0.0 <= duty <= 1.0})


@given(seed=seeds, n=st.integers(min_value=1, max_value=255),
       count=draw_counts)
@settings(max_examples=300, deadline=None)
def test_bulk_randrange_equals_the_per_call_loop(seed, n, count):
    per_call, bulk = random.Random(seed), random.Random(seed)
    expected = [per_call.randrange(n) for _ in range(count)]
    assert list(bulk_randrange(bulk, n, count)) == expected
    assert bulk.getstate() == per_call.getstate()


@given(seed=seeds,
       duty=st.one_of(st.sampled_from(TIE_DUTIES), duty_cycles),
       count=draw_counts)
@settings(max_examples=300, deadline=None)
def test_bulk_active_equals_the_per_call_loop(seed, duty, count):
    per_call, bulk = random.Random(seed), random.Random(seed)
    expected = [int(per_call.random() < duty) for _ in range(count)]
    assert list(bulk_active(bulk, duty, count)) == expected
    assert bulk.getstate() == per_call.getstate()


def pairwise_mean_ber(field, victim, start, slots):
    """``mean_collision_ber`` recomputed from the pairwise reference."""
    total = 0.0
    for slot in range(start, start + slots):
        count = field.collisions_pairwise(victim, slot)
        if count:
            total += min(0.5, count * field.ber_per_collision)
    return total / slots


field_operations = st.lists(st.one_of(
    st.tuples(st.just("report"), st.sampled_from(("victim", "peer")),
              st.integers(min_value=0, max_value=380),
              st.integers(min_value=1, max_value=5)),
    # the switch slot advances by the drawn step (switches are ordered)
    st.tuples(st.just("switch"), st.just("noise"),
              st.integers(min_value=0, max_value=80), st.booleans()),
    st.tuples(st.just("query"), st.just("victim"),
              st.integers(min_value=0, max_value=380),
              st.integers(min_value=1, max_value=5)),
), max_size=30)


@given(seed=seeds, duty=duty_cycles, operations=field_operations)
@settings(max_examples=80, deadline=None)
def test_interleaved_reports_switches_and_queries_match_a_fresh_field(
        seed, duty, operations):
    """Late reports and switches land whatever the index already covers:
    every query agrees with the pairwise scan of the same field, and the
    final state equals a field that saw only the reports and switches."""

    def build():
        field = InterferenceField(streams=RandomStreams(seed).child("intf"))
        field.register_coupled("victim")
        field.register_coupled("peer")
        field.register("noise", duty_cycle=duty)
        return field

    field = build()
    applied = []
    switch_slot = 0
    for kind, name, first, second in operations:
        if kind == "report":
            field.report_transmission(name, first, second)
            applied.append((kind, name, first, second))
        elif kind == "switch":
            switch_slot += first
            field.set_interferer_enabled(name, switch_slot, second)
            applied.append((kind, name, switch_slot, second))
        else:
            assert field.mean_collision_ber(name, first, second) \
                == pairwise_mean_ber(field, name, first, second)

    fresh = build()
    for kind, name, first, second in applied:
        if kind == "report":
            fresh.report_transmission(name, first, second)
        else:
            fresh.set_interferer_enabled(name, first, second)
    horizon = 400
    pairwise = [field.collisions_pairwise("victim", slot)
                for slot in range(horizon)]
    for built in (field, fresh):
        assert [built.collisions("victim", slot)
                for slot in range(horizon)] == pairwise
        assert built.count_collisions("victim", horizon) == sum(pairwise)
    for start in range(0, horizon - 5, 13):
        assert field.mean_collision_ber("victim", start, 5) \
            == fresh.mean_collision_ber("victim", start, 5) \
            == pairwise_mean_ber(field, "victim", start, 5)


@given(seed=seeds,
       victim_duty=st.one_of(st.none(), st.floats(
           min_value=0.0, max_value=1.0, exclude_max=True,
           allow_nan=False)),
       duties=st.lists(duty_cycles, min_size=1, max_size=3),
       reports=st.lists(st.tuples(st.sampled_from(("victim", "peer")),
                                  st.integers(min_value=0, max_value=290),
                                  st.integers(min_value=1, max_value=5)),
                        max_size=10),
       horizon=st.integers(min_value=1, max_value=300))
@settings(max_examples=30, deadline=None)
def test_mixed_field_matches_pairwise_for_every_victim(
        seed, victim_duty, duties, reports, horizon):
    """Duty-cycle and coupled members side by side: every member, as the
    victim, reads the bulk counts plus the reported-air index exactly as
    the pairwise reference counts it.  ``victim_duty`` of ``None`` makes
    the victim coupled; otherwise it is a duty-cycle member below 1."""
    field = InterferenceField(streams=RandomStreams(seed).child("intf"))
    if victim_duty is None:
        field.register_coupled("victim")
    else:
        field.register("victim", duty_cycle=victim_duty)
    field.register_coupled("peer")
    for index, duty in enumerate(duties):
        field.register(f"i{index}", duty_cycle=duty)
    for index, (name, start, slots) in enumerate(reports):
        if field.member(name).coupled:
            field.report_transmission(name, start, slots)
        if index % 2:  # later reports land on already-built cells
            field.count_collisions("peer", horizon)
    for name in field.members():
        pairwise = [field.collisions_pairwise(name, slot)
                    for slot in range(horizon)]
        assert [field.collisions(name, slot)
                for slot in range(horizon)] == pairwise
        assert field.count_collisions(name, horizon) == sum(pairwise)
        assert field.observed_collision_fraction(name, horizon) \
            == (horizon - pairwise.count(0)) / horizon
        for start in range(0, horizon, 7):
            slots = min(5, horizon - start)
            assert field.mean_collision_ber(name, start, slots) \
                == pairwise_mean_ber(field, name, start, slots)
