"""Unit tests of the effective-capacity link budget abstraction."""

import math

import pytest

from repro.baseband.fec import packet_error_probabilities
from repro.baseband.packets import BasebandPacket, resolve_types
from repro.core.link_budget import (
    IDEAL_LINK_BUDGET,
    MAX_LOSS,
    LinkBudget,
    bridge_residency,
    worst_case_budget,
    worst_data_loss,
)
from repro.piconet.bridge import ROLE_A, ROLE_B, BridgeSchedule

PAPER_TYPES = ("DH1", "DH3")


# ------------------------------------------------------------- LinkBudget

def test_default_budget_is_ideal_identity():
    budget = LinkBudget()
    assert budget.retransmission_factor() == 1.0
    # the ideal budget returns the *same* float, not a recomputed one
    interval = 0.0163125
    assert budget.effective_interval(interval) is interval
    assert budget is not IDEAL_LINK_BUDGET
    assert budget == IDEAL_LINK_BUDGET


def test_validation_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        LinkBudget(loss_probability=MAX_LOSS + 0.01)
    with pytest.raises(ValueError):
        LinkBudget(loss_probability=-0.1)
    with pytest.raises(ValueError):
        LinkBudget(residency=0.0)
    with pytest.raises(ValueError):
        LinkBudget(residency=1.5)
    with pytest.raises(ValueError):
        LinkBudget(absence_seconds=-1e-3)


def test_retransmission_factor_is_expected_transmissions():
    budget = LinkBudget(loss_probability=0.5)
    assert budget.retransmission_factor() == pytest.approx(2.0)
    # the MAX_LOSS cap bounds the factor at 20 expected transmissions
    worst = LinkBudget(loss_probability=MAX_LOSS)
    assert worst.retransmission_factor() == pytest.approx(20.0)


def test_effective_interval_deflates_by_residency():
    budget = LinkBudget(residency=0.5)
    assert budget.effective_interval(0.020) == pytest.approx(0.010)


def test_with_estimated_loss_only_raises():
    budget = LinkBudget(loss_probability=0.3)
    assert budget.with_estimated_loss(0.1) == budget
    raised = budget.with_estimated_loss(0.6)
    assert raised.loss_probability == pytest.approx(0.6)
    # measured loss beyond the cap clamps instead of failing validation
    assert budget.with_estimated_loss(0.99).loss_probability == MAX_LOSS
    with pytest.raises(ValueError):
        budget.with_estimated_loss(1.5)


# --------------------------------------------------------- loss analytics

def test_worst_data_loss_matches_fec_tables():
    ber = 3e-4
    expected = 0.0
    for ptype in resolve_types(PAPER_TYPES):
        if ptype.max_payload <= 0:
            continue
        packet = BasebandPacket(ptype, payload=ptype.max_payload)
        expected = max(expected,
                       packet_error_probabilities(packet, ber).any)
    assert worst_data_loss(ber, PAPER_TYPES) == pytest.approx(expected)
    assert worst_data_loss(0.0, PAPER_TYPES) == 0.0


def test_worst_data_loss_composes_interference_sectionwise():
    base, interference = 3e-4, 1e-3
    combined = worst_data_loss(base, ("DH1",), interference_ber=interference)
    ptype = resolve_types(("DH1",))[0]
    packet = BasebandPacket(ptype, payload=ptype.max_payload)
    p_base = packet_error_probabilities(packet, base).any
    p_int = packet_error_probabilities(packet, interference).any
    assert combined == pytest.approx(1 - (1 - p_base) * (1 - p_int))


def test_compose_applies_margins_and_estimated_loss():
    budget = LinkBudget.compose(ber=0.0, packet_types=PAPER_TYPES,
                                estimated_loss=0.2, loss_margin=0.1,
                                residency=0.5, residency_margin=0.1,
                                absence_seconds=0.004)
    assert budget.loss_probability == pytest.approx(0.3)
    assert budget.residency == pytest.approx(0.4)
    assert budget.absence_seconds == pytest.approx(0.004)
    ideal = LinkBudget.compose(ber=0.0, packet_types=PAPER_TYPES)
    assert ideal == IDEAL_LINK_BUDGET


# ------------------------------------------------------ pessimistic merge

def test_worst_case_budget_merges_pessimistically():
    a = LinkBudget(loss_probability=0.2, residency=0.9,
                   absence_seconds=0.001)
    b = LinkBudget(loss_probability=0.1, residency=0.5,
                   absence_seconds=0.005)
    merged = worst_case_budget((a, b))
    assert merged.loss_probability == pytest.approx(0.2)
    assert merged.residency == pytest.approx(0.5)
    assert merged.absence_seconds == pytest.approx(0.005)
    # None entries are transparent; an all-None merge stays budget-less
    assert worst_case_budget((a, None)) == a
    assert worst_case_budget((None, None)) is None


# ------------------------------------------------------- bridge residency

def test_bridge_residency_duty_and_worst_absence():
    schedule = BridgeSchedule(period_slots=96, share_a=0.3, switch_slots=2)
    residency, absence = bridge_residency(schedule, ROLE_A)
    assert residency == pytest.approx(schedule.duty(ROLE_A))
    # the absence window spans B's slots plus both guard windows
    assert absence == pytest.approx(0.043125)
    residency_b, absence_b = bridge_residency(schedule, ROLE_B)
    assert residency + residency_b < 1.0  # switching costs both sides
    assert absence_b < absence  # B holds the larger share's complement
    # a full-time link has no absence
    assert not math.isnan(absence_b)
