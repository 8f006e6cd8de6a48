"""Per-link effective-capacity budgets for admission control.

The paper's admission control (Fig. 2 wait bound, Eq. 9 rate test)
assumes every poll transaction succeeds.  The simulator has long since
stopped assuming that: links lose packets to FEC-decoded bit errors
(:mod:`repro.baseband.fec`), to inter-piconet hop collisions
(:mod:`repro.baseband.interference`), and scatternet bridges are simply
absent for part of every :class:`~repro.piconet.bridge.BridgeSchedule`
period.  A :class:`LinkBudget` condenses all of that into the two numbers
the admission pipeline can consume:

``loss_probability``
    Probability that one data transmission on the link fails (any packet
    section corrupted) and must be retransmitted.  Expected transmissions
    per delivered segment are then ``1 / (1 - loss)`` — the
    :meth:`~LinkBudget.retransmission_factor` that inflates transaction
    times and the exported ``C`` error term.

``residency`` / ``absence_seconds``
    The fraction of time the link's peer is reachable at all, and the
    longest contiguous unreachable window.  Residency deflates the usable
    poll interval (the flow must be served at ``R / residency`` while the
    peer is present); the absence window adds to the rate-independent
    ``D`` term, because a planned poll may additionally wait for the
    bridge to return.

Budgets are *static admission-time knowledge* composed from the scenario
spec (:func:`LinkBudget.compose`); at runtime the
:class:`~repro.core.gs_manager.GuaranteedServiceManager` compares them
against live :class:`~repro.baseband.segmentation.LinkQualityEstimator`
readings and flags (or renegotiates) flows whose measured loss exceeds
the admitted budget (:meth:`LinkBudget.with_estimated_loss`).

The default budget (:data:`IDEAL_LINK_BUDGET`) is the paper's ideal
channel: zero loss, full residency.  Every budget-aware code path
degenerates to the oblivious one under it — byte-identically, which the
equivalence property in ``tests/properties`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Tuple

from repro.baseband.constants import SLOT_SECONDS
from repro.baseband.fec import packet_error_probabilities
from repro.baseband.packets import BasebandPacket, resolve_types

#: Hard cap on any admitted loss probability: keeps the retransmission
#: factor ``1 / (1 - loss)`` finite (at most 20 expected transmissions).
#: A link lossier than this cannot carry a Guaranteed Service anyway.
MAX_LOSS = 0.95


@dataclass(frozen=True)
class LinkBudget:
    """Effective-capacity knowledge about one ``(slave, direction)`` link."""

    #: probability one data transmission fails and is retransmitted
    loss_probability: float = 0.0
    #: fraction of time the peer is reachable (1.0: always present)
    residency: float = 1.0
    #: longest contiguous unreachable window, seconds
    absence_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= MAX_LOSS:
            raise ValueError(
                f"loss_probability must lie within [0, {MAX_LOSS}], got "
                f"{self.loss_probability}")
        if not 0.0 < self.residency <= 1.0:
            raise ValueError(
                f"residency must lie within (0, 1], got {self.residency}")
        if self.absence_seconds < 0.0:
            raise ValueError(
                f"absence_seconds cannot be negative, got "
                f"{self.absence_seconds}")

    def retransmission_factor(self) -> float:
        """Expected transmissions per delivered segment, ``>= 1``."""
        return 1.0 / (1.0 - self.loss_probability)

    def effective_interval(self, interval: float) -> float:
        """Deflate a poll interval by the link's residency share.

        A flow of rate ``R`` on a link present only ``residency`` of the
        time must be served at ``R / residency`` while the peer is there,
        i.e. polled every ``t_i * residency`` seconds (Eq. 5 with the
        inflated rate demand).
        """
        if self.residency == 1.0:
            return interval
        return interval * self.residency

    def with_estimated_loss(self, measured_loss: float) -> "LinkBudget":
        """This budget updated with a live loss measurement.

        The composed (analytic) loss is a lower bound on what admission
        must cover, so the update only ever *raises* the loss — a quiet
        estimator never talks admission into optimism — and clamps at
        :data:`MAX_LOSS` so the retransmission factor stays finite.
        """
        if not 0.0 <= measured_loss <= 1.0:
            raise ValueError(
                f"measured_loss must lie within [0, 1], got {measured_loss}")
        loss = min(max(measured_loss, self.loss_probability), MAX_LOSS)
        return replace(self, loss_probability=loss)

    @classmethod
    def compose(cls,
                ber: float = 0.0,
                packet_types: Sequence[str] = (),
                interference_ber: float = 0.0,
                estimated_loss: float = 0.0,
                residency: float = 1.0,
                absence_seconds: float = 0.0,
                loss_margin: float = 0.0,
                residency_margin: float = 0.0) -> "LinkBudget":
        """Compose one link's budget from everything the spec knows.

        ``ber`` is the link's static bit error rate (for a Gilbert-Elliott
        link: its long-run mean) and ``interference_ber`` the analytic
        hop-collision BER (collision probability times per-collision BER);
        both are FEC-decomposed over the worst allowed data packet type in
        ``packet_types``, independently, and composed per type — exactly
        the composition :class:`~repro.baseband.interference.
        InterferenceAwareChannel` applies per section at runtime.
        ``estimated_loss`` (e.g. a live estimator reading, or the
        scenario's estimator seed) only ever raises the result, and
        ``loss_margin`` / ``residency_margin`` add the operator's safety
        margins on top.
        """
        if loss_margin < 0.0 or residency_margin < 0.0:
            raise ValueError("margins cannot be negative")
        loss = worst_data_loss(ber, packet_types, interference_ber)
        loss = max(loss, estimated_loss)
        loss = min(loss + loss_margin, MAX_LOSS)
        residency = max(residency - residency_margin, 1e-6)
        return cls(loss_probability=loss, residency=residency,
                   absence_seconds=absence_seconds)


#: The paper's assumption: a clean, always-present link.
IDEAL_LINK_BUDGET = LinkBudget()


def worst_data_loss(ber: float, packet_types: Sequence[str],
                    interference_ber: float = 0.0) -> float:
    """Worst-case single-transmission loss over the allowed data types.

    For each data-carrying type the full-payload packet is FEC-decomposed
    at ``ber`` and (independently) at ``interference_ber``; a transmission
    fails when either process corrupts any section, so the per-type loss
    composes as ``1 - (1 - p_base)(1 - p_boost)`` — the section-wise
    product :class:`~repro.baseband.interference.InterferenceAwareChannel`
    applies collapses to exactly this at the whole-packet level.  The
    budget takes the worst type because segmentation may use any of them.
    """
    if ber <= 0.0 and interference_ber <= 0.0:
        return 0.0
    worst = 0.0
    for ptype in resolve_types(tuple(packet_types)):
        if ptype.max_payload <= 0:
            continue
        packet = BasebandPacket(ptype, payload=ptype.max_payload)
        survive = 1.0 - packet_error_probabilities(packet, ber).any
        if interference_ber > 0.0:
            survive *= 1.0 - packet_error_probabilities(
                packet, interference_ber).any
        worst = max(worst, 1.0 - survive)
    return min(worst, MAX_LOSS)


def worst_case_budget(budgets: Iterable[Optional["LinkBudget"]]
                      ) -> Optional["LinkBudget"]:
    """The most pessimistic combination of several links' budgets.

    Used by piggybacked poll streams, whose transactions touch both
    directions of a slave: the stream must survive the lossier direction,
    and the peer must be present for either.  ``None`` entries (oblivious
    links) are ignored; all-``None`` yields ``None``, keeping the
    oblivious path free of budget objects entirely.
    """
    combined: Optional[LinkBudget] = None
    for budget in budgets:
        if budget is None:
            continue
        if combined is None:
            combined = budget
            continue
        combined = LinkBudget(
            loss_probability=max(combined.loss_probability,
                                 budget.loss_probability),
            residency=min(combined.residency, budget.residency),
            absence_seconds=max(combined.absence_seconds,
                                budget.absence_seconds))
    return combined


def bridge_residency(schedule, role: str) -> Tuple[float, float]:
    """A bridge's ``(residency, absence_seconds)`` in one piconet.

    ``schedule`` is a :class:`~repro.piconet.bridge.BridgeSchedule`;
    residency is its presence duty in ``role`` and the absence window the
    longest run of consecutive absent slots (scanned over two periods so
    a run wrapping the period boundary is measured whole).
    """
    present = schedule.presence(role)
    period = schedule.period_slots
    longest = run = 0
    for slot in range(2 * period):
        if present(slot):
            run = 0
        else:
            run += 1
            longest = max(longest, run)
    longest = min(longest, period)
    return schedule.duty(role), longest * SLOT_SECONDS
