"""Admission control with piggybacking (Fig. 3 of the paper).

A Guaranteed Service flow is admissible at a given priority when the poll
delay bound ``u_i`` computed by the Fig. 2 algorithm does not exceed the
flow's poll interval ``t_i`` (equivalently ``R_i <= eta_min_i / u_i``,
Eq. 9).  Because ``u_i`` grows with the number of higher-priority flows,
*which* priority each flow gets matters; the admission routine therefore
re-assigns all priorities whenever a new flow requests admission, assigning
the lowest priorities first to flows that can still tolerate them.

Piggybacking: two oppositely directed GS flows between the master and the
same slave share poll transactions — every poll moves data in both
directions — so only the more demanding flow of such a pair (the one with
the smaller poll interval) needs its own polls.  The pair forms one *poll
stream*; taking this into account lets the admission control accept more
flows (paper Section 3.1.4, evaluated as Table 4 in this reproduction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baseband.constants import SLOT_SECONDS
from repro.core.link_budget import LinkBudget, worst_case_budget
from repro.core.token_bucket import TSpec
from repro.core.wait_bound import HigherPriorityStream, WaitBoundResult, compute_wait_bound
from repro.piconet.flows import DOWNLINK, UPLINK


@dataclass(frozen=True)
class GSFlowRequest:
    """One Guaranteed Service reservation request.

    Parameters
    ----------
    flow_id / slave / direction:
        Identity of the flow (see :class:`repro.piconet.flows.FlowSpec`).
    tspec:
        The flow's token bucket.
    rate:
        Requested fluid-model service rate ``R`` in bytes per second
        (``rate >= tspec.r``).
    eta_min:
        Minimum poll efficiency of the flow in bytes (Eq. 4).
    max_segment_slots:
        Slots of the largest baseband packet the flow's segments may use
        (3 for DH3).
    budget:
        Optional :class:`~repro.core.link_budget.LinkBudget` describing
        the link's effective capacity (expected loss, bridge residency).
        ``None`` — the default, and the paper's assumption — makes every
        budget-aware quantity degenerate to its oblivious value.
    """

    flow_id: int
    slave: int
    direction: str
    tspec: TSpec
    rate: float
    eta_min: float
    max_segment_slots: int = 3
    budget: Optional[LinkBudget] = None

    def __post_init__(self) -> None:
        if self.direction not in (UPLINK, DOWNLINK):
            raise ValueError(f"direction must be UL or DL, got {self.direction!r}")
        if self.rate < self.tspec.r - 1e-9:
            raise ValueError(
                f"requested rate {self.rate} below token rate {self.tspec.r}")
        if self.eta_min <= 0:
            raise ValueError("eta_min must be positive")
        if self.max_segment_slots not in (1, 3, 5):
            raise ValueError("max_segment_slots must be 1, 3 or 5")
        if self.budget is not None and not isinstance(self.budget, LinkBudget):
            raise ValueError(
                f"budget must be a LinkBudget or None, got {self.budget!r}")

    @property
    def interval(self) -> float:
        """The poll interval ``t_i = eta_min_i / R_i`` in seconds (Eq. 5)."""
        return self.eta_min / self.rate

    @property
    def effective_interval(self) -> float:
        """``t_i`` deflated by the link's residency share.

        A peer reachable only part of the time must be polled more often
        while it *is* reachable for the admitted rate to hold overall;
        without a budget this is exactly :attr:`interval`.
        """
        if self.budget is None:
            return self.interval
        return self.budget.effective_interval(self.interval)

    def solo_transaction_seconds(self) -> float:
        """Transaction time when this flow is polled alone.

        A single-direction GS poll pairs the flow's largest data packet with
        a one-slot POLL or NULL packet in the other direction.
        """
        return (self.max_segment_slots + 1) * SLOT_SECONDS

    def effective_transaction_seconds(self) -> float:
        """Expected solo transaction time including retransmissions.

        A lossy link repeats a transaction ``1 / (1 - loss)`` times on
        average before the segment gets through; the admission control
        budgets that whole expected cost, not just the first attempt.
        """
        if self.budget is None:
            return self.solo_transaction_seconds()
        return self.solo_transaction_seconds() \
            * self.budget.retransmission_factor()


@dataclass
class PollStream:
    """One or two (piggybacked) GS flows sharing the same planned polls."""

    primary: GSFlowRequest
    secondary: Optional[GSFlowRequest] = None
    priority: int = 0
    wait_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.secondary is not None:
            if self.secondary.slave != self.primary.slave:
                raise ValueError("piggybacked flows must share a slave")
            if self.secondary.direction == self.primary.direction:
                raise ValueError("piggybacked flows must be oppositely directed")

    @property
    def slave(self) -> int:
        return self.primary.slave

    @property
    def interval(self) -> float:
        """Poll interval of the stream (the primary's interval)."""
        return self.primary.interval

    @property
    def rate(self) -> float:
        return self.primary.rate

    @property
    def flow_ids(self) -> Tuple[int, ...]:
        if self.secondary is None:
            return (self.primary.flow_id,)
        return (self.primary.flow_id, self.secondary.flow_id)

    @property
    def combined_budget(self) -> Optional[LinkBudget]:
        """Worst-case budget over the stream's flows (``None``: oblivious).

        A piggybacked transaction touches both directions of the slave, so
        the stream must survive the lossier one and wait out the longer
        absence.
        """
        if self.secondary is None:
            return self.primary.budget
        return worst_case_budget((self.primary.budget,
                                  self.secondary.budget))

    @property
    def effective_interval(self) -> float:
        """The stream's poll interval deflated by the link's residency."""
        budget = self.combined_budget
        if budget is None:
            return self.interval
        return budget.effective_interval(self.interval)

    def max_transaction_seconds(self) -> float:
        """Longest transaction of this stream (both directions with data)."""
        if self.secondary is None:
            return self.primary.solo_transaction_seconds()
        return (self.primary.max_segment_slots
                + self.secondary.max_segment_slots) * SLOT_SECONDS

    def effective_transaction_seconds(self) -> float:
        """Expected transaction time including the link's retransmissions."""
        budget = self.combined_budget
        if budget is None:
            return self.max_transaction_seconds()
        return self.max_transaction_seconds() \
            * budget.retransmission_factor()

    @property
    def absence_seconds(self) -> float:
        """Longest window the stream's slave is unreachable (0: always there)."""
        budget = self.combined_budget
        return budget.absence_seconds if budget is not None else 0.0

    def as_higher_priority(self) -> HigherPriorityStream:
        """View of this stream as seen by a lower-priority flow (Fig. 2 input).

        Budget-aware on both axes: the stream's polls recur at the
        *effective* interval (more often, on a part-time link) and each
        occupies the *expected* transaction time (longer, with
        retransmissions) — so lower priorities budget the real load.
        """
        return HigherPriorityStream(
            interval=self.effective_interval,
            max_transaction_time=self.effective_transaction_seconds())


@dataclass
class AdmissionResult:
    """Outcome of one admission request."""

    accepted: bool
    #: the (new) set of poll streams, sorted by priority, when accepted
    streams: List[PollStream] = field(default_factory=list)
    reason: str = ""

    def stream_for(self, flow_id: int) -> Optional[PollStream]:
        for stream in self.streams:
            if flow_id in stream.flow_ids:
                return stream
        return None


class AdmissionController:
    """Implements the Fig. 3 routine over a growing set of GS flows.

    Parameters
    ----------
    max_transaction_seconds:
        ``M_t`` — the longest transaction possible in the piconet (including
        best-effort transactions), the initial value of the Fig. 2 iteration.
        With DH3 allowed in both directions this is 6 slots = 3.75 ms.
    piggyback_aware:
        When ``False``, step d of the routine is skipped and every flow
        needs its own poll stream (used for the Table 4 comparison).
    """

    def __init__(self, max_transaction_seconds: float = 6 * SLOT_SECONDS,
                 piggyback_aware: bool = True):
        if max_transaction_seconds <= 0:
            raise ValueError("max_transaction_seconds must be positive")
        self.max_transaction_seconds = max_transaction_seconds
        self.piggyback_aware = piggyback_aware
        self._accepted: List[GSFlowRequest] = []
        self._priorities: Dict[int, int] = {}
        self._streams: List[PollStream] = []

    # ------------------------------------------------------------- inspection
    @property
    def streams(self) -> List[PollStream]:
        return list(self._streams)

    # --------------------------------------------------------------- admission
    def evaluate(self, request: GSFlowRequest) -> AdmissionResult:
        """Dry-run admission of ``request`` (no state change)."""
        return self._admit(request, commit=False)

    def request_admission(self, request: GSFlowRequest) -> AdmissionResult:
        """Admit ``request`` if possible, committing the new priorities."""
        return self._admit(request, commit=True)

    def remove_flow(self, flow_id: int) -> None:
        """Tear down a flow; remaining priorities are recomputed."""
        remaining = [r for r in self._accepted if r.flow_id != flow_id]
        if len(remaining) == len(self._accepted):
            raise KeyError(f"flow {flow_id} is not admitted")
        self._accepted = []
        self._priorities = {}
        self._streams = []
        for req in remaining:
            result = self._admit(req, commit=True)
            if not result.accepted:  # pragma: no cover - removal only shrinks load
                raise RuntimeError(
                    f"internal error: flow {req.flow_id} no longer admissible "
                    "after removing another flow")

    # --------------------------------------------------------------- internals
    def _admit(self, request: GSFlowRequest, commit: bool) -> AdmissionResult:
        if any(r.flow_id == request.flow_id for r in self._accepted):
            return AdmissionResult(False, reason=f"flow {request.flow_id} already admitted")
        if request.effective_interval < self.max_transaction_seconds - 1e-12:
            # Even the highest priority cannot help: u_i >= M_t > t_i
            # (with a budget, against the residency-deflated interval).
            return AdmissionResult(
                False, reason=(
                    f"requested rate {request.rate:.1f} B/s needs polls every "
                    f"{request.effective_interval * 1000:.2f} ms, shorter than the longest "
                    f"transaction {self.max_transaction_seconds * 1000:.2f} ms"))

        # step a/b: candidate set F = accepted flows + the new one
        candidates: List[GSFlowRequest] = list(self._accepted) + [request]

        # initial priority values (step e search order): existing flows keep
        # their current priority; the new flow starts at its counterpart's
        # priority if one exists, otherwise below everything else.
        initial_priority = dict(self._priorities)
        counterpart = self._find_counterpart(request, self._accepted)
        if counterpart is not None and counterpart.flow_id in initial_priority:
            initial_priority[request.flow_id] = initial_priority[counterpart.flow_id]
        else:
            max_existing = max(initial_priority.values(), default=0)
            initial_priority[request.flow_id] = max_existing + 1

        # step c/d: pair oppositely directed flows on the same slave; the one
        # with the larger poll interval (smaller rate) piggybacks.
        streams = self._build_streams(candidates)

        # step e/f: assign priorities from the lowest upwards.
        assignment = self._assign_priorities(streams, initial_priority)
        if assignment is None and self.piggyback_aware:
            # Pairing is an optimisation, not an obligation: a piggybacked
            # stream's worst-case transaction is longer (data in both
            # directions, 6 slots vs. a solo poll's 4), which can push a
            # lower-priority stream past Eq. 9.  Before rejecting, retry
            # with every flow on its own poll stream, so piggyback
            # awareness never admits fewer flows than being oblivious to
            # pairs would.
            solo = [PollStream(primary=req) for req in candidates]
            assignment = self._assign_priorities(solo, initial_priority)
        if assignment is None:
            return AdmissionResult(
                False, streams=[],
                reason="no priority assignment satisfies Eq. 9 for all flows")

        if commit:
            self._accepted = candidates
            self._streams = assignment
            self._priorities = {}
            for stream in assignment:
                for fid in stream.flow_ids:
                    self._priorities[fid] = stream.priority
        return AdmissionResult(True, streams=assignment)

    @staticmethod
    def _find_counterpart(request: GSFlowRequest,
                          pool: Sequence[GSFlowRequest]) -> Optional[GSFlowRequest]:
        for other in pool:
            if (other.slave == request.slave
                    and other.direction != request.direction):
                return other
        return None

    def _build_streams(self, candidates: Sequence[GSFlowRequest]) -> List[PollStream]:
        if not self.piggyback_aware:
            return [PollStream(primary=req) for req in candidates]
        remaining = list(candidates)
        streams: List[PollStream] = []
        while remaining:
            req = remaining.pop(0)
            partner_index = None
            for index, other in enumerate(remaining):
                if other.slave == req.slave and other.direction != req.direction:
                    partner_index = index
                    break
            if partner_index is None:
                streams.append(PollStream(primary=req))
                continue
            partner = remaining.pop(partner_index)
            # the flow with the smaller (effective) interval leads the stream
            primary, secondary = (req, partner) \
                if req.effective_interval <= partner.effective_interval \
                else (partner, req)
            streams.append(PollStream(primary=primary, secondary=secondary))
        return streams

    def _assign_priorities(self, streams: List[PollStream],
                           initial_priority: Dict[int, int]
                           ) -> Optional[List[PollStream]]:
        unassigned = list(streams)
        assigned: List[PollStream] = []
        level = len(unassigned)
        while unassigned:
            # search in descending order of initial priority value
            order = sorted(
                range(len(unassigned)),
                key=lambda i: -initial_priority.get(unassigned[i].primary.flow_id, 0))
            chosen_index = None
            chosen_result: Optional[WaitBoundResult] = None
            for index in order:
                candidate = unassigned[index]
                higher = [s.as_higher_priority() for j, s in enumerate(unassigned)
                          if j != index]
                result = compute_wait_bound(
                    self.max_transaction_seconds, higher,
                    own_interval=candidate.effective_interval,
                    absence_seconds=candidate.absence_seconds)
                if result.converged and \
                        result.wait_bound <= candidate.effective_interval + 1e-12:
                    chosen_index = index
                    chosen_result = result
                    break
            if chosen_index is None:
                return None
            stream = unassigned.pop(chosen_index)
            assigned.append(replace_stream(stream, priority=level,
                                           wait_bound=chosen_result.wait_bound))
            level -= 1
        assigned.sort(key=lambda s: s.priority)
        return assigned


def replace_stream(stream: PollStream, priority: int, wait_bound: float) -> PollStream:
    """A copy of ``stream`` with a new priority and wait bound."""
    return PollStream(primary=stream.primary, secondary=stream.secondary,
                      priority=priority, wait_bound=wait_bound)


def max_admissible_rate(eta_min: float, wait_bound: float) -> float:
    """Eq. 9 rearranged: the largest service rate admissible given ``u_i``."""
    if wait_bound <= 0:
        raise ValueError("wait bound must be positive")
    return eta_min / wait_bound
