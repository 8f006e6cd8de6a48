"""Guaranteed Service management for one piconet.

:class:`GuaranteedServiceManager` ties the building blocks together: it
derives the poll interval from each flow's TSpec and requested rate (or
negotiates the rate from a requested delay bound using the exported error
terms), runs the admission control, keeps the resulting poll streams sorted
by priority and owns one poll planner per stream.

The manager is deliberately simulator-agnostic: it works in seconds and
never touches queues or the event loop.  The piconet-facing poller
(:class:`repro.core.pfp.PredictiveFairPoller`) translates between the two
worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.baseband.constants import SLOT_SECONDS
from repro.baseband.segmentation import (
    BestFitSegmentationPolicy,
    LinkQualityEstimator,
)
from repro.core.admission import (
    AdmissionController,
    AdmissionResult,
    GSFlowRequest,
    PollStream,
)
from repro.core.error_terms import ErrorTerms, export_error_terms
from repro.core.gs_math import delay_bound, rate_for_delay_bound
from repro.core.link_budget import LinkBudget
from repro.core.planning import (
    BasePlanner,
    FixedIntervalPlanner,
    PlannerConfig,
    ServedSegment,
    VariableIntervalPlanner,
)
from repro.core.poll_efficiency import min_poll_efficiency
from repro.core.token_bucket import TSpec
from repro.piconet.flows import DOWNLINK, FlowSpec

_next_planned = attrgetter("next_planned")


@dataclass
class GSFlowSetup:
    """The outcome of adding one Guaranteed Service flow."""

    spec: FlowSpec
    tspec: TSpec
    request: GSFlowRequest
    accepted: bool
    reason: str = ""
    #: the delay bound requested by the application, if rate negotiation was
    #: used (``None`` when the rate was specified directly)
    requested_delay_bound: Optional[float] = None

    @property
    def rate(self) -> float:
        """Admitted fluid-model service rate in bytes per second."""
        return self.request.rate

    @property
    def interval(self) -> float:
        """Poll interval ``t_i`` in seconds."""
        return self.request.interval

    @property
    def eta_min(self) -> float:
        return self.request.eta_min


class GuaranteedServiceManager:
    """Admission, error-term export and poll planning for GS flows.

    Parameters
    ----------
    max_transaction_seconds:
        ``M_t``: the longest transaction possible in the piconet (the Fig. 2
        initial value).  With DH3 allowed for every flow: 6 slots = 3.75 ms.
    piggyback_aware:
        Whether admission exploits oppositely-directed flow pairs.
    variable_interval:
        ``True`` for the Section 3.2 poller (default, the paper's evaluated
        configuration), ``False`` for the plain fixed-interval poller.
    postpone_by_packet_size / postpone_after_unsuccessful /
    skip_when_no_downlink_data:
        Individual toggles for the three Section 3.2 improvements (only
        relevant when ``variable_interval`` is true); used by the ablation
        benchmark.
    link_budgets:
        Optional ``(slave, direction) -> LinkBudget`` map: the
        effective-capacity knowledge (expected loss, interference, bridge
        residency) admission should budget per link.  ``None`` (the
        default) keeps the manager oblivious — the paper's ideal-channel
        assumption, bit-identical to the historical behaviour.
    estimator_alpha / estimator_initial_loss:
        EWMA parameters of the per-link loss estimators fed through
        :meth:`observe_link`; the initial loss seeds every estimator (an
        operator's prior for links without observations yet).
    """

    def __init__(self, max_transaction_seconds: float = 6 * SLOT_SECONDS,
                 piggyback_aware: bool = True,
                 variable_interval: bool = True,
                 postpone_by_packet_size: bool = True,
                 postpone_after_unsuccessful: bool = True,
                 skip_when_no_downlink_data: bool = True,
                 link_budgets: Optional[Mapping[Tuple[int, str],
                                               LinkBudget]] = None,
                 estimator_alpha: float = 0.05,
                 estimator_initial_loss: float = 0.0):
        self.admission = AdmissionController(
            max_transaction_seconds=max_transaction_seconds,
            piggyback_aware=piggyback_aware)
        self.max_transaction_seconds = max_transaction_seconds
        self.variable_interval = variable_interval
        self.postpone_by_packet_size = postpone_by_packet_size
        self.postpone_after_unsuccessful = postpone_after_unsuccessful
        self.skip_when_no_downlink_data = skip_when_no_downlink_data
        self._link_budgets: Dict[Tuple[int, str], LinkBudget] = \
            dict(link_budgets) if link_budgets is not None else {}
        self.estimator_alpha = estimator_alpha
        self.estimator_initial_loss = estimator_initial_loss
        self._estimators: Dict[Tuple[int, str], LinkQualityEstimator] = {}
        self._setups: Dict[int, GSFlowSetup] = {}
        self._planners: Dict[int, BasePlanner] = {}
        #: earliest ``next_planned`` over all planners (``None``: no
        #: planner); only :meth:`record_poll` and :meth:`_rebuild_planners`
        #: move a planned time, and both refresh it
        self._earliest_planned: Optional[float] = None
        self._streams: List[PollStream] = []
        #: ``hook(flow_id, setup)`` called when a renegotiation rejects a
        #: previously admitted flow (the eviction path).  The manager is
        #: simulator-agnostic, so the piconet-side teardown — detaching the
        #: flow state and its queued segments from the master loop and the
        #: poller — registers here (see ``repro.scenario.timeline``):
        #: without it an evicted flow would keep consuming polls it no
        #: longer pays for.
        self._on_eviction: List[Callable[[int, GSFlowSetup], None]] = []

    def add_eviction_hook(self,
                          hook: Callable[[int, "GSFlowSetup"], None]) -> None:
        """Register ``hook(flow_id, setup)`` for rejected renegotiations."""
        self._on_eviction.append(hook)

    # ------------------------------------------------------------------ setup
    def add_flow(self, spec: FlowSpec, tspec: TSpec,
                 delay_bound: Optional[float] = None,
                 rate: Optional[float] = None,
                 start_time: float = 0.0) -> GSFlowSetup:
        """Request admission of a GS flow.

        Exactly one of ``delay_bound`` (seconds) and ``rate`` (bytes per
        second) must be given.  With a delay bound, the manager plays the
        role of the Guaranteed Service receiver: it iterates between the
        exported error terms and Eq. (1) to find the service rate that
        achieves the bound, then requests that rate.
        """
        if (delay_bound is None) == (rate is None):
            raise ValueError("specify exactly one of delay_bound / rate")
        if not spec.is_gs:
            raise ValueError(f"flow {spec.flow_id} is not a GS flow")
        if spec.flow_id in self._setups:
            raise ValueError(f"GS flow {spec.flow_id} already added")

        policy = BestFitSegmentationPolicy(spec.allowed_types)
        eta_min = min_poll_efficiency(tspec.m, tspec.M, policy=policy)
        max_segment_slots = policy.max_segment_slots()

        if rate is not None:
            request = self._build_request(spec, tspec, max(rate, tspec.r),
                                          eta_min, max_segment_slots)
            result = self.admission.request_admission(request)
        else:
            request, result = self._negotiate_rate(
                spec, tspec, delay_bound, eta_min, max_segment_slots)

        setup = GSFlowSetup(spec=spec, tspec=tspec, request=request,
                            accepted=result.accepted, reason=result.reason,
                            requested_delay_bound=delay_bound)
        if result.accepted:
            self._setups[spec.flow_id] = setup
            self._streams = self.admission.streams
            self._rebuild_planners(start_time)
        return setup

    def _build_request(self, spec: FlowSpec, tspec: TSpec, rate: float,
                       eta_min: float, max_segment_slots: int) -> GSFlowRequest:
        return GSFlowRequest(
            flow_id=spec.flow_id, slave=spec.slave, direction=spec.direction,
            tspec=tspec, rate=rate, eta_min=eta_min,
            max_segment_slots=max_segment_slots,
            budget=self.budget_for(spec.slave, spec.direction))

    def _negotiate_rate(self, spec: FlowSpec, tspec: TSpec, target: float,
                        eta_min: float, max_segment_slots: int
                        ) -> Tuple[GSFlowRequest, AdmissionResult]:
        """Find the service rate achieving ``target`` given the exported terms."""
        rate = tspec.r
        request = self._build_request(spec, tspec, rate, eta_min, max_segment_slots)
        for _ in range(16):
            request = self._build_request(spec, tspec, rate, eta_min,
                                          max_segment_slots)
            result = self.admission.evaluate(request)
            if not result.accepted:
                return request, result
            stream = result.stream_for(spec.flow_id)
            terms = export_error_terms(eta_min, stream.wait_bound,
                                       budget=stream.combined_budget)
            needed = rate_for_delay_bound(tspec, target, terms.c_bytes,
                                          terms.d_seconds)
            if needed is None:
                return request, AdmissionResult(
                    False, reason=(
                        f"delay bound {target * 1000:.2f} ms is infeasible: the "
                        f"rate-independent deviation alone is "
                        f"{terms.d_seconds * 1000:.2f} ms"))
            needed = max(needed, tspec.r)
            if abs(needed - rate) <= 1e-9 * max(1.0, needed):
                rate = needed
                break
            rate = needed
        request = self._build_request(spec, tspec, rate, eta_min, max_segment_slots)
        return request, self.admission.request_admission(request)

    def _rebuild_planners(self, start_time: float) -> None:
        planners: Dict[int, BasePlanner] = {}
        for stream in self._streams:
            primary_id = stream.primary.flow_id
            # polls are planned at the *effective* interval: on a part-time
            # (bridged) link the admitted rate only holds if the polls come
            # proportionally faster while the peer is present; without a
            # budget this is exactly stream.interval
            interval = stream.effective_interval
            existing = self._planners.get(primary_id)
            if existing is not None and \
                    abs(existing.config.interval - interval) < 1e-12:
                planners[primary_id] = existing
                continue
            direction = "BOTH" if stream.secondary is not None \
                else stream.primary.direction
            config = PlannerConfig(flow_id=primary_id, interval=interval,
                                   rate=stream.rate, direction=direction)
            if self.variable_interval:
                planners[primary_id] = VariableIntervalPlanner(
                    config, start_time=start_time,
                    postpone_by_packet_size=self.postpone_by_packet_size,
                    postpone_after_unsuccessful=self.postpone_after_unsuccessful,
                    skip_when_no_downlink_data=self.skip_when_no_downlink_data)
            else:
                planners[primary_id] = FixedIntervalPlanner(
                    config, start_time=start_time)
        self._planners = planners
        self._refresh_earliest()

    def _refresh_earliest(self) -> None:
        self._earliest_planned = min(
            map(_next_planned, self._planners.values()), default=None)

    # -------------------------------------------------------------- inspection
    @property
    def streams(self) -> List[PollStream]:
        """Accepted poll streams, sorted by priority (1 = highest first)."""
        return list(self._streams)

    def setup(self, flow_id: int) -> GSFlowSetup:
        return self._setups[flow_id]

    def admitted_flow_ids(self) -> List[int]:
        return sorted(self._setups)

    def stream_for(self, flow_id: int) -> Optional[PollStream]:
        for stream in self._streams:
            if flow_id in stream.flow_ids:
                return stream
        return None

    def planner_for(self, primary_flow_id: int) -> BasePlanner:
        return self._planners[primary_flow_id]

    def error_terms_for(self, flow_id: int) -> ErrorTerms:
        """The C and D terms the poller exports for ``flow_id`` (Eq. 7)."""
        stream = self.stream_for(flow_id)
        if stream is None:
            raise KeyError(f"flow {flow_id} is not admitted")
        setup = self._setups.get(flow_id)
        eta_min = setup.eta_min if setup is not None else stream.primary.eta_min
        return export_error_terms(eta_min, stream.wait_bound,
                                  budget=stream.combined_budget)

    def delay_bound_for(self, flow_id: int) -> float:
        """The Eq. (1) delay bound for the flow at its admitted rate."""
        setup = self._setups[flow_id]
        terms = self.error_terms_for(flow_id)
        return delay_bound(setup.tspec, setup.rate, terms.c_bytes, terms.d_seconds)

    # ------------------------------------------------------- effective capacity
    @property
    def budget_aware(self) -> bool:
        """Whether admission consumes per-link effective-capacity budgets."""
        return bool(self._link_budgets)

    def budget_for(self, slave: int, direction: str) -> Optional[LinkBudget]:
        """The admitted budget of one link (``None``: oblivious)."""
        return self._link_budgets.get((slave, direction))

    def observe_link(self, slave: int, direction: str, error: bool) -> None:
        """Feed one observed data transmission outcome back per link.

        The piconet calls this for every data segment put on the air (see
        ``Piconet.add_link_observer``); the per-link EWMA estimators it
        feeds are what :meth:`flagged_flows` compares against the admitted
        budgets.
        """
        key = (slave, direction)
        estimator = self._estimators.get(key)
        if estimator is None:
            estimator = LinkQualityEstimator(
                alpha=self.estimator_alpha,
                initial_loss=self.estimator_initial_loss)
            self._estimators[key] = estimator
        estimator.observe(error)

    def measured_loss(self, slave: int, direction: str) -> Optional[float]:
        """Smoothed observed loss of one link (``None``: no observations)."""
        estimator = self._estimators.get((slave, direction))
        if estimator is None or estimator.observations == 0:
            return None
        return estimator.loss_estimate

    def flagged_flows(self, min_observations: int = 25,
                      tolerance: float = 0.05) -> List[int]:
        """Admitted flows whose measured loss exceeds their admitted budget.

        A flow is flagged once its link has at least ``min_observations``
        outcomes and the smoothed loss exceeds the budgeted
        ``loss_probability`` by more than ``tolerance`` — the signal that
        the admitted rate no longer covers the real retransmission cost
        and the flow should renegotiate (:meth:`renegotiate_flow`).
        """
        flagged: List[int] = []
        for flow_id in sorted(self._setups):
            setup = self._setups[flow_id]
            key = (setup.spec.slave, setup.spec.direction)
            estimator = self._estimators.get(key)
            if estimator is None or estimator.observations < min_observations:
                continue
            budgeted = setup.request.budget.loss_probability \
                if setup.request.budget is not None else 0.0
            if estimator.loss_estimate > budgeted + tolerance:
                flagged.append(flow_id)
        return flagged

    def renegotiate_flow(self, flow_id: int, now: float = 0.0) -> GSFlowSetup:
        """Re-admit a flow with its budget raised to the measured loss.

        The flow is torn down and re-run through admission carrying
        ``budget.with_estimated_loss(measured)`` — the negotiated rate then
        covers the retransmissions actually observed.  On rejection the
        flow *stays removed* (its reserved capacity was fiction) and the
        returned setup says why; the raised budget sticks for any later
        re-request of the link, and every registered eviction hook fires so
        the piconet fully detaches the evicted flow (state, queued
        segments, poller bookkeeping) instead of leaving it to soak up
        polls.
        """
        setup = self._setups.pop(flow_id, None)
        if setup is None:
            raise KeyError(f"flow {flow_id} is not admitted")
        self.admission.remove_flow(flow_id)
        self._streams = self.admission.streams
        key = (setup.spec.slave, setup.spec.direction)
        measured = self.measured_loss(*key)
        budget = setup.request.budget \
            if setup.request.budget is not None else LinkBudget()
        if measured is not None:
            budget = budget.with_estimated_loss(measured)
        self._link_budgets[key] = budget
        renewed = self.readmit(setup, now)
        if not renewed.accepted:
            self._rebuild_planners(now)
            for hook in self._on_eviction:
                hook(flow_id, renewed)
        return renewed

    def readmit(self, setup: GSFlowSetup, now: float) -> GSFlowSetup:
        """Re-submit a withdrawn ``setup`` to admission at ``now``: by the
        delay bound it requested, else by its admitted rate."""
        if setup.requested_delay_bound is not None:
            return self.add_flow(setup.spec, setup.tspec,
                                 delay_bound=setup.requested_delay_bound,
                                 start_time=now)
        return self.add_flow(setup.spec, setup.tspec,
                             rate=setup.request.rate, start_time=now)

    def withdraw_flow(self, flow_id: int, now: float = 0.0) -> GSFlowSetup:
        """Release an admitted flow's reservation (park / flow-remove).

        The returned setup keeps the admitted request, so the flow can be
        re-submitted later (:meth:`readmit`, e.g. at unpark time).  Unlike
        an eviction this is a clean, voluntary teardown: no hooks fire, the
        link budgets are untouched.
        """
        setup = self._setups.pop(flow_id, None)
        if setup is None:
            raise KeyError(f"flow {flow_id} is not admitted")
        self.admission.remove_flow(flow_id)
        self._streams = self.admission.streams
        self._rebuild_planners(now)
        return setup

    # ------------------------------------------------------------------ runtime
    def first_due(self, now: float,
                  downlink_has_data: Callable[[int], bool]
                  ) -> Optional[PollStream]:
        """The highest-priority stream whose planned poll has passed
        (``None`` if no stream is due).

        ``downlink_has_data(flow_id)`` supplies master-side queue knowledge
        for improvement 3 (skipping polls of pure downlink streams with an
        empty queue); uplink availability is never consulted — the master
        cannot know it.  Both planners are due only once
        ``next_planned <= now``, so before the earliest planned poll no
        stream is due and the walk is skipped.
        """
        earliest = self._earliest_planned
        if earliest is None or now < earliest:
            return None
        planners = self._planners
        for stream in self._streams:
            primary = stream.primary
            has_data: Optional[bool] = None
            if stream.secondary is None and primary.direction == DOWNLINK:
                has_data = downlink_has_data(primary.flow_id)
            if planners[primary.flow_id].is_due(now, has_data):
                return stream
        return None

    def record_poll(self, primary_flow_id: int, actual_time: float,
                    served: Optional[ServedSegment]) -> None:
        """Tell the stream's planner about an executed poll.

        The flow may have been withdrawn, evicted or parked *between* the
        poll being planned and its transaction committing (a timeline
        event landing mid-transaction); the planner is gone then and the
        outcome has nobody left to inform.
        """
        planner = self._planners.get(primary_flow_id)
        if planner is not None:
            planner.record_poll(actual_time, served)
            self._refresh_earliest()

    def next_planned_poll(self) -> Optional[float]:
        """Earliest planned poll time over all streams (``None`` if no flows)."""
        return self._earliest_planned
