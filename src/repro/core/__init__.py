"""The paper's contribution: Guaranteed Service polling for Bluetooth.

Modules
-------
token_bucket
    Token-bucket traffic specifications (TSpec) and conformance checking.
gs_math
    RFC 2212 Guaranteed Service delay-bound mathematics (Eq. 1 of the paper).
poll_efficiency
    Poll efficiency and minimum poll efficiency (Eq. 4).
wait_bound
    The Fig. 2 algorithm computing ``u_i`` — the maximum delay of a planned
    poll caused by ongoing transmissions and higher-priority polls.
error_terms
    The exported C and D error terms (Eq. 6/7).
link_budget
    Effective per-link capacity: channel loss, interference, and bridge
    residency composed into a ``LinkBudget`` the admission pipeline can
    consume (expected retransmissions, deflated usable rate, absence
    windows).
admission
    The Fig. 3 admission-control routine with piggybacking-aware priority
    reassignment, and the poll-stream abstraction.
planning
    The fixed-interval (Sec. 3.1) and variable-interval (Sec. 3.2) poll
    planners as simulator-independent state machines.
gs_manager
    Ties everything together for one piconet: TSpec -> rate -> interval ->
    wait bound -> admission -> planned polls.
pfp
    The Predictive Fair Poller: GS polls by the planners above, residual
    capacity divided fairly over best-effort slaves using per-slave
    availability prediction.
"""

from repro.core.token_bucket import TSpec, TokenBucket, cbr_tspec
from repro.core.gs_math import (
    delay_bound,
    rate_for_delay_bound,
)
from repro.core.poll_efficiency import (
    min_poll_efficiency,
)
from repro.core.wait_bound import WaitBoundResult, compute_wait_bound
from repro.core.error_terms import ErrorTerms, export_error_terms
from repro.core.link_budget import (
    IDEAL_LINK_BUDGET,
    MAX_LOSS,
    LinkBudget,
    bridge_residency,
    worst_case_budget,
    worst_data_loss,
)
from repro.core.admission import (
    AdmissionController,
    AdmissionResult,
    GSFlowRequest,
    PollStream,
)
from repro.core.planning import (
    FixedIntervalPlanner,
    PlannerConfig,
    ServedSegment,
    VariableIntervalPlanner,
)
from repro.core.gs_manager import GSFlowSetup, GuaranteedServiceManager
from repro.core.pfp import PredictiveFairPoller

__all__ = [
    "AdmissionController",
    "AdmissionResult",
    "ErrorTerms",
    "FixedIntervalPlanner",
    "GSFlowRequest",
    "GSFlowSetup",
    "GuaranteedServiceManager",
    "IDEAL_LINK_BUDGET",
    "LinkBudget",
    "MAX_LOSS",
    "PlannerConfig",
    "PollStream",
    "PredictiveFairPoller",
    "ServedSegment",
    "TSpec",
    "TokenBucket",
    "VariableIntervalPlanner",
    "WaitBoundResult",
    "bridge_residency",
    "cbr_tspec",
    "compute_wait_bound",
    "delay_bound",
    "export_error_terms",
    "min_poll_efficiency",
    "rate_for_delay_bound",
    "worst_case_budget",
    "worst_data_loss",
]
