"""Intra-piconet schedulers (pollers).

``base`` defines the poller interface shared by the paper's own pollers
(:mod:`repro.core`) and the baseline pollers from the literature surveyed in
Section 3 of the paper.  The baselines implemented here are:

* :class:`~repro.schedulers.round_robin.PureRoundRobinPoller`
* :class:`~repro.schedulers.exhaustive.ExhaustivePoller` and
  :class:`~repro.schedulers.exhaustive.LimitedRoundRobinPoller`
* :class:`~repro.schedulers.fep.FairExhaustivePoller` (FEP, Johansson et al.)
* :class:`~repro.schedulers.edc.EfficientDoubleCyclePoller` (EDC, Bruno et al.)
* :class:`~repro.schedulers.hol_priority.HolPriorityPoller` (Kalia et al.)
* :class:`~repro.schedulers.demand_based.DemandBasedPoller` (Rao et al.)

None of these provides delay guarantees — which is exactly the paper's
motivation; the ablation benchmark quantifies this.
"""

from repro.schedulers.base import (
    Poller,
    PollOutcome,
    TransactionPlan,
)
from repro.schedulers.round_robin import PureRoundRobinPoller
from repro.schedulers.exhaustive import ExhaustivePoller, LimitedRoundRobinPoller
from repro.schedulers.fep import FairExhaustivePoller
from repro.schedulers.edc import EfficientDoubleCyclePoller
from repro.schedulers.hol_priority import HolPriorityPoller
from repro.schedulers.demand_based import DemandBasedPoller

__all__ = [
    "DemandBasedPoller",
    "EfficientDoubleCyclePoller",
    "ExhaustivePoller",
    "FairExhaustivePoller",
    "HolPriorityPoller",
    "LimitedRoundRobinPoller",
    "Poller",
    "PollOutcome",
    "PureRoundRobinPoller",
    "TransactionPlan",
]
