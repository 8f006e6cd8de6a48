"""Exported C and D error terms (Eq. 6/7 of the paper).

A Guaranteed Service network element advertises how far it deviates from the
ideal fluid server of rate ``R``: a rate-dependent part ``C`` (bytes — the
deviation it causes is ``C / R`` seconds) and a rate-independent part ``D``
(seconds).  For the paper's poller the deviation of flow *i* obeys::

    delta_i <= eta_min_i / R_i + u_i                       (Eq. 7)

so the exported terms are ``C_i = eta_min_i`` (bytes) and ``D_i = u_i``
(seconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.link_budget import LinkBudget


@dataclass(frozen=True)
class ErrorTerms:
    """One network element's error terms."""

    #: rate-dependent deviation, bytes
    c_bytes: float
    #: rate-independent deviation, seconds
    d_seconds: float

    def __post_init__(self) -> None:
        if self.c_bytes < 0:
            raise ValueError("C term cannot be negative")
        if self.d_seconds < 0:
            raise ValueError("D term cannot be negative")


def export_error_terms(eta_min: float, wait_bound: float,
                       budget: Optional[LinkBudget] = None) -> ErrorTerms:
    """The terms the Bluetooth poller exports for one flow (Eq. 7).

    Parameters
    ----------
    eta_min:
        Minimum poll efficiency of the flow, bytes (becomes ``C``).
    wait_bound:
        ``u_i`` of the flow in seconds (becomes ``D``).
    budget:
        Optional effective-capacity knowledge about the flow's link.  A
        lossy link delivers only one poll in ``1 - loss`` attempts, so the
        rate-dependent term inflates to ``eta_min`` *expected
        transmissions per success* — the service rate negotiated against
        these terms then covers the retransmissions; a bridge's absence
        window joins the rate-independent term, because a planned poll may
        additionally wait for the peer to return.  ``None`` (the default,
        and the paper's ideal channel) exports Eq. 7 unchanged.
    """
    if budget is None:
        return ErrorTerms(c_bytes=float(eta_min), d_seconds=float(wait_bound))
    return ErrorTerms(
        c_bytes=float(eta_min) * budget.retransmission_factor(),
        d_seconds=float(wait_bound) + budget.absence_seconds)
