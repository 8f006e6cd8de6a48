"""Poll efficiency (Eq. 4 of the paper).

The *poll efficiency* of a higher-layer packet is the average number of
bytes transferred per poll when that packet is segmented under the flow's
segmentation policy: ``eta = L / n_segments``.  The *minimum poll
efficiency* of a flow is the minimum over all packet sizes the flow may use
(``m <= L <= M``); the fixed-interval poller derives its poll interval from
it (``t_i = eta_min_i / R_i``, Eq. 5).

With the paper's Section-4 configuration (DH1+DH3 allowed, best-fit
segmentation, packets of 144..176 bytes) every packet fits in a single DH3
baseband packet, so the minimum efficiency is attained by the smallest
packet: ``eta_min = 144`` bytes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.baseband.segmentation import (
    BestFitSegmentationPolicy,
    SegmentationPolicy,
)


def _policy(allowed_types: Iterable,
            policy: Optional[SegmentationPolicy]) -> SegmentationPolicy:
    if policy is not None:
        return policy
    return BestFitSegmentationPolicy(allowed_types)


def _candidate_sizes(m: int, M: int, policy: SegmentationPolicy) -> Set[int]:
    """Packet sizes at which the minimum efficiency can be attained.

    Within a run of sizes using the same number of segments the efficiency
    ``L / n`` is increasing in ``L``, so the minimum over ``[m, M]`` is
    attained either at ``m`` or just after a breakpoint where the segment
    count increases.  For greedy policies over several packet types the
    segment plan can mix types, so breakpoints sit at *sums of any
    combination* of the allowed capacities (e.g. DH3+DH1 = 210 bytes), not
    only at multiples of a single capacity — a dynamic program over the
    reachable sums enumerates them all; every reachable sum and the byte
    right after it (plus ``m`` and ``M``) is a safe candidate superset.
    """
    candidates = {m, M}
    capacities = sorted({t.max_payload for t in policy.by_capacity})
    # reachable[s] == True iff s bytes is a non-negative integer combination
    # of the allowed capacities (i.e. exactly fills some multiset of packets)
    reachable = [False] * (M + 1)
    reachable[0] = True
    for cap in capacities:
        for total in range(cap, M + 1):
            if reachable[total - cap]:
                reachable[total] = True
    for total in range(1, M + 1):
        if not reachable[total]:
            continue
        if m <= total:
            # the exact sum (locally best but cheap to include)
            candidates.add(total)
        if m <= total + 1 <= M:
            # one byte past a breakpoint: the segment count may step up
            candidates.add(total + 1)
    return candidates


def min_poll_efficiency(m: int, M: int, allowed_types: Iterable = ("DH1", "DH3"),
                        policy: Optional[SegmentationPolicy] = None,
                        exhaustive: bool = False) -> float:
    """Minimum poll efficiency over packet sizes in ``[m, M]`` (Eq. 4).

    Parameters
    ----------
    m, M:
        Minimum policed unit and maximum transfer unit of the flow (bytes).
    exhaustive:
        Evaluate every integer size in ``[m, M]`` instead of the analytical
        candidate set (used by the property tests to validate the candidate
        enumeration).
    """
    if not 0 < m <= M:
        raise ValueError("need 0 < m <= M")
    pol = _policy(allowed_types, policy)
    if exhaustive:
        sizes = range(m, M + 1)
    else:
        sizes = sorted(_candidate_sizes(m, M, pol))
    return min(size / pol.segment_count(size) for size in sizes)
