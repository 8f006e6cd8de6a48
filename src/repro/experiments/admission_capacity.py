"""Table 4: admission capacity with and without piggybacking.

Section 3.1.4 / 4: "taking piggybacking of GS flows into account makes it
possible to accept more GS flows".  This driver adds bidirectional 64 kbit/s
GS flow pairs (one pair per slave) one flow at a time and counts how many
flows the admission control accepts, with the piggybacking-aware routine and
with the naive (one stream per flow) routine, across a range of requested
rates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.experiments.registry import ExperimentSpec, register
from repro.core.admission import AdmissionController, GSFlowRequest
from repro.core.poll_efficiency import min_poll_efficiency
from repro.piconet.flows import DOWNLINK, UPLINK
from repro.scenario.factories import (
    ALLOWED_TYPES,
    MAX_TRANSACTION_SECONDS,
    figure4_gs_tspec,
)


def _build_requests(rate: float, pairs: int) -> List[GSFlowRequest]:
    """Bidirectional GS pairs on successive slaves (flow ids 1, 2, 3, ...)."""
    tspec = figure4_gs_tspec()
    eta_min = min_poll_efficiency(tspec.m, tspec.M, ALLOWED_TYPES)
    requests = []
    flow_id = 1
    for pair_index in range(pairs):
        slave = (pair_index % 7) + 1
        for direction in (UPLINK, DOWNLINK):
            requests.append(GSFlowRequest(
                flow_id=flow_id, slave=slave, direction=direction,
                tspec=tspec, rate=max(rate, tspec.r), eta_min=eta_min,
                max_segment_slots=3))
            flow_id += 1
    return requests


def _admit_count(requests: Sequence[GSFlowRequest], piggyback_aware: bool) -> int:
    controller = AdmissionController(
        max_transaction_seconds=MAX_TRANSACTION_SECONDS,
        piggyback_aware=piggyback_aware)
    accepted = 0
    for request in requests:
        if controller.request_admission(request).accepted:
            accepted += 1
    return accepted


#: the default requested-rate sweep (bytes per second)
DEFAULT_RATES = [8_800.0, 12_000.0, 16_000.0, 20_000.0, 28_000.0, 38_000.0]


def run_point(params: Dict, seed: int) -> List[Dict]:
    """One requested rate: flows accepted with / without piggybacking.

    Purely analytic — the admission control is deterministic, so ``seed``
    is ignored.
    """
    rate = params["rate_bytes_per_second"]
    requests = _build_requests(rate, params.get("pairs", 7))
    return [{
        "rate_kBps": rate / 1000.0,
        "offered_flows": len(requests),
        "accepted_with_piggyback": _admit_count(requests, True),
        "accepted_without_piggyback": _admit_count(requests, False),
    }]


def run_admission_capacity(rates_bytes_per_second: Optional[Sequence[float]] = None,
                           pairs: int = 7) -> List[Dict]:
    """One row per requested rate; wrapper over run_point."""
    if rates_bytes_per_second is None:
        rates_bytes_per_second = DEFAULT_RATES
    rows: List[Dict] = []
    for rate in rates_bytes_per_second:
        rows.extend(run_point({"rate_bytes_per_second": rate,
                               "pairs": pairs}, seed=0))
    return rows


def format_admission_capacity(rows: Optional[List[Dict]] = None, **kwargs) -> str:
    rows = rows if rows is not None else run_admission_capacity(**kwargs)
    table_rows = [[r["rate_kBps"], r["offered_flows"],
                   r["accepted_with_piggyback"],
                   r["accepted_without_piggyback"],
                   r["accepted_with_piggyback"] - r["accepted_without_piggyback"]]
                  for r in rows]
    table = format_table(
        ["rate [kB/s]", "offered flows", "accepted (piggyback)",
         "accepted (naive)", "gain"],
        table_rows, float_format=".1f")
    header = ("Table 4 — GS flows accepted with and without piggybacking-aware "
              "admission control\n(paper: piggybacking makes it possible to "
              "accept more GS flows)")
    return header + "\n\n" + table


register(ExperimentSpec(
    name="admission_capacity",
    description="Flows accepted with/without piggybacking (Table 4)",
    run_point=run_point,
    grid={"rate_bytes_per_second": DEFAULT_RATES},
    defaults={"pairs": 7},
    stochastic=False,
))
