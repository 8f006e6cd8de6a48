"""Table 1: the derived Guaranteed Service parameters of Section 4.1.

The paper reports (in prose) the token bucket of the GS flows, the minimum
poll efficiency, the exported C and D error terms, the ``u_i`` values
produced by the Fig. 2 algorithm, the largest admissible service rate, the
smallest supportable delay bound and the delay bound at ``R = r``.  This
driver computes all of them analytically — no simulation involved.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.reporting import format_table
from repro.core.admission import max_admissible_rate
from repro.core.gs_math import bound_at_token_rate, delay_bound
from repro.core.gs_manager import GuaranteedServiceManager
from repro.core.poll_efficiency import min_poll_efficiency
from repro.scenario.factories import (
    ALLOWED_TYPES,
    MAX_TRANSACTION_SECONDS,
    figure4_gs_tspec,
    figure4_spec,
)


def compute_table1_parameters() -> Dict:
    """Compute every analytical quantity reported in Section 4.1.

    Returns a dictionary with a ``scenario`` block (quantities common to all
    GS flows) and a ``flows`` list (per-flow priorities, wait bounds, error
    terms, admissible rates and supportable delay bounds).
    """
    tspec = figure4_gs_tspec()
    eta_min = min_poll_efficiency(tspec.m, tspec.M, ALLOWED_TYPES)

    # Admit the four GS flows at their token rate; the priorities and wait
    # bounds do not depend on the delay requirement for this workload.
    scenario = figure4_spec(delay_requirement=None,
                            gs_rate=tspec.r).compile(1).primary
    manager: GuaranteedServiceManager = scenario.manager

    flows: List[Dict] = []
    for flow_id in scenario.gs_flow_ids:
        setup = scenario.gs_setups[flow_id]
        stream = manager.stream_for(flow_id)
        terms = manager.error_terms_for(flow_id)
        u = stream.wait_bound
        r_max = max_admissible_rate(eta_min, u)
        min_bound = delay_bound(tspec, r_max, terms.c_bytes, terms.d_seconds)
        max_bound = bound_at_token_rate(tspec, terms.c_bytes, terms.d_seconds)
        flows.append({
            "flow_id": flow_id,
            "slave": setup.spec.slave,
            "direction": setup.spec.direction,
            "priority": stream.priority,
            "piggybacked_with": [fid for fid in stream.flow_ids if fid != flow_id],
            "interval_ms": setup.interval * 1000.0,
            "u_ms": u * 1000.0,
            "C_bytes": terms.c_bytes,
            "D_ms": terms.d_seconds * 1000.0,
            "max_rate_kBps": r_max / 1000.0,
            "min_delay_bound_ms": min_bound * 1000.0,
            "delay_bound_at_token_rate_ms": max_bound * 1000.0,
        })

    feasible_common_min = max(f["min_delay_bound_ms"] for f in flows)
    feasible_common_max = max(f["delay_bound_at_token_rate_ms"] for f in flows)
    return {
        "scenario": {
            "token_rate_kBps": tspec.r / 1000.0,
            "peak_rate_kBps": tspec.p / 1000.0,
            "bucket_bytes": tspec.b,
            "min_policed_unit_bytes": tspec.m,
            "mtu_bytes": tspec.M,
            "eta_min_bytes": eta_min,
            "max_transaction_ms": MAX_TRANSACTION_SECONDS * 1000.0,
            "common_feasible_bound_min_ms": feasible_common_min,
            "common_feasible_bound_max_ms": feasible_common_max,
        },
        "flows": flows,
    }


def format_table1(result: Dict = None) -> str:
    """Render Table 1 as text."""
    result = result if result is not None else compute_table1_parameters()
    scenario = result["scenario"]
    header_lines = [
        "Table 1 — derived Guaranteed Service parameters (paper Section 4.1)",
        f"token bucket: p=r={scenario['token_rate_kBps']:.2f} kB/s, "
        f"b=M={scenario['mtu_bytes']:.0f} B, m={scenario['min_policed_unit_bytes']} B",
        f"minimum poll efficiency eta_min = {scenario['eta_min_bytes']:.0f} bytes "
        f"(paper: 144 bytes)",
        f"longest transaction M_t = {scenario['max_transaction_ms']:.2f} ms "
        f"(paper: DH3 both ways)",
        f"common feasible requested delay bound: "
        f"[{scenario['common_feasible_bound_min_ms']:.1f}, "
        f"{scenario['common_feasible_bound_max_ms']:.1f}] ms "
        f"(paper sweeps 28..46 ms)",
    ]
    rows = [[f["flow_id"], f["slave"], f["direction"], f["priority"],
             ",".join(str(x) for x in f["piggybacked_with"]) or "-",
             f["u_ms"], f["C_bytes"], f["D_ms"], f["max_rate_kBps"],
             f["min_delay_bound_ms"], f["delay_bound_at_token_rate_ms"]]
            for f in result["flows"]]
    table = format_table(
        ["flow", "slave", "dir", "prio", "pair", "u [ms]", "C [B]", "D [ms]",
         "Rmax [kB/s]", "Dmin [ms]", "D(R=r) [ms]"], rows)
    return "\n".join(header_lines) + "\n\n" + table
