"""Extension E1: behaviour over a non-ideal radio channel (paper future work).

The paper restricts its evaluation to an ideal channel and names the
non-ideal case as future work, arguing that the slots the variable-interval
poller saves can then be used for retransmissions.  This driver runs the
Figure-4 scenario over the per-link channel subsystem — every
``(slave, direction)`` link gets its own independently seeded channel — at
several bit error rates and reports the GS delay statistics, the failure
decomposition (segments missed outright vs. payload CRC failures) and
throughput, so the graceful degradation (and the headroom left for ARQ) can
be inspected.

``channel_model`` selects independent errors (``"iid"``) or per-link bursty
fades (``"gilbert"``, a Gilbert-Elliott state per link whose bad-state BER
is scaled so the long-run mean matches the swept ``bit_error_rate``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.baseband.channel import ChannelMap
from repro.experiments.registry import ExperimentSpec, register
from repro.scenario import (
    ChannelSpec,
    ScenarioSpec,
    compile_channel,
    figure4_spec,
    forbid_overrides,
    gs_bound_met,
    resolve_point_spec,
)

#: the default bit-error-rate sweep (1e-3 corrupts most DH3 packets)
DEFAULT_BIT_ERROR_RATES = [0.0, 1e-4, 3e-4, 1e-3]

#: Gilbert-Elliott shape used when ``channel_model="gilbert"``: the bad
#: state holds ~10% of the time with a mean dwell of 1/p_bg = 50 slots.
GILBERT_P_BG = 0.02
GILBERT_STATIONARY_BAD = 0.1


def channel_spec(bit_error_rate: float,
                 channel_model: str = "iid") -> ChannelSpec:
    """The declarative per-link channel of one sweep point."""
    if channel_model not in ("iid", "gilbert"):
        raise ValueError(
            f"unknown channel_model {channel_model!r}; known: iid, gilbert")
    return ChannelSpec(model=channel_model, ber=bit_error_rate,
                       p_bg=GILBERT_P_BG,
                       stationary_bad=GILBERT_STATIONARY_BAD)


def make_channel_map(bit_error_rate: float, seed: int,
                     channel_model: str = "iid") -> Optional[ChannelMap]:
    """Per-link channels for one run (``None`` for an error-free sweep point).

    Links are seeded from a dedicated substream family of the run's master
    seed, so the error processes are independent per link yet reproducible
    across execution backends and unperturbed by the traffic sources'
    randomness.  (Compatibility wrapper over
    :func:`repro.scenario.compile_channel`.)
    """
    return compile_channel(channel_spec(bit_error_rate, channel_model), seed)


def scenario_spec(params: Dict) -> ScenarioSpec:
    """The lossy Figure-4 scenario of one sweep point."""
    forbid_overrides(params, {
        "channel.ber": "bit_error_rate axis",
        "channel.model": "channel_model parameter"})
    return figure4_spec(
        delay_requirement=params.get("delay_requirement", 0.040),
        channel=channel_spec(params["bit_error_rate"],
                             params.get("channel_model", "iid")))


def run_point(params: Dict, seed: int) -> List[Dict]:
    """One bit error rate of the lossy-channel extension."""
    ber = params["bit_error_rate"]
    scenario = resolve_point_spec(params, scenario_spec).compile(seed).primary
    if not scenario.all_gs_admitted:
        return []
    scenario.run(params.get("duration_seconds", 5.0))
    piconet = scenario.piconet
    delays = scenario.gs_delay_summary()
    gs_states = [piconet.flow_state(fid) for fid in scenario.gs_flow_ids]
    gs_throughput = sum(state.delivered_bytes * 8 for state in gs_states) \
        / piconet.elapsed_seconds
    return [{
        "bit_error_rate": ber,
        "gs_throughput_kbps": gs_throughput / 1000.0,
        "gs_mean_delay_ms": (sum(d["mean_delay_s"] for d in delays.values())
                             / len(delays)) * 1000.0,
        "gs_max_delay_ms": max(d["max_delay_s"]
                               for d in delays.values()) * 1000.0,
        **{f"gs_{name}": count for name, count
           in scenario.arq_counters(scenario.gs_flow_ids).items()},
        "bound_met": all(gs_bound_met(d) for d in delays.values()),
        "idle_slots": piconet.slots_idle,
    }]


def run_lossy_channel(bit_error_rates: Optional[Sequence[float]] = None,
                      delay_requirement: float = 0.040,
                      duration_seconds: float = 5.0,
                      channel_model: str = "iid",
                      seed: int = 1) -> List[Dict]:
    """One row per bit error rate; wrapper over run_point."""
    if bit_error_rates is None:
        bit_error_rates = DEFAULT_BIT_ERROR_RATES
    rows: List[Dict] = []
    for ber in bit_error_rates:
        rows.extend(run_point({"bit_error_rate": ber,
                               "delay_requirement": delay_requirement,
                               "duration_seconds": duration_seconds,
                               "channel_model": channel_model}, seed))
    return rows


def format_lossy_channel(rows: Optional[List[Dict]] = None, **kwargs) -> str:
    rows = rows if rows is not None else run_lossy_channel(**kwargs)
    table_rows = [[f"{r['bit_error_rate']:.0e}", r["gs_throughput_kbps"],
                   r["gs_mean_delay_ms"], r["gs_max_delay_ms"],
                   r["gs_retransmissions"], r["gs_segments_not_received"],
                   r["gs_crc_failures"], r["bound_met"]] for r in rows]
    table = format_table(
        ["BER", "GS kbit/s", "GS mean delay [ms]", "GS max delay [ms]",
         "GS retx", "missed", "CRC fail", "ideal-channel bound met"],
        table_rows, float_format=".2f")
    header = ("Extension E1 — Figure-4 scenario over per-link lossy channels "
              "with ARQ (paper future\nwork; the delay guarantee is only "
              "claimed for the ideal channel)")
    return header + "\n\n" + table


register(ExperimentSpec(
    name="lossy_channel",
    description="Figure-4 scenario over per-link lossy channels with ARQ "
                "(Ext. E1)",
    run_point=run_point,
    grid={"bit_error_rate": DEFAULT_BIT_ERROR_RATES},
    defaults={"delay_requirement": 0.040, "duration_seconds": 5.0,
              "channel_model": "iid"},
    version=2,
    scenario=scenario_spec,
))
