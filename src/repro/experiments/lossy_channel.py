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

from typing import Dict, List

from repro.experiments.registry import ExperimentSpec, register
from repro.scenario import (
    ChannelSpec,
    ScenarioSpec,
    figure4_spec,
    forbid_overrides,
    gs_bound_met,
    gs_max_delay,
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
        "gs_max_delay_ms": gs_max_delay(delays.values()) * 1000.0,
        **{f"gs_{name}": count for name, count
           in scenario.arq_counters(scenario.gs_flow_ids).items()},
        "bound_met": all(gs_bound_met(d) for d in delays.values()),
        "idle_slots": piconet.slots_idle,
    }]


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
