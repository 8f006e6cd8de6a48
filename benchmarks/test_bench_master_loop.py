"""Master-loop throughput benchmark: simulated slots per wall-second.

The master TDD loop is the hot path of every experiment in the repo — each
simulated transaction walks the poller, both per-link channels, the flow
queues and the reassembler.  Every scenario here runs once and lands in
``BENCH_master_loop.json`` via :mod:`record` (variant ``event_loop``), so
the throughput trajectory survives across PRs; ``tools/bench_diff.py``
compares two such artifacts.

Scenarios:

* ``steady_state_poll`` — one slave, one sourceless BE downlink,
  round-robin poller, ideal channel: perpetual POLL/NULL rounds, which
  the master's wake-up runs without a single heap round trip.
* ``saturated_downlink`` — same piconet with a deep backlog of 16 kB
  higher-layer packets: every transaction moves a DH5 both ways, so the
  per-transaction work (queues, channel, reassembly) dominates.
* ``figure4_ideal`` / ``figure4_iid_lossy`` — the paper's Section-4.1
  workload under PFP, error-free and with per-link i.i.d. bit errors
  (real FEC decomposition plus ARQ retransmissions).
* ``figure4_gilbert_interference`` — the same workload on bursty
  Gilbert-Elliott links *plus* a co-channel interference field of three
  co-located piconets, the most event-dense radio model in the repo.
* ``churn_recovery_timeline`` — the dynamic-topology scenario: timeline
  events (interferer switches, mid-run renegotiation) land on the shared
  clock between master steps.
"""

import time
from dataclasses import replace

from conftest import bench_duration
from record import record

from repro.piconet.flows import BE, DOWNLINK
from repro.scenario import compile_scenario
from repro.scenario.factories import figure4_spec
from repro.scenario.specs import (
    ChannelSpec,
    FlowSpec,
    InterferenceSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
)

#: multi-slot types so the steady-state transaction is the realistic
#: worst case, not the minimal DH1 round
_STEADY_TYPES = ("DH1", "DH3", "DH5")

#: the one executor's label in the artifact
_VARIANT = "event_loop"


def _steady_state_spec() -> ScenarioSpec:
    """One slave, one sourceless BE downlink: perpetual POLL/NULL rounds."""
    piconet = PiconetSpec(
        name="steady", slaves=("S1",),
        flows=(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE,
                        allowed_types=_STEADY_TYPES),),
        allowed_types=_STEADY_TYPES,
        poller=PollerSpec(kind="round_robin"))
    return ScenarioSpec(piconets=(piconet,))


def _gilbert_interference_spec() -> ScenarioSpec:
    """Figure-4 workload on bursty links inside an interference field."""
    spec = figure4_spec(delay_requirement=0.040,
                        channel=ChannelSpec(model="gilbert", ber=3e-4))
    return replace(spec, interference=InterferenceSpec(
        victim=spec.piconets[0].name,
        interferer_duties=(0.6, 0.5, 0.4)))


def _measure(spec: ScenarioSpec, duration_seconds: float, prepare=None):
    compiled = compile_scenario(spec, seed=1)
    if prepare is not None:
        prepare(compiled)
    started = time.perf_counter()
    compiled.run(duration_seconds)
    wall = time.perf_counter() - started
    slots = compiled.primary.piconet.slot_accounting()["accounted"]
    return compiled, slots, wall


def _bench(benchmark, scenario: str, spec: ScenarioSpec,
           duration_seconds: float, prepare=None):
    """Run ``spec`` once, record it in the BENCH artifact and check its
    slot floor; the compiled scenario."""
    compiled, slots, wall = benchmark.pedantic(
        _measure, args=(spec, duration_seconds, prepare),
        rounds=1, iterations=1, warmup_rounds=0)
    record("master_loop", scenario, _VARIANT, slots, wall)
    rate = slots / wall if wall > 0 else float("inf")
    benchmark.extra_info["slots_per_second"] = round(rate)
    print(f"\n{scenario}: {slots} simulated slots in {wall:.3f}s wall "
          f"({rate:,.0f} slots/s)")
    assert slots >= duration_seconds * 1600 * 0.95
    return compiled


def test_bench_steady_state_poll(benchmark):
    _bench(benchmark, "steady_state_poll", _steady_state_spec(),
           bench_duration(60.0))


def test_bench_saturated_downlink(benchmark):
    duration = bench_duration(60.0)

    def preload(compiled):
        # ~160 sim-seconds of DH5 backlog: saturated for the whole run
        for _ in range(900):
            compiled.primary.piconet.offer_packet(1, 16000)

    compiled = _bench(benchmark, "saturated_downlink", _steady_state_spec(),
                      duration, preload)
    delivered = sum(state.delivered_packets
                    for state in compiled.primary.piconet.flow_states())
    assert delivered > 0


def test_bench_figure4_ideal(benchmark):
    compiled = _bench(benchmark, "figure4_ideal",
                      figure4_spec(delay_requirement=0.040),
                      bench_duration(10.0))
    assert compiled.primary.all_gs_admitted


def test_bench_figure4_iid_lossy(benchmark):
    spec = figure4_spec(delay_requirement=0.040,
                        channel=ChannelSpec(model="iid", ber=3e-4))
    compiled = _bench(benchmark, "figure4_iid_lossy", spec,
                      bench_duration(10.0))
    retx = sum(state.retransmissions
               for state in compiled.primary.piconet.flow_states())
    assert retx > 0


def test_bench_figure4_gilbert_interference(benchmark):
    compiled = _bench(benchmark, "figure4_gilbert_interference",
                      _gilbert_interference_spec(), bench_duration(10.0))
    assert compiled.collision_probability() > 0
    retx = sum(state.retransmissions
               for state in compiled.primary.piconet.flow_states())
    assert retx > 0


def test_bench_churn_recovery_timeline(benchmark):
    from repro.scenario import churn_recovery_spec

    compiled = _bench(benchmark, "churn_recovery_timeline",
                      churn_recovery_spec(), bench_duration(10.0))
    assert len(compiled.timeline_log) == 9
