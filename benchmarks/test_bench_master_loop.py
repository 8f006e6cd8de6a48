"""Master-loop throughput benchmark: simulated slots per wall-second.

The master TDD loop is the hot path of every experiment in the repo — each
simulated transaction walks the poller, both per-link channels, the flow
queues and the reassembler.  Every scenario here runs twice, once on the
per-slot reference event loop (``fast_path=False``) and once through the
slot-batch kernel (:mod:`repro.piconet.batch_kernel`), and the pair lands
in ``BENCH_master_loop.json`` via :mod:`record` so the speedup trajectory
survives across PRs.  Because both paths are byte-identical by
construction, each test also cross-checks the two runs' slot accounting.

Scenarios:

* ``steady_state_poll`` — the headline: one slave, one sourceless BE
  downlink, round-robin poller, ideal channel.  Nothing ever enters the
  event queue between start and stop, so the whole run is one kernel
  window of POLL/NULL rounds — the case the fast path exists for.  Its
  speedup gate compares median wall times over several rounds per
  variant, alternating which variant runs first.
* ``saturated_downlink`` — same piconet with a deep backlog of 16 kB
  higher-layer packets: every transaction moves a DH5 both ways, so the
  shared per-transaction work (queues, channel, reassembly) dominates.
* ``figure4_ideal`` / ``figure4_iid_lossy`` — the paper's Section-4.1
  workload under PFP, error-free and with per-link i.i.d. bit errors
  (real FEC decomposition plus ARQ retransmissions).
* ``figure4_gilbert_interference`` — the same workload on bursty
  Gilbert-Elliott links *plus* a co-channel interference field of three
  co-located piconets, the most event-dense radio model in the repo.
* ``churn_recovery_timeline`` — the dynamic-topology scenario: timeline
  events (interferer switches, mid-run renegotiation) land on the shared
  clock while the kernel batches around them; the recorded
  ``fast_path_stats`` carry the ``topology`` bailout counter.
"""

import statistics
import time
from dataclasses import replace

from conftest import bench_duration
from record import FAST_VARIANT, REFERENCE_VARIANT, record

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

#: multi-slot types so the steady-state transaction bound is the realistic
#: worst case, not the minimal DH1 round
_STEADY_TYPES = ("DH1", "DH3", "DH5")

#: timed rounds per variant behind the steady-state speedup gate
_GATE_ROUNDS = 5


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


def _with_fast_path(spec: ScenarioSpec, fast: bool) -> ScenarioSpec:
    return replace(spec, piconets=tuple(
        replace(piconet, fast_path=fast) for piconet in spec.piconets))


def _measure(spec: ScenarioSpec, fast: bool, duration_seconds: float,
             prepare=None):
    compiled = compile_scenario(_with_fast_path(spec, fast), seed=1)
    if prepare is not None:
        prepare(compiled)
    started = time.perf_counter()
    compiled.run(duration_seconds)
    wall = time.perf_counter() - started
    slots = compiled.primary.piconet.slot_accounting()["accounted"]
    return compiled, slots, wall


def _bench_rounds(spec: ScenarioSpec, duration_seconds: float, rounds: int,
                  prepare=None):
    """Run both paths ``rounds`` times, alternating which one goes first
    (reference in the first round) so a drift in host speed or the
    warmed caches (FEC tables) hit both alike; each variant's runs."""
    runs = {REFERENCE_VARIANT: [], FAST_VARIANT: []}
    variants = ((REFERENCE_VARIANT, False), (FAST_VARIANT, True))
    for index in range(rounds):
        for variant, fast in variants[::-1] if index % 2 else variants:
            runs[variant].append(
                _measure(spec, fast, duration_seconds, prepare))
    return runs


def _median_rounds(runs):
    """Per variant: the last run, with the median wall time of all."""
    results = {}
    for variant, measured in runs.items():
        compiled, slots, _ = measured[-1]
        results[variant] = (compiled, slots, statistics.median(
            wall for _, _, wall in measured))
    return results


def _bench_both_paths(spec: ScenarioSpec, duration_seconds: float,
                      prepare=None):
    """One round of :func:`_bench_rounds`, reference first."""
    return _median_rounds(_bench_rounds(spec, duration_seconds, 1, prepare))


def _report(benchmark, scenario: str, results) -> float:
    """Record both variants in the BENCH artifact; returns the speedup.

    The fast variant's entry carries the kernel's bailout counters
    (``fast_path_stats``), so a scenario whose speedup is poor — e.g. the
    event-dense figure-4 radio models — is explainable from the artifact
    alone: the counters say how often (and why) the kernel fell back to
    the per-slot event loop.
    """
    rates = {}
    for variant, (compiled, slots, wall) in results.items():
        extra = None
        if variant == FAST_VARIANT:
            extra = {"fast_path_stats":
                     compiled.primary.piconet.fast_path_stats()}
        payload = record("master_loop", scenario, variant, slots, wall,
                         extra=extra)
        rates[variant] = slots / wall if wall > 0 else float("inf")
        benchmark.extra_info[f"{variant}_slots_per_second"] = round(
            rates[variant])
    speedup = payload["scenarios"][scenario]["speedup"]
    benchmark.extra_info["speedup"] = speedup
    for variant, rate in rates.items():
        _, slots, wall = results[variant]
        print(f"\n{scenario} [{variant}]: {slots} simulated slots in "
              f"{wall:.3f}s wall ({rate:,.0f} slots/s)")
    print(f"{scenario}: batch kernel speedup {speedup}x")
    return speedup


def _assert_paths_agree(results) -> None:
    """Both paths must be byte-identical — compare the slot ledgers."""
    reference, _, _ = results[REFERENCE_VARIANT]
    fast, _, _ = results[FAST_VARIANT]
    assert (fast.primary.piconet.slot_accounting()
            == reference.primary.piconet.slot_accounting())


def test_bench_steady_state_poll(benchmark):
    duration = bench_duration(60.0)
    runs = benchmark.pedantic(
        _bench_rounds, args=(_steady_state_spec(), duration, _GATE_ROUNDS),
        rounds=1, iterations=1, warmup_rounds=0)
    for index, (reference, fast) in enumerate(
            zip(runs[REFERENCE_VARIANT], runs[FAST_VARIANT]), 1):
        print(f"\nsteady_state_poll round {index}: "
              f"{reference[2] / fast[2]:.2f}x")
    # the gate is the ratio of the median wall times (same slots)
    results = _median_rounds(runs)
    speedup = _report(benchmark, "steady_state_poll", results)
    _assert_paths_agree(results)
    compiled, slots, _ = results[FAST_VARIANT]
    stats = compiled.primary.piconet.fast_path_stats()
    assert stats["enabled"] and stats["transactions"] > 0
    assert slots >= duration * 1600 * 0.95
    # the gate: the kernel keeps at least a 2x lead over the reference
    # loop, on medians over alternating rounds so a loaded CI machine
    # cannot flake it (BENCH_master_loop.json records the last measured
    # speedup; it holds no gate of its own)
    assert speedup >= 2.0


def test_bench_saturated_downlink(benchmark):
    duration = bench_duration(60.0)

    def preload(compiled):
        # ~160 sim-seconds of DH5 backlog: saturated for the whole run
        for _ in range(900):
            compiled.primary.piconet.offer_packet(1, 16000)

    results = benchmark.pedantic(
        _bench_both_paths, args=(_steady_state_spec(), duration, preload),
        rounds=1, iterations=1, warmup_rounds=0)
    _report(benchmark, "saturated_downlink", results)
    _assert_paths_agree(results)
    compiled, slots, _ = results[FAST_VARIANT]
    assert compiled.primary.piconet.fast_path_stats()["transactions"] > 0
    assert slots >= duration * 1600 * 0.95
    delivered = sum(state.delivered_packets
                    for state in compiled.primary.piconet.flow_states())
    assert delivered > 0


def test_bench_figure4_ideal(benchmark):
    duration = bench_duration(10.0)
    spec = figure4_spec(delay_requirement=0.040)
    results = benchmark.pedantic(
        _bench_both_paths, args=(spec, duration),
        rounds=1, iterations=1, warmup_rounds=0)
    _report(benchmark, "figure4_ideal", results)
    _assert_paths_agree(results)
    compiled, slots, _ = results[FAST_VARIANT]
    assert compiled.primary.all_gs_admitted
    assert slots >= duration * 1600 * 0.95


def test_bench_figure4_iid_lossy(benchmark):
    duration = bench_duration(10.0)
    spec = figure4_spec(delay_requirement=0.040,
                        channel=ChannelSpec(model="iid", ber=3e-4))
    results = benchmark.pedantic(
        _bench_both_paths, args=(spec, duration),
        rounds=1, iterations=1, warmup_rounds=0)
    _report(benchmark, "figure4_iid_lossy", results)
    _assert_paths_agree(results)
    compiled, slots, _ = results[FAST_VARIANT]
    assert slots >= duration * 1600 * 0.95
    retx = sum(state.retransmissions
               for state in compiled.primary.piconet.flow_states())
    assert retx > 0


def test_bench_figure4_gilbert_interference(benchmark):
    duration = bench_duration(10.0)
    results = benchmark.pedantic(
        _bench_both_paths, args=(_gilbert_interference_spec(), duration),
        rounds=1, iterations=1, warmup_rounds=0)
    _report(benchmark, "figure4_gilbert_interference", results)
    _assert_paths_agree(results)
    compiled, slots, _ = results[FAST_VARIANT]
    assert slots >= duration * 1600 * 0.95
    assert compiled.collision_probability() > 0
    retx = sum(state.retransmissions
               for state in compiled.primary.piconet.flow_states())
    assert retx > 0


def test_bench_churn_recovery_timeline(benchmark):
    from repro.scenario import churn_recovery_spec

    duration = bench_duration(10.0)
    results = benchmark.pedantic(
        _bench_both_paths, args=(churn_recovery_spec(), duration),
        rounds=1, iterations=1, warmup_rounds=0)
    _report(benchmark, "churn_recovery_timeline", results)
    _assert_paths_agree(results)
    compiled, slots, _ = results[FAST_VARIANT]
    assert slots >= duration * 1600 * 0.95
    # the timeline fired identically on both paths
    reference, _, _ = results[REFERENCE_VARIANT]
    assert compiled.timeline_log == reference.timeline_log
    assert len(compiled.timeline_log) == 9
    assert "topology" in compiled.primary.piconet.fast_path_stats()[
        "bailouts"]
