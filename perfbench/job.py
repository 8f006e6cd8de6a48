"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/job.py --workload NAME --seed N [--length L] [--trace]

``run.py`` starts one of these per repetition, so every repetition pays
the same import and set-up cost and none inherits the heap, caches or
RNG state of an earlier one (repeated runs inside one interpreter drift
upward).  The last line of stdout is one JSON record: timings, the
host-speed calibration around the job, peak RSS, simulated slots,
output digests and, with ``--trace``, the per-layer
table from a cProfile of the job.  ``--warmup`` only imports the package
(compiling its bytecode) and exits.

The job needs ``src`` on ``PYTHONPATH``; ``run.py`` sets it.
"""

import time

#: set-up time is measured from here, so it covers ``import repro``
STARTED = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import layers  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "repro")

#: simulated seconds of one run of each simulation workload
SIM_LENGTHS = {
    "figure4_gilbert_interference": 20.0,
    "crowded_room_coupled_64": 1.0,
}
#: the paper's experiments, swept at their registered defaults
PAPER_EXPERIMENTS = (
    "figure5",
    "delay_compliance",
    "bandwidth_savings",
    "admission_capacity",
    "sco_comparison",
    "improvement_ablation",
)
WORKLOADS = (*SIM_LENGTHS, "paper_sweeps")

BAILOUT_REASONS = ("sco", "bridge", "horizon", "adaptive_flip", "topology")

#: size of the calibration load, a few tens of milliseconds
CALIBRATION_STEPS = 50_000


def digest(payload):
    """Short content hash of a JSON-serialisable result."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def calibrate():
    """Seconds this host takes, right now, for a fixed pure-Python load.

    On a shared host the speed of a core drifts by up to 1.5x from one
    minute to the next, and the simulator slows down with it; run.py
    divides that drift out.  The mix of calls, dict updates, heap
    operations and Mersenne-Twister draws resembles the simulator's.
    """
    rng = random.Random(0)
    heap, counts = [], {}
    started = time.perf_counter()
    for step in range(CALIBRATION_STEPS):
        heapq.heappush(heap, (rng.random(), step))
        counts[step % 97] = counts.get(step % 97, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


# --------------------------------------------------------- simulations

def sim_spec(workload):
    from repro.scenario import (ChannelSpec, InterferenceSpec, ScenarioSpec,
                                coupled_room_spec, figure4_piconet_spec)

    if workload == "crowded_room_coupled_64":
        return coupled_room_spec(piconets=64)
    piconet = figure4_piconet_spec(
        delay_requirement=0.040,
        channel=ChannelSpec(model="gilbert", ber=3e-4))
    return ScenarioSpec(
        piconets=(piconet,),
        interference=InterferenceSpec(victim=piconet.name,
                                      interferer_duties=(0.6, 0.5, 0.4)))


def scenario_outputs(scenario):
    """Every simulated number the correctness digest covers."""
    piconets = {}
    for name, compiled in scenario.piconets.items():
        piconet = compiled.piconet
        piconets[name] = {
            "slot_accounting": piconet.slot_accounting(),
            "flow_stats": [piconet.flow_stats(state.spec.flow_id)
                           for state in piconet.flow_states()],
            "gs_delay_summary": compiled.gs_delay_summary(),
        }
    return {"piconets": piconets,
            "interference_failures":
                scenario.interference_failures_by_piconet()}


def run_simulation(workload, seed, length, profiler):
    from repro.scenario import compile_scenario

    spec = sim_spec(workload)
    before = calibrate()
    started = time.perf_counter()
    if profiler:
        profiler.enable()
    scenario = compile_scenario(spec, seed)
    ready = time.perf_counter()
    scenario.run(length)
    if profiler:
        profiler.disable()
    finished = time.perf_counter()
    after = calibrate()
    record = {
        "setup_s": ready - STARTED - before,
        "calibration_s": (before + after) / 2,
        "job_s": finished - ready,
        "trace_region_s": finished - started,
        "slots": sum(compiled.piconet.slot_accounting()["accounted"]
                     for compiled in scenario.piconets.values()),
        "weights": {"run": 1},
        "digests": {"run": {"run": digest(scenario_outputs(scenario))}},
    }
    kernel_stats = [compiled.piconet.fast_path_stats()
                    for compiled in scenario.piconets.values()]
    return record, kernel_stats, {}


# ------------------------------------------------------------- sweeps

def harvest_piconet_runs(piconet_class):
    """Record ``(accounted slots, fast_path_stats())`` after every
    ``Piconet.run``: sweep points build their piconets internally, so
    this wrapper is the only way to read them from outside."""
    harvested = []
    original = piconet_class.run

    def run(self, duration_seconds):
        original(self, duration_seconds)
        harvested.append((self.slot_accounting()["accounted"],
                          self.fast_path_stats()))

    piconet_class.run = run
    return harvested


def run_sweeps(seed, length, profiler, store_dir):
    """Pass 1 serial into a fresh store, pass 2 resumed over it (every
    point must hit), pass 3 on the batch backend into a second store."""
    from repro.experiments import SweepRunner, get_experiment
    from repro.piconet.piconet import Piconet

    harvested = harvest_piconet_runs(Piconet)
    specs = [get_experiment(name) for name in PAPER_EXPERIMENTS]
    overrides = {
        spec.name: {"duration_seconds": length}
        if length is not None and "duration_seconds" in spec.defaults
        else None
        for spec in specs}
    serial_dir = os.path.join(store_dir, "serial")
    serial = SweepRunner(backend="serial", cache_dir=serial_dir)
    points = {spec.name: len(serial.tasks_for(spec, overrides[spec.name],
                                              master_seed=seed))
              for spec in specs}
    ready = time.perf_counter()

    def sweep(runner, **kwargs):
        return {name: runner.run(name, overrides[name], master_seed=seed,
                                 **kwargs)
                for name in PAPER_EXPERIMENTS}

    before = calibrate()
    started = time.perf_counter()
    if profiler:
        profiler.enable()
    first = sweep(serial)
    swept = time.perf_counter()
    first_runs = list(harvested)
    resumed_runner = SweepRunner(backend="serial", cache_dir=serial_dir)
    resumed = sweep(resumed_runner, resume=True)
    if profiler:
        profiler.disable()
    resumed_at = time.perf_counter()
    after = calibrate()
    batch_started = time.perf_counter()
    batch = sweep(SweepRunner(backend="batch", max_workers=2,
                              cache_dir=os.path.join(store_dir, "batch")))
    finished = time.perf_counter()

    store = resumed_runner.cache
    record = {
        "setup_s": ready - STARTED,
        "calibration_s": (before + after) / 2,
        "job_s": swept - started,
        "resume_s": resumed_at - swept,
        "batch_s": finished - batch_started,
        "trace_region_s": resumed_at - started,
        "slots": sum(slots for slots, _stats in first_runs),
        "weights": points,
        "digests": {
            f"pass{index}": {name: digest(result.to_json())
                             for name, result in results.items()}
            for index, results in enumerate((first, resumed, batch),
                                            start=1)},
        "resume_misses": sum(result.tasks_total - result.cache_hits
                             for result in resumed.values()),
    }
    lookups = store.hits + store.misses
    counters = {
        "fabric.store.hit_ratio": store.hits / lookups if lookups else 0.0,
        "fabric.store.bytes": serial.cache.stats(check_orphans=False).bytes,
    }
    return record, [stats for _slots, stats in first_runs], counters


# ------------------------------------------------------------- tracing

def kernel_counters(kernel_stats):
    """Batch-kernel counters summed over every piconet that ran."""
    prefix = "piconet.batch_kernel"
    windows = sum(stats.get("windows", 0) for stats in kernel_stats)
    transactions = sum(stats.get("transactions", 0)
                       for stats in kernel_stats)
    counters = {
        f"{prefix}.windows": windows,
        f"{prefix}.transactions": transactions,
        f"{prefix}.txn_per_window":
            transactions / windows if windows else 0.0,
    }
    for reason in BAILOUT_REASONS:
        counters[f"{prefix}.bailouts.{reason}"] = sum(
            stats.get("bailouts", {}).get(reason, 0)
            for stats in kernel_stats)
    return counters


def trace_metrics(profiler, wall_s, workload, kernel_stats):
    """The per-layer metrics of one traced job."""
    from repro.baseband import fec
    from repro.baseband.channel import ChannelMap
    from repro.baseband.interference import InterferenceField
    from repro.baseband.segmentation import SegmentationPolicy
    from repro.core.pfp import PredictiveFairPoller
    from repro.experiments.orchestrator import aggregate_replications
    from repro.fabric.store import ResultStore
    from repro.piconet.piconet import Piconet
    from repro.scenario.compile import (CompiledPiconet, CompiledScenario,
                                        compile_scenario)
    from repro.sim.engine import Environment

    by_module, stats = layers.fold(profiler, PACKAGE_DIR)
    metrics = layers.layer_table(by_module, wall_s)
    metrics.update(kernel_counters(kernel_stats))
    for name, function in (
            ("sim.engine.steps", Environment.step),
            ("core.pfp.select_calls", PredictiveFairPoller.select),
            ("baseband.interference.mean_collision_ber_calls",
             InterferenceField.mean_collision_ber),
            ("baseband.interference.report_transmission_calls",
             InterferenceField.report_transmission),
            ("baseband.channel.transmit_calls", ChannelMap.transmit),
            ("baseband.segmentation.segment_calls",
             SegmentationPolicy.segment),
            ("traffic.arrivals", Piconet.offer_packet),
            ("scenario.compile_calls", compile_scenario)):
        metrics[name] = layers.calls(stats, function)
    metrics["scenario.compile_s"] = layers.cumulative(stats, compile_scenario)

    cache = fec.cache_stats().values()
    hits = sum(entry["hits"] for entry in cache)
    lookups = hits + sum(entry["misses"] for entry in cache)
    metrics["baseband.fec.hit_ratio"] = hits / lookups if lookups else 0.0

    phases = dict.fromkeys(("compile", "simulate", "aggregate", "store",
                            "other"), 0.0)
    store_s = {"put": 0.0, "get": 0.0}
    if workload == "paper_sweeps":
        store_s = {"put": layers.cumulative(stats, ResultStore.put),
                   "get": layers.cumulative(stats, ResultStore.get)}
        phases["compile"] = metrics["scenario.compile_s"]
        phases["simulate"] = (layers.cumulative(stats, CompiledPiconet.run)
                              + layers.cumulative(stats, CompiledScenario.run))
        phases["aggregate"] = layers.cumulative(stats, aggregate_replications)
        phases["store"] = (store_s["put"] + store_s["get"]
                           + layers.cumulative(stats,
                                               ResultStore.save_manifest))
        phases["other"] = wall_s - sum(phases.values())
    for phase, seconds in phases.items():
        metrics[f"experiments.phase.{phase}_s"] = seconds
    metrics["fabric.store.put_s"] = store_s["put"]
    metrics["fabric.store.get_s"] = store_s["get"]
    metrics["fabric.store.hit_ratio"] = 0.0
    metrics["fabric.store.bytes"] = 0
    return metrics, by_module


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--length", type=float, default=None,
                        help="simulated seconds per run (sweeps: per point); "
                             "default: the workload's reference length")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)
    if args.warmup:
        import repro.experiments  # noqa: F401
        import repro.scenario  # noqa: F401
        print(json.dumps({"warmup": True}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    profiler = cProfile.Profile() if args.trace else None
    if args.workload == "paper_sweeps":
        store_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            record, kernel_stats, counters = run_sweeps(
                args.seed, args.length, profiler, store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
    else:
        length = args.length if args.length is not None \
            else SIM_LENGTHS[args.workload]
        record, kernel_stats, counters = run_simulation(
            args.workload, args.seed, length, profiler)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record["peak_rss_mb"] = peak_kb / 1024.0
    if profiler:
        metrics, by_module = trace_metrics(
            profiler, record["trace_region_s"], args.workload, kernel_stats)
        metrics.update(counters)
        record["layers"] = metrics
        record["modules"] = by_module
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
