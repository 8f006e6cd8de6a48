"""Tests of the sweep orchestration subsystem (registry + SweepRunner)."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.stats import confidence_interval
from repro.experiments import experiment_names, get_experiment
from repro.experiments.orchestrator import (
    BatchingProcessBackend,
    ProcessPoolBackend,
    SerialBackend,
    SweepRunner,
    aggregate_replications,
    execute_chunk,
    flatten_row,
    format_sweep,
    make_backend,
    point_seed,
)
from repro.experiments.registry import ExperimentSpec, register, unregister
from repro.sim.rng import derive_seed

#: every hand-written driver must have registered a sweep spec on import
EXPECTED_EXPERIMENTS = [
    "admission_capacity",
    "bandwidth_savings",
    "baseline_comparison",
    "be_load_scale",
    "bursty_channel",
    "delay_compliance",
    "dm_vs_dh",
    "figure5",
    "heavy_piconet",
    "improvement_ablation",
    "link_quality_mix",
    "lossy_channel",
    "mixed_sco_gs",
    "multi_sco",
    "sco_comparison",
]

#: calls recorded by the toy experiment (inline execution only)
TOY_CALLS = []


def toy_run_point(params, seed):
    TOY_CALLS.append((dict(params), seed))
    # a deterministic pseudo-measurement that varies with the seed
    noise = (seed % 1000) / 1000.0
    return [{"x": params["x"], "label": f"x={params['x']}",
             "value": params["x"] * 10.0 + noise,
             "packets": int(params["x"]) * 100}]


@pytest.fixture
def toy_experiment():
    spec = register(ExperimentSpec(
        name="toy", description="synthetic two-point experiment",
        run_point=toy_run_point, grid={"x": [1, 2]},
        defaults={"duration_seconds": 0.0}))
    TOY_CALLS.clear()
    yield spec
    unregister("toy")


# ---------------------------------------------------------------- registry

def test_all_drivers_register_their_specs():
    assert set(EXPECTED_EXPERIMENTS) <= set(experiment_names())


def test_registry_lookup_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("does-not-exist")


def test_spec_points_cartesian_product_and_overrides(toy_experiment):
    spec = register(ExperimentSpec(
        name="toy-grid", description="", run_point=toy_run_point,
        grid={"a": [1, 2], "b": ["x", "y"]}, defaults={"c": 7}))
    try:
        points = spec.points()
        assert len(points) == 4
        assert points[0] == {"a": 1, "b": "x", "c": 7}
        # scalar override pins an axis; other keys override defaults
        points = spec.points({"a": 5, "c": 9})
        assert points == [{"a": 5, "b": "x", "c": 9},
                          {"a": 5, "b": "y", "c": 9}]
        # sequence override replaces an axis
        points = spec.points({"b": ["z"], "extra": True})
        assert points == [{"a": 1, "b": "z", "c": 7, "extra": True},
                          {"a": 2, "b": "z", "c": 7, "extra": True}]
    finally:
        unregister("toy-grid")


# ------------------------------------------------------- seed derivation

def test_point_seed_uses_the_random_streams_scheme():
    params = {"x": 1, "duration_seconds": 0.0}
    seed = point_seed(42, "toy", params, 1)
    label = ('toy:{"duration_seconds":0.0,"x":1}:rep1')
    assert seed == derive_seed(42, label)
    # parameter order must not matter
    assert seed == point_seed(
        42, "toy", {"duration_seconds": 0.0, "x": 1}, 1)
    # every coordinate perturbs the seed
    assert seed != point_seed(43, "toy", params, 1)
    assert seed != point_seed(42, "toy", params, 2)
    assert seed != point_seed(42, "other", params, 1)


def test_same_master_seed_same_rows_regardless_of_workers(toy_experiment):
    sequential = SweepRunner(max_workers=1).run("toy", replications=3,
                                                master_seed=7)
    inline_again = SweepRunner(max_workers=1).run("toy", replications=3,
                                                  master_seed=7)
    assert sequential.to_json() == inline_again.to_json()
    other_seed = SweepRunner(max_workers=1).run("toy", replications=3,
                                                master_seed=8)
    assert sequential.to_json() != other_seed.to_json()


def test_worker_pool_matches_inline_execution():
    # admission_capacity is analytic and fast: exercise the real
    # ProcessPoolExecutor path and require byte-identical aggregation
    inline = SweepRunner(max_workers=1).run("admission_capacity")
    pooled = SweepRunner(max_workers=2).run("admission_capacity")
    assert inline.to_json() == pooled.to_json()
    assert pooled.rows, "sweep produced no rows"


# ----------------------------------------------------------------- backends

def test_all_backends_produce_byte_identical_rows():
    # serial / process / batch (adaptive and fixed chunks) must agree down
    # to the serialised JSON for a registered spec under the same master seed
    backends = {"serial": "serial", "process": "process", "batch": "batch",
                "batch-3": BatchingProcessBackend(max_workers=2,
                                                  batch_size=3)}
    results = {
        label: SweepRunner(max_workers=2, backend=backend).run(
            "admission_capacity", master_seed=3)
        for label, backend in backends.items()}
    serial = results["serial"]
    assert serial.rows, "sweep produced no rows"
    for label, result in results.items():
        assert result.to_json() == serial.to_json(), label
        assert result.backend == label.split("-")[0]


def test_backend_resolution_from_max_workers_and_names():
    assert isinstance(SweepRunner(max_workers=1).backend, SerialBackend)
    assert isinstance(SweepRunner(max_workers=0).backend, SerialBackend)
    # no pool, nothing to size: ``--backend serial --workers 0`` still runs
    assert isinstance(make_backend("serial", 0), SerialBackend)
    assert isinstance(SweepRunner(max_workers=4).backend, ProcessPoolBackend)
    assert isinstance(SweepRunner(max_workers=None).backend,
                      ProcessPoolBackend)
    # ``process`` is ``batch`` with chunk size 1, sharing its pool loop
    process = make_backend("process", 2)
    assert isinstance(process, BatchingProcessBackend)
    assert process.batch_size == 1
    assert "execute" not in vars(ProcessPoolBackend)
    assert isinstance(SweepRunner(backend="batch").backend,
                      BatchingProcessBackend)
    explicit = BatchingProcessBackend(max_workers=2, batch_size=3)
    assert SweepRunner(backend=explicit).backend is explicit
    with pytest.raises(ValueError, match="unknown execution backend"):
        make_backend("carrier-pigeon")
    with pytest.raises(TypeError):
        SweepRunner(backend=42)


def test_batching_backend_chunking_and_validation():
    with pytest.raises(ValueError):
        BatchingProcessBackend(batch_size=0)
    with pytest.raises(ValueError):
        BatchingProcessBackend(oversubscribe=0)
    backend = BatchingProcessBackend(max_workers=2, batch_size=3)
    # a fixed batch size is the chunk size, clamped to the remaining tasks
    assert [backend._next_batch_size(remaining)
            for remaining in (8, 5, 2)] == [3, 3, 2]
    # observed costs never move a fixed chunk size
    backend._observe_batch(batch_seconds=0.0001, batch_size=3)
    assert backend._next_batch_size(remaining=100) == 3
    assert ProcessPoolBackend()._next_batch_size(remaining=100) == 1


@pytest.mark.parametrize("name", ["process", "batch", "remote"])
@pytest.mark.parametrize("workers", [0, -1])
def test_pool_backends_reject_fewer_than_one_worker(name, workers):
    with pytest.raises(ValueError) as excinfo:
        make_backend(name, workers)
    assert str(excinfo.value) == (f"{name} backend: max_workers must be "
                                  f">= 1, got {workers}")
    with pytest.raises(ValueError, match=f"{name} backend"):
        SweepRunner(max_workers=workers, backend=name)


# ------------------------------------------------------------ chunk entry

def test_execute_chunk_announces_each_task_before_it_runs(toy_experiment):
    log = []

    def on_start(index):
        log.append(("start", index, len(TOY_CALLS)))

    tasks = [("toy", {"x": 1}, 11), ("toy", {"x": 2}, 12),
             ("toy", {"x": 3}, 13)]
    execute_chunk(tasks, on_start)
    # task ``i`` is announced after ``i`` tasks ran, i.e. before its own
    assert log == [("start", 0, 0), ("start", 1, 1), ("start", 2, 2)]
    assert [seed for _, seed in TOY_CALLS] == [11, 12, 13]


def test_execute_chunk_returns_worker_rows_per_task_and_seconds(
        toy_experiment):
    tasks = [("toy", {"x": 1}, 5), ("toy", {"x": 2}, 6)]
    worker, results, seconds = execute_chunk(tasks)
    assert worker == f"{socket.gethostname()}/{os.getpid()}"
    assert results == [toy_run_point({"x": 1}, 5), toy_run_point({"x": 2}, 6)]
    assert seconds >= 0.0
    _, rows, seconds = execute_chunk([])
    assert rows == [] and seconds >= 0.0


def test_execute_chunk_wraps_a_single_row_dict():
    spec = register(ExperimentSpec(
        name="toy-dict", description="", grid={"x": [1]},
        run_point=lambda params, seed: {"x": params["x"]}))
    try:
        assert execute_chunk([("toy-dict", {"x": 4}, 0)])[1] == [[{"x": 4}]]
    finally:
        unregister(spec.name)


def failing_run_point(params, seed):
    if params["x"] == 2:
        raise RuntimeError("point 2 exploded")
    return [{"x": params["x"]}]


def test_execute_chunk_propagates_a_raising_task():
    register(ExperimentSpec(name="toy-fail", description="",
                            run_point=failing_run_point, grid={"x": [1]}))
    started = []
    try:
        with pytest.raises(RuntimeError, match="point 2 exploded"):
            execute_chunk([("toy-fail", {"x": 1}, 0),
                           ("toy-fail", {"x": 2}, 0),
                           ("toy-fail", {"x": 3}, 0)], started.append)
    finally:
        unregister("toy-fail")
    # the chunk stops at the failing task
    assert started == [0, 1]


def test_adaptive_batching_validation():
    with pytest.raises(ValueError):
        BatchingProcessBackend(target_batch_seconds=0)
    with pytest.raises(ValueError):
        BatchingProcessBackend(max_batch_size=0)


def test_adaptive_batching_sizes_chunks_from_observed_cost():
    backend = BatchingProcessBackend(max_workers=2,
                                     target_batch_seconds=1.0,
                                     max_batch_size=16)
    # no cost estimate yet: probe with single-task batches
    assert backend._next_batch_size(remaining=100) == 1
    # 50 ms per task -> ~20 tasks per second-long chunk, clamped to 16
    backend._observe_batch(batch_seconds=0.05, batch_size=1)
    assert backend._next_batch_size(remaining=100) == 16
    # expensive tasks shrink the chunks again (EWMA follows the drift)
    for _ in range(20):
        backend._observe_batch(batch_seconds=2.0, batch_size=4)
    assert backend._next_batch_size(remaining=100) == 2
    # never exceed the remaining work and never return zero
    assert backend._next_batch_size(remaining=1) == 1
    backend._task_cost_ewma = 1e9
    assert backend._next_batch_size(remaining=100) == 1
    # free tasks saturate at the cap
    backend._task_cost_ewma = 0.0
    assert backend._next_batch_size(remaining=100) == 16


def test_adaptive_batching_ewma_converges():
    backend = BatchingProcessBackend()
    backend._observe_batch(1.0, 1)
    assert backend._task_cost_ewma == pytest.approx(1.0)
    for _ in range(30):
        backend._observe_batch(0.1, 1)
    assert backend._task_cost_ewma == pytest.approx(0.1, rel=0.05)


def test_adaptive_batching_preserves_task_order(toy_experiment):
    # default batch backend (no fixed batch_size) is the adaptive one
    backend = SweepRunner(max_workers=2, backend="batch").backend
    assert isinstance(backend, BatchingProcessBackend)
    assert backend.batch_size is None
    result = SweepRunner(max_workers=2, backend="batch").run(
        "toy", master_seed=5)
    serial = SweepRunner(max_workers=1).run("toy", master_seed=5)
    assert result.to_json() == serial.to_json()


# ----------------------------------------------------------------- progress

def test_progress_callback_reports_every_task(toy_experiment):
    events = []
    runner = SweepRunner(max_workers=1, progress=events.append)
    runner.run("toy", replications=3, master_seed=2)
    starts = [e for e in events if e.event == "start"]
    dones = [e for e in events if e.event == "done"]
    assert len(starts) == len(dones) == 6  # 2 points x 3 replications
    assert [e.completed for e in dones] == list(range(1, 7))
    assert all(e.total == 6 for e in events)
    assert all(not e.cached for e in events)
    assert all(e.elapsed_seconds >= 0 for e in events)
    for group in (starts, dones):
        assert {(e.point_index, e.replication) for e in group} == {
            (p, r) for p in range(2) for r in range(3)}
    assert all(e.params["x"] in (1, 2) for e in events)


def test_progress_callback_marks_cache_hits(toy_experiment, tmp_path):
    cache_dir = str(tmp_path / "cache")
    SweepRunner(max_workers=1, cache_dir=cache_dir).run(
        "toy", replications=2, master_seed=4)
    events = []
    SweepRunner(max_workers=1, cache_dir=cache_dir,
                progress=events.append).run("toy", replications=2,
                                            master_seed=4)
    assert len(events) == 4
    assert all(e.cached for e in events)


# ------------------------------------------------------------------ cache

def test_cache_miss_then_hit_skips_execution(toy_experiment, tmp_path):
    cache_dir = str(tmp_path / "cache")
    runner = SweepRunner(max_workers=1, cache_dir=cache_dir)
    first = runner.run("toy", replications=2, master_seed=1)
    assert first.tasks_run == 4 and first.cache_hits == 0
    assert len(TOY_CALLS) == 4

    rerun = SweepRunner(max_workers=1, cache_dir=cache_dir).run(
        "toy", replications=2, master_seed=1)
    assert rerun.tasks_run == 0 and rerun.cache_hits == 4
    assert len(TOY_CALLS) == 4, "cached tasks must not execute again"
    assert rerun.to_json() == first.to_json()

    # a different master seed misses cleanly
    other = SweepRunner(max_workers=1, cache_dir=cache_dir).run(
        "toy", replications=2, master_seed=2)
    assert other.tasks_run == 4 and other.cache_hits == 0


def test_cache_partial_hit_only_runs_new_points(toy_experiment, tmp_path):
    cache_dir = str(tmp_path / "cache")
    SweepRunner(max_workers=1, cache_dir=cache_dir).run(
        "toy", overrides={"x": [1]}, replications=2, master_seed=1)
    TOY_CALLS.clear()
    grown = SweepRunner(max_workers=1, cache_dir=cache_dir).run(
        "toy", overrides={"x": [1, 2]}, replications=2, master_seed=1)
    # point x=1 is served from the cache, only x=2 executes
    assert grown.cache_hits == 2 and grown.tasks_run == 2
    assert all(params["x"] == 2 for params, _ in TOY_CALLS)


# ------------------------------------------------------------ aggregation

def test_ci_aggregation_matches_analysis_stats(toy_experiment):
    result = SweepRunner(max_workers=1).run("toy", replications=2,
                                            master_seed=5)
    assert len(result.rows) == 2
    for row in result.rows:
        x = row["point"]["x"]
        seeds = [point_seed(5, "toy", row["point"], r) for r in range(2)]
        samples = [x * 10.0 + (seed % 1000) / 1000.0 for seed in seeds]
        expected_mean = sum(samples) / len(samples)
        expected_ci = confidence_interval(samples, 0.95)
        assert row["mean"]["value"] == pytest.approx(expected_mean)
        assert row["ci"]["value"][0] == pytest.approx(expected_ci[0])
        assert row["ci"]["value"][1] == pytest.approx(expected_ci[1])
        # non-numeric fields pass through; agreeing ints stay exact ints
        assert row["mean"]["label"] == f"x={x}"
        assert row["mean"]["packets"] == x * 100
        assert isinstance(row["mean"]["packets"], int)


def test_aggregate_replications_rejects_mismatched_rows():
    with pytest.raises(ValueError, match="row count"):
        aggregate_replications([[{"a": 1}], []])


def test_disagreeing_boolean_verdicts_surface_as_fraction():
    # a bound violation in any replication must never hide behind the
    # first replication's True
    rows = aggregate_replications([[{"bound_met": True, "d": 1.0}],
                                   [{"bound_met": False, "d": 2.0}],
                                   [{"bound_met": False, "d": 3.0}]])
    assert rows[0]["mean"]["bound_met"] == pytest.approx(1.0 / 3.0)
    # agreeing verdicts stay plain booleans
    rows = aggregate_replications([[{"bound_met": True}],
                                   [{"bound_met": True}]])
    assert rows[0]["mean"]["bound_met"] is True


def test_flatten_row_handles_nesting_and_collisions():
    flat = flatten_row({"a": 1, "b": {"c": 2.5, "d": {"e": True}},
                        "f": [1, 2]})
    assert flat == {"a": 1, "b_c": 2.5, "b_d_e": True, "f": [1, 2]}
    with pytest.raises(ValueError, match="duplicate key"):
        flatten_row({"a_b": 1, "a": {"b": 2}})


def test_aggregate_replications_flattens_nested_metric_dicts():
    rows = aggregate_replications([
        [{"d": 0.1, "fixed": {"gs_slots": 10, "note": "x"},
          "variable": {"gs_slots": 4}}],
        [{"d": 0.1, "fixed": {"gs_slots": 12, "note": "x"},
          "variable": {"gs_slots": 6}}],
    ])
    mean, ci = rows[0]["mean"], rows[0]["ci"]
    assert mean["fixed_gs_slots"] == pytest.approx(11.0)
    assert mean["variable_gs_slots"] == pytest.approx(5.0)
    assert mean["fixed_note"] == "x"
    assert "fixed" not in mean  # the nested dict itself is gone
    low, high = ci["fixed_gs_slots"]
    assert low <= 11.0 <= high
    assert low == pytest.approx(2 * 11.0 - high)  # symmetric around mean


def test_bandwidth_savings_sweep_exposes_flattened_poller_metrics():
    """The ISSUE acceptance: fixed_*/variable_* metrics carry CI bounds."""
    result = SweepRunner(max_workers=1).run(
        "bandwidth_savings",
        overrides={"delay_requirement": [0.035], "duration_seconds": 0.5},
        replications=2, master_seed=1)
    assert result.rows, "sweep produced no rows"
    row = result.rows[0]
    for key in ("fixed_gs_slots", "variable_gs_slots",
                "fixed_be_throughput_kbps", "variable_gs_max_delay_s"):
        assert key in row["mean"], f"missing flattened metric {key}"
        low, high = row["ci"][key]
        assert low <= high
    # the variable-interval poller still saves slots after aggregation
    assert row["mean"]["variable_gs_slots"] < row["mean"]["fixed_gs_slots"]
    # and the flattened keys render as table columns
    assert "fixed_gs_slots" in format_sweep(result)


def test_cache_invalidated_by_spec_version_bump(tmp_path):
    cache_dir = str(tmp_path / "cache")
    try:
        register(ExperimentSpec(
            name="toy-v", description="", run_point=toy_run_point,
            grid={"x": [1]}, version=1))
        first = SweepRunner(max_workers=1, cache_dir=cache_dir).run("toy-v")
        assert first.tasks_run == 1
        unregister("toy-v")
        register(ExperimentSpec(
            name="toy-v", description="", run_point=toy_run_point,
            grid={"x": [1]}, version=2))
        bumped = SweepRunner(max_workers=1, cache_dir=cache_dir).run("toy-v")
        assert bumped.tasks_run == 1 and bumped.cache_hits == 0
    finally:
        unregister("toy-v")


def test_non_stochastic_experiment_runs_single_replication():
    result = SweepRunner(max_workers=1).run("admission_capacity",
                                            replications=5)
    assert result.replications == 1
    assert result.tasks_total == len(
        get_experiment("admission_capacity").grid["rate_bytes_per_second"])


def test_format_sweep_renders_points_and_metrics(toy_experiment):
    result = SweepRunner(max_workers=1).run("toy", replications=2)
    text = format_sweep(result)
    assert "toy" in text and "value" in text and "±" in text


# ---------------------------------------------------------------- the CLI

def test_cli_list_names_all_experiments(capsys):
    from repro.experiments.__main__ import main
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_EXPERIMENTS:
        assert name in out


def test_cli_backend_flag_selects_backend_and_agrees(tmp_path):
    from repro.experiments.__main__ import main
    outputs = {}
    for backend in ("serial", "process", "batch"):
        out = tmp_path / f"{backend}.json"
        assert main(["run", "admission_capacity", "--backend", backend,
                     "--workers", "2", "--no-cache",
                     "--json", str(out)]) == 0
        outputs[backend] = out.read_bytes()
    assert outputs["serial"] == outputs["process"] == outputs["batch"]


def test_cli_progress_flag_logs_per_task(tmp_path, caplog):
    import logging

    from repro.experiments.__main__ import main
    with caplog.at_level(logging.INFO, logger="repro.experiments.progress"):
        assert main(["run", "admission_capacity", "--backend", "serial",
                     "--progress", "--no-cache",
                     "--json", str(tmp_path / "out.json")]) == 0
    lines = [r.message for r in caplog.records
             if "admission_capacity: task" in r.message]
    grid = get_experiment("admission_capacity").grid["rate_bytes_per_second"]
    done_lines = [line for line in lines if "done (" in line]
    start_lines = [line for line in lines if "task started" in line]
    assert len(done_lines) == len(start_lines) == len(grid)
    assert "task started" in lines[0]
    assert "task 1/" in lines[1] and "done" in lines[1]


def test_cli_run_writes_json_and_hits_cache(tmp_path):
    env_args = ["run", "admission_capacity", "--workers", "2",
                "--cache-dir", str(tmp_path / "cache")]
    from repro.experiments.__main__ import main
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(env_args + ["--json", str(out_a)]) == 0
    assert main(env_args + ["--json", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["experiment"] == "admission_capacity"
    assert payload["rows"]


def test_cli_run_resume_notes_store_hits(tmp_path, capsys):
    from repro.experiments.__main__ import main
    env_args = ["run", "admission_capacity", "--resume",
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(tmp_path / "out.json")]
    assert main(env_args) == 0
    capsys.readouterr()
    assert main(env_args) == 0
    err = capsys.readouterr().err
    grid = get_experiment("admission_capacity").grid["rate_bytes_per_second"]
    assert f"resumed: {len(grid)} of {len(grid)} task(s)" in err


@pytest.mark.slow
def test_cli_figure5_parallel_replicated_acceptance(tmp_path):
    """The ISSUE acceptance path: figure5 --workers 4 --replications 3."""
    cache = str(tmp_path / "cache")

    def invoke(workers, out):
        command = [sys.executable, "-m", "repro.experiments", "run",
                   "figure5", "--workers", str(workers),
                   "--replications", "3", "--cache-dir", cache,
                   "--set", "delay_requirement=[0.032,0.042]",
                   "--set", "duration_seconds=1.0",
                   "--json", str(out)]
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        completed = subprocess.run(command, capture_output=True, text=True,
                                   env=env, cwd=str(tmp_path))
        assert completed.returncode == 0, completed.stderr
        return completed.stdout

    parallel_out = invoke(4, tmp_path / "par.json")
    assert "cache hits: 0" in parallel_out
    cached_out = invoke(1, tmp_path / "seq.json")
    assert "cache hits: 6" in cached_out and "run: 0" in cached_out
    assert ((tmp_path / "par.json").read_bytes()
            == (tmp_path / "seq.json").read_bytes())
    rows = json.loads((tmp_path / "par.json").read_text())["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["mean"]["admitted"] is True
        assert row["ci"]["S1"][0] <= row["mean"]["S1"] <= row["ci"]["S1"][1]
