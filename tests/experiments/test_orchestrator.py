"""Tests of the sweep orchestration subsystem (registry + SweepRunner)."""

import json
import math
import os
import socket
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import experiment_names, get_experiment
from repro.experiments.orchestrator import (
    BACKENDS,
    SweepResult,
    SweepRunner,
    SweepTask,
    aggregate_replications,
    execute_tasks,
    flatten_row,
    format_sweep,
    point_seed,
    run_task,
)
from repro.experiments.registry import ExperimentSpec, register, unregister
from repro.fabric.store import ResultStore
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
    # process-pool path and require byte-identical aggregation
    inline = SweepRunner(max_workers=1).run("admission_capacity")
    pooled = SweepRunner(max_workers=2).run("admission_capacity")
    assert inline.to_json() == pooled.to_json()
    assert pooled.rows, "sweep produced no rows"


# ----------------------------------------------------------------- backends

def test_all_backends_produce_byte_identical_rows():
    # serial and batch must agree down to the serialised JSON for a
    # registered spec under the same master seed
    results = {
        name: SweepRunner(max_workers=2, backend=name).run(
            "admission_capacity", master_seed=3)
        for name in ("serial", "batch")}
    serial = results["serial"]
    assert serial.rows, "sweep produced no rows"
    for name, result in results.items():
        assert result.to_json() == serial.to_json(), name
        assert result.backend == name


def test_backend_resolution_from_max_workers_and_names():
    assert SweepRunner(max_workers=1).backend == "serial"
    assert SweepRunner(max_workers=0).backend == "serial"
    # no pool, nothing to size: ``--backend serial --workers 0`` still runs
    assert SweepRunner(max_workers=0, backend="serial").backend == "serial"
    assert SweepRunner(max_workers=4).backend == "batch"
    assert SweepRunner(max_workers=None).backend == "batch"
    assert SweepRunner(backend="batch").backend == "batch"
    for bad in ("carrier-pigeon", 42):
        with pytest.raises(ValueError, match="unknown execution backend"):
            SweepRunner(backend=bad)


def test_backends_are_serial_and_batch_only():
    assert sorted(BACKENDS) == ["batch", "serial"]
    for name in ("process", "remote"):
        with pytest.raises(ValueError) as excinfo:
            SweepRunner(max_workers=2, backend=name)
        assert str(excinfo.value) == (f"unknown execution backend "
                                      f"{name!r}; known: batch, serial")


@pytest.mark.parametrize("name", ["batch"])
@pytest.mark.parametrize("workers", [0, -1])
def test_pool_backends_reject_fewer_than_one_worker(name, workers):
    with pytest.raises(ValueError) as excinfo:
        SweepRunner(max_workers=workers, backend=name)
    assert str(excinfo.value) == (f"{name} backend: max_workers must be "
                                  f">= 1, got {workers}")


# ------------------------------------------------------------ task entry

def toy_task(x, seed, experiment="toy"):
    return SweepTask(experiment=experiment, point_index=0, replication=0,
                     params={"x": x}, seed=seed)


def test_run_task_announces_the_task_before_it_runs(toy_experiment):
    log = []

    class Queue:
        def put(self, token):
            log.append((token, len(TOY_CALLS)))

    task = toy_task(1, 11)
    run_task(task, Queue())
    worker = f"{socket.gethostname()}/{os.getpid()}"
    # announced with its worker before it ran
    assert log == [((task, worker), 0)]
    assert TOY_CALLS == [({"x": 1}, 11)]


def test_run_task_returns_worker_and_rows(toy_experiment):
    worker, rows = run_task(toy_task(2, 6))
    assert worker == f"{socket.gethostname()}/{os.getpid()}"
    assert rows == toy_run_point({"x": 2}, 6)


def test_run_task_wraps_a_single_row_dict():
    spec = register(ExperimentSpec(
        name="toy-dict", description="", grid={"x": [1]},
        run_point=lambda params, seed: {"x": params["x"]}))
    try:
        assert run_task(toy_task(4, 0, "toy-dict"))[1] == [{"x": 4}]
    finally:
        unregister(spec.name)


def failing_run_point(params, seed):
    if params["x"] == 2:
        raise RuntimeError("point 2 exploded")
    return [{"x": params["x"]}]


def test_execute_tasks_inline_stops_at_a_raising_task():
    register(ExperimentSpec(name="toy-fail", description="",
                            run_point=failing_run_point, grid={"x": [1]}))
    pending = list(enumerate(toy_task(x, 0, "toy-fail") for x in (1, 2, 3)))
    started, done = [], []
    try:
        with pytest.raises(RuntimeError, match="point 2 exploded"):
            for slot, _task, _worker, _rows in execute_tasks(
                    pending, None,
                    lambda task, worker: started.append(task.params["x"])):
                done.append(slot)
    finally:
        unregister("toy-fail")
    # the sweep stops at the failing task
    assert started == [1, 2] and done == [0]


def faulty_run_point(params, seed):
    if os.path.exists(params["fault_marker"]) and params["x"] == 7:
        raise RuntimeError(f"point {params['x']} exploded (seed {seed})")
    return [{"x": params["x"], "value": params["x"] + seed % 97}]


def test_batch_failure_reraises_and_resume_runs_only_the_rest(tmp_path):
    # 12 tasks on 2 workers: chunks of ceil(12 / 8) = 2 tasks; the task
    # at slot 7 raises while the marker file exists (forked workers see
    # the file system, so deleting it removes the fault)
    marker = tmp_path / "fault"
    marker.write_text("")
    spec = register(ExperimentSpec(
        name="toy-faulty", description="", run_point=faulty_run_point,
        grid={"x": list(range(12))},
        defaults={"fault_marker": str(marker)}))
    store = str(tmp_path / "store")
    try:
        with pytest.raises(RuntimeError,
                           match=r"^point 7 exploded \(seed \d+\)$"):
            SweepRunner(max_workers=2, backend="batch",
                        cache_dir=store).run("toy-faulty", resume=True)
        cache = ResultStore(store)
        stored = [cache.get("toy-faulty@v1", task.params, task.seed)
                  is not None for task in SweepRunner().tasks_for(spec)]
        # the chunks before the failing task's chunk (slots 6 and 7)
        # reached the store, nothing from it or after it
        assert stored == [True] * 6 + [False] * 6
        marker.unlink()
        resumed = SweepRunner(max_workers=2, backend="batch",
                              cache_dir=store).run("toy-faulty",
                                                   resume=True)
        clean = SweepRunner(backend="serial").run("toy-faulty")
    finally:
        unregister("toy-faulty")
    assert (resumed.tasks_run, resumed.cache_hits) == (6, 6)
    assert resumed.to_json() == clean.to_json()


def test_adaptive_batching_preserves_task_order(toy_experiment):
    # the batch backend's chunk size adapts to the sweep's size (Pool.map's
    # rule): 2 points x 5 replications on 2 workers ship chunks of
    # ceil(10 / 8) = 2 tasks, and the rows still come back in task order
    result = SweepRunner(max_workers=2, backend="batch").run(
        "toy", master_seed=5, replications=5)
    serial = SweepRunner(max_workers=1).run("toy", master_seed=5,
                                            replications=5)
    assert result.backend == "batch" and result.tasks_run == 10
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
        half_width = 1.960 * statistics.stdev(samples) / math.sqrt(2)
        assert row["mean"]["value"] == pytest.approx(expected_mean)
        assert row["ci"]["value"][0] == pytest.approx(
            expected_mean - half_width)
        assert row["ci"]["value"][1] == pytest.approx(
            expected_mean + half_width)
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


def test_format_sweep_prints_points_exactly_and_metrics_significantly():
    # regression: points and metrics both went through ".2f", so figure5's
    # seven delay requirements printed as 0.03, 0.03, 0.04 x4, 0.05 and
    # every gs_max_delay_s as 0.02
    points = get_experiment("figure5").points()
    result = SweepResult(
        experiment="figure5", master_seed=0, replications=1,
        confidence=0.95,
        rows=[{"point": point,
               "mean": {"gs_max_delay_s": 0.0187 + index * 1e-4},
               "ci": {}} for index, point in enumerate(points)])
    lines = format_sweep(result).splitlines()[4:]
    assert len(lines) == len(points) == 7
    for line, point in zip(lines, points):
        assert repr(point["delay_requirement"]) in line.split()
    assert len({line.split()[-1] for line in lines}) == 7
    assert lines[0].split()[-1] == "0.0187"


def test_format_sweep_fresh_and_cached_runs_render_the_same_table(
        toy_experiment, tmp_path):
    # the store keeps rows with sorted keys and the toy experiment's rows
    # are unsorted, so column order must not depend on a row's source
    cache_dir = str(tmp_path / "cache")
    fresh = SweepRunner(max_workers=1, cache_dir=cache_dir).run("toy")
    cached = SweepRunner(max_workers=1, cache_dir=cache_dir).run("toy")
    assert fresh.tasks_run == 2 and cached.cache_hits == 2
    fresh_table = format_sweep(fresh).split("\n\n", 1)[1]
    cached_table = format_sweep(cached).split("\n\n", 1)[1]
    assert fresh_table == cached_table


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
    for backend in ("serial", "batch"):
        out = tmp_path / f"{backend}.json"
        assert main(["run", "admission_capacity", "--backend", backend,
                     "--workers", "2", "--no-cache",
                     "--json", str(out)]) == 0
        outputs[backend] = out.read_bytes()
    assert outputs["serial"] == outputs["batch"]


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
