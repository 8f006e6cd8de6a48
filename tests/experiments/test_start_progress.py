"""Per-task *start* progress reporting, including from worker processes."""

import logging
import os
import threading

import pytest

from repro.experiments import orchestrator
from repro.experiments.orchestrator import (
    EVENT_DONE,
    EVENT_START,
    SweepProgress,
    SweepRunner,
    log_progress,
    progress_logger,
    worker_identity,
)
from repro.experiments.registry import ExperimentSpec, register, unregister


def cheap_run_point(params, seed):
    return [{"x": params["x"], "value": params["x"] * 2.0}]


@pytest.fixture
def cheap_experiment():
    spec = register(ExperimentSpec(
        name="cheap-progress", description="synthetic progress probe",
        run_point=cheap_run_point, grid={"x": [1, 2, 3]}))
    yield spec
    unregister("cheap-progress")


class EventCollector:
    """Thread-safe progress sink (start events arrive from a thread)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events = []

    def __call__(self, progress: SweepProgress) -> None:
        with self._lock:
            self.events.append(progress)

    def keys(self, event):
        return sorted((p.point_index, p.replication)
                      for p in self.events if p.event == event)


def run_with(backend, experiment="admission_capacity", **run_args):
    collector = EventCollector()
    runner = SweepRunner(max_workers=2, backend=backend, progress=collector)
    result = runner.run(experiment, **run_args)
    return collector, result


def test_serial_backend_reports_start_before_done(cheap_experiment):
    collector, result = run_with("serial", "cheap-progress")
    per_task = {}
    for progress in collector.events:
        key = (progress.point_index, progress.replication)
        per_task.setdefault(key, []).append(progress.event)
    assert per_task == {(i, 0): [EVENT_START, EVENT_DONE]
                        for i in range(3)}
    assert result.tasks_run == 3


def test_process_backend_reports_worker_side_starts():
    # admission_capacity's 6 tasks on 2 workers run one task per chunk
    collector, result = run_with("batch")
    total = result.tasks_total
    assert total > 1
    assert collector.keys(EVENT_START) == collector.keys(EVENT_DONE)
    assert len(collector.keys(EVENT_START)) == total
    # the starts were announced by pool processes, not by the parent
    starters = {e.worker for e in collector.events if e.event == EVENT_START}
    assert starters and worker_identity() not in starters


def test_batch_backend_reports_per_task_starts_within_chunks(monkeypatch):
    # 6 points x 3 replications = 18 tasks on 2 workers: Pool.map's rule
    # ships chunks of ceil(18 / (4 x 2)) = 3 tasks
    register(ExperimentSpec(
        name="cheap-chunks", description="multi-task chunk probe",
        run_point=cheap_run_point, grid={"x": list(range(6))}))
    chunk_sizes = []

    class SpyPool(orchestrator.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            chunk_sizes.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize,
                               **kwargs)

    monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", SpyPool)
    try:
        collector, pooled = run_with("batch", "cheap-chunks",
                                     replications=3, master_seed=9)
        serial = SweepRunner(backend="serial").run(
            "cheap-chunks", replications=3, master_seed=9)
    finally:
        unregister("cheap-chunks")
    assert chunk_sizes == [3]
    assert pooled.to_json() == serial.to_json()
    # exactly one start and one done event per task, even mid-chunk
    tasks = [(p, r) for p in range(6) for r in range(3)]
    assert collector.keys(EVENT_START) == tasks
    assert collector.keys(EVENT_DONE) == tasks
    # each task started in a pool process, the one that returned its rows
    workers = {event: {(e.point_index, e.replication): e.worker
                       for e in collector.events if e.event == event}
               for event in (EVENT_START, EVENT_DONE)}
    assert workers[EVENT_START] == workers[EVENT_DONE]
    pids = {int(worker.rsplit("/", 1)[1])
            for worker in workers[EVENT_START].values()}
    assert pids and os.getpid() not in pids and len(pids) <= 2


def test_adaptive_batch_backend_reports_starts():
    # the default chunk rule sizes the pool's chunks from the sweep: every
    # task still announces one start and one done, from a pool process
    collector, result = run_with("batch", replications=2)
    assert result.tasks_total > 1
    assert collector.keys(EVENT_START) == collector.keys(EVENT_DONE)
    assert len(collector.keys(EVENT_START)) == result.tasks_total
    assert os.getpid() not in {int(e.worker.rsplit("/", 1)[1])
                               for e in collector.events}

def test_serial_progress_events_carry_the_local_identity(cheap_experiment):
    collector, _ = run_with("serial", "cheap-progress")
    assert len(collector.events) == 6  # a start and a done per task
    assert {e.worker for e in collector.events} == {worker_identity()}


def test_log_progress_renders_the_worker(cheap_experiment, caplog):
    collector, _ = run_with("serial", "cheap-progress")
    with caplog.at_level(logging.INFO, logger=progress_logger.name):
        log_progress(collector.events[-1])
    assert f" on {worker_identity()}" in caplog.text


def test_start_events_do_not_change_results(cheap_experiment):
    silent = SweepRunner(backend="serial").run("cheap-progress")
    collector, observed = run_with("serial", "cheap-progress")
    assert observed.to_json() == silent.to_json()


def test_no_start_machinery_without_progress_callback(cheap_experiment,
                                                     monkeypatch):
    def refuse(callback):
        raise AssertionError("start reporter built without a callback")

    monkeypatch.setattr(orchestrator, "_StartReporter", refuse)
    for backend in ("serial", "batch"):
        result = SweepRunner(max_workers=2, backend=backend).run(
            "cheap-progress")
        assert result.tasks_run == 3


def test_log_progress_renders_start_and_done_lines(caplog):
    start = SweepProgress(
        experiment="toy", completed=0, total=4, point_index=1,
        replication=0, params={}, elapsed_seconds=0.5, event=EVENT_START)
    done = SweepProgress(
        experiment="toy", completed=1, total=4, point_index=1,
        replication=0, params={}, elapsed_seconds=1.5, cached=True)
    with caplog.at_level(logging.INFO, logger=progress_logger.name):
        log_progress(start)
        log_progress(done)
    assert "task started (point 1, replication 0; 0/4 done)" \
        in caplog.messages[0]
    assert "task 1/4 done" in caplog.messages[1]
    assert "cached" in caplog.messages[1]
