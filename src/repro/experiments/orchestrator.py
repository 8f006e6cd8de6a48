"""Parallel, replication-aware sweep execution for registered experiments.

The :class:`SweepRunner` turns an :class:`~repro.experiments.registry.
ExperimentSpec` into a list of (parameter point, seed replication) tasks,
hands them to a pluggable :class:`ExecutionBackend` (inline, or chunks of
tasks per pool process, both through :func:`execute_chunk`), aggregates the
replications of every point into mean / confidence-interval rows via
:mod:`repro.analysis.stats`, and caches raw task results as JSON on disk
keyed by ``(experiment, params, seed)`` so repeated sweeps are incremental.
A progress callback can be attached to observe every completed task (the
CLI's ``--progress`` flag wires it to a logging handler).

Determinism: every task's seed is derived from the master seed, the
experiment name, the canonical JSON of the point's parameters and the
replication index via the :func:`repro.sim.rng.derive_seed` scheme, and
aggregation happens in the parent process in task order — so a sweep's
result (including its JSON serialisation) is byte-identical no matter which
backend executed it or how many workers it used.
"""

from __future__ import annotations

import contextlib
import json
import logging
import multiprocessing
import os
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (Callable, ClassVar, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.analysis.stats import aggregate_mean_ci
from repro.fabric.store import (ResultStore, SweepManifest, canonical_params,
                                entry_digest)
from repro.sim.rng import derive_seed

from repro.experiments.registry import ExperimentSpec, get_experiment


def worker_identity() -> str:
    """``host/pid`` of the current process — who executed a task.

    Progress events carry it (:attr:`SweepProgress.worker`) so
    :func:`log_progress` can show *where* each point ran: the parent
    process for the serial backend, a pool process for ``batch``.
    """
    return f"{socket.gethostname()}/{os.getpid()}"


def point_seed(master_seed: int, experiment: str,
               params: Mapping[str, object], replication: int) -> int:
    """Deterministic seed of one (experiment, point, replication) task."""
    label = f"{experiment}:{canonical_params(params)}:rep{replication}"
    return derive_seed(master_seed, label)


@dataclass(frozen=True)
class SweepTask:
    """One unit of work: a parameter point under one replication seed."""

    experiment: str
    point_index: int
    replication: int
    params: Dict[str, object]
    seed: int


#: one serialised sweep task, as shipped to a worker: experiment, params, seed
TaskTriple = Tuple[str, Dict[str, object], int]


def execute_chunk(tasks: Sequence[TaskTriple],
                  on_start: Optional[Callable[[int], None]] = None
                  ) -> Tuple[str, List[List[Dict]], float]:
    """Run a chunk of tasks in this process: the one worker entry point.

    Both backends execute through it — inline (``serial``) and in pool
    processes (``batch``).
    ``on_start(index)`` is called before the chunk's ``index``-th task
    runs, so progress can tick while long points execute; pool
    submissions pass a picklable hook.  Returns the worker identity, one
    row list per task, and the seconds the chunk took inside the worker
    (the adaptive chunk sizing reads them: timing here excludes the time
    the chunk sat queued behind busy workers).  A raising task propagates.

    Workers (fork or spawn) resolve ``experiment`` through the registry:
    importing this module first executes the ``repro.experiments`` package
    ``__init__``, which imports every driver and thereby registers all
    specs.
    """
    started = time.monotonic()
    results = []
    for index, (experiment, params, seed) in enumerate(tasks):
        if on_start is not None:
            on_start(index)
        rows = get_experiment(experiment).run_point(dict(params), seed)
        results.append([rows] if isinstance(rows, dict) else list(rows))
    return worker_identity(), results, time.monotonic() - started


@dataclass(frozen=True)
class _AnnounceStart:
    """Picklable start hook: puts ``(slot, worker)`` on the reporter queue."""

    queue: object
    slots: Tuple[int, ...]

    def __call__(self, index: int) -> None:
        self.queue.put((self.slots[index], worker_identity()))


class _StartReporter:
    """Ships per-task start notifications out of worker processes.

    A :mod:`multiprocessing` manager queue is handed to every worker
    submission (manager proxies — unlike raw ``multiprocessing.Queue``
    objects — survive pickling into :class:`~concurrent.futures.
    ProcessPoolExecutor` submissions under any start method); a daemon
    thread in the parent drains it and invokes the callback with each
    started slot.  One proxy round trip per task start is cheap next to a
    simulation point, and the whole machinery is only built when a
    progress callback is attached.
    """

    def __init__(self, callback: Callable[[int, Optional[str]], None]):
        self._callback = callback
        self._manager = multiprocessing.Manager()
        self.queue = self._manager.Queue()
        self._thread = threading.Thread(
            target=self._drain, name="sweep-start-reporter", daemon=True)

    def __enter__(self) -> "_StartReporter":
        self._thread.start()
        return self

    def _drain(self) -> None:
        while True:
            token = self.queue.get()
            if token is None:
                return
            slot, worker = token  # workers put ``(slot, worker)`` pairs
            try:
                self._callback(slot, worker)
            except Exception:  # never let a callback kill the drain thread
                progress_logger.exception("start-progress callback failed")

    def __exit__(self, *exc_info) -> None:
        self.queue.put(None)
        self._thread.join(timeout=10)
        self._manager.shutdown()


# ---------------------------------------------------------------- backends

#: what a backend consumes: ``(result slot, task)`` pairs
PendingTasks = Sequence[Tuple[int, SweepTask]]
#: what a backend yields: ``(result slot, task, result rows, worker id)``
CompletedTask = Tuple[int, SweepTask, List[Dict], Optional[str]]


class ExecutionBackend:
    """Strategy that executes a sweep's pending tasks.

    Implementations must yield one ``(slot, task, rows, worker)`` tuple per
    pending task, **in the order the tasks were submitted** — the runner
    aggregates (and serialises cache writes) in yield order, which keeps
    sweep results byte-identical across backends.  ``worker`` names where
    the task ran (``host/pid``) and is display-only: it never reaches the
    cached rows or the aggregated result.

    The two registered backends are :class:`SerialBackend` and
    :class:`BatchingProcessBackend` (README ADR-010).  Both accept
    ``max_workers`` (ignored by the serial one), so :func:`make_backend`
    can instantiate either uniformly.
    """

    #: registry key used by :func:`make_backend` and the CLI ``--backend``
    name: ClassVar[str] = "?"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers
        #: when set (the runner wires it to its progress reporting), the
        #: backend announces each task as it *starts* executing — from a
        #: helper thread for the process pool — together with the
        #: executing worker's identity when known
        self.start_callback: Optional[
            Callable[["SweepTask", Optional[str]], None]] = None

    def execute(self, pending: PendingTasks) -> Iterator[CompletedTask]:
        raise NotImplementedError

    def _start_reporter(self, pending: PendingTasks
                        ) -> Optional[_StartReporter]:
        """A reporter translating started slots into task callbacks."""
        if self.start_callback is None:
            return None
        tasks_by_slot = {slot: task for slot, task in pending}
        callback = self.start_callback
        return _StartReporter(
            lambda slot, worker: callback(tasks_by_slot[slot], worker))


class SerialBackend(ExecutionBackend):
    """Run every task inline in the current process (no pool).

    The reference backend: zero spawn overhead, deterministic, debuggable —
    and what ``max_workers <= 1`` has always meant.
    """

    name = "serial"

    def execute(self, pending: PendingTasks) -> Iterator[CompletedTask]:
        for slot, task in pending:
            if self.start_callback is not None:
                self.start_callback(task, worker_identity())
            worker, (rows,), _ = execute_chunk(
                [(task.experiment, task.params, task.seed)])
            yield slot, task, rows, worker


class BatchingProcessBackend(ExecutionBackend):
    """Run the tasks in one process pool, a contiguous chunk per submission.

    Sweeps with many cheap points (analytic experiments, short simulated
    durations, large grids) spend a noticeable share of their wall clock on
    per-task executor round trips: pickling, queue wakeups and result
    marshalling.  Chunking amortises that cost.

    The chunk size is **adaptive**: the backend starts with single-task
    probe batches, keeps an EWMA of the observed per-task cost (batch wall
    time divided by batch size, measured as batches complete) and sizes
    every subsequent chunk to take about :attr:`TARGET_BATCH_SECONDS` —
    cheap tasks coalesce into large chunks, expensive tasks stay finely
    chunked for load balancing.  The sizing knobs are class constants;
    a test that needs another value patches the constant.

    Results are yielded strictly in task submission order, so sweep output
    stays byte-identical to the serial backend.

    Parameters
    ----------
    max_workers:
        Worker processes (``None`` means the CPU count; below one is
        rejected).
    """

    name = "batch"

    #: fixed tasks per chunk; ``None`` sizes chunks adaptively
    BATCH_SIZE: ClassVar[Optional[int]] = None
    #: chunks kept in flight per worker (load-balancing slack and the
    #: submission window)
    OVERSUBSCRIBE = 4
    #: wall-clock cost an adaptively sized chunk aims at
    TARGET_BATCH_SECONDS = 0.5
    #: upper bound on an adaptively sized chunk (keeps progress reporting
    #: and load balancing alive even for microsecond tasks)
    MAX_BATCH_SIZE = 64
    #: EWMA weight of the newest per-task cost observation
    COST_ALPHA = 0.4

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__(max_workers)
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"{self.name} backend: max_workers must be "
                             f">= 1, got {max_workers}")
        #: smoothed seconds per task, None until the first batch completes
        self._task_cost_ewma: Optional[float] = None

    def _observe_batch(self, batch_seconds: float, batch_size: int) -> None:
        """Fold one completed batch into the per-task cost EWMA."""
        per_task = batch_seconds / batch_size
        if self._task_cost_ewma is None:
            self._task_cost_ewma = per_task
        else:
            self._task_cost_ewma += self.COST_ALPHA * (
                per_task - self._task_cost_ewma)

    def _next_batch_size(self, remaining: int) -> int:
        """Chunk size of the next submission: the fixed :attr:`BATCH_SIZE`,
        or one sized from the observed per-task cost."""
        if self.BATCH_SIZE is not None:
            return min(self.BATCH_SIZE, remaining)
        if self._task_cost_ewma is None:
            # probe batches stay small until a cost estimate exists
            return 1
        if self._task_cost_ewma <= 0:
            return min(remaining, self.MAX_BATCH_SIZE)
        size = int(round(self.TARGET_BATCH_SECONDS / self._task_cost_ewma))
        return max(1, min(size, self.MAX_BATCH_SIZE, remaining))

    def execute(self, pending: PendingTasks) -> Iterator[CompletedTask]:
        if not pending:
            return
        workers = self.max_workers or os.cpu_count() or 1
        window = workers * self.OVERSUBSCRIBE
        next_index = 0
        inflight: List[Tuple[PendingTasks, object]] = []
        reporter = self._start_reporter(pending)
        with reporter or contextlib.nullcontext(), ProcessPoolExecutor(
                max_workers=workers) as pool:

            def submit_one() -> None:
                nonlocal next_index
                size = self._next_batch_size(len(pending) - next_index)
                batch = pending[next_index:next_index + size]
                next_index += size
                hook = None if reporter is None else _AnnounceStart(
                    reporter.queue, tuple(slot for slot, _ in batch))
                inflight.append((batch, pool.submit(
                    execute_chunk,
                    [(task.experiment, task.params, task.seed)
                     for _, task in batch],
                    hook)))

            while next_index < len(pending) and len(inflight) < window:
                submit_one()
            while inflight:
                batch, future = inflight.pop(0)
                worker, results, worker_seconds = future.result()
                self._observe_batch(worker_seconds, len(batch))
                while next_index < len(pending) and len(inflight) < window:
                    submit_one()
                for (slot, task), rows in zip(batch, results):
                    yield slot, task, rows, worker


#: backend name -> class, for the CLI and :func:`make_backend`
BACKENDS: Dict[str, type] = {
    backend.name: backend
    for backend in (SerialBackend, BatchingProcessBackend)
}


def make_backend(name: str,
                 max_workers: Optional[int] = None) -> ExecutionBackend:
    """Instantiate a backend by registry name (``serial`` or ``batch``)."""
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(
            f"unknown execution backend {name!r}; known: {known}") from None
    return backend_cls(max_workers=max_workers)


# ---------------------------------------------------------------- progress

#: progress event kinds: a task began executing / a task's rows are in
EVENT_START = "start"
EVENT_DONE = "done"


@dataclass(frozen=True)
class SweepProgress:
    """One progress event of a sweep, as seen by a progress callback.

    ``event`` is :data:`EVENT_DONE` when the task's rows arrived (the
    historical meaning) and :data:`EVENT_START` when a task began
    executing — the ``batch`` backend ships start events out of its
    workers over a lightweight queue, so long-running points tick when
    they *begin*, not only when they resolve.  Start events are reported
    from a helper thread; callbacks must be thread-safe (the standard
    :mod:`logging` handlers are).  Cache-served tasks resolve instantly
    and emit no start event.
    """

    experiment: str
    #: tasks finished so far, counting cache hits (for a start event: how
    #: many had finished when this task began)
    completed: int
    #: total tasks of the sweep
    total: int
    point_index: int
    replication: int
    params: Dict[str, object]
    #: wall-clock seconds since the sweep's execution started
    elapsed_seconds: float
    #: True when the task was served from the on-disk cache
    cached: bool = False
    #: :data:`EVENT_START` or :data:`EVENT_DONE`
    event: str = EVENT_DONE
    #: where the task ran — ``host/pid`` of the executing process;
    #: ``None`` for cache hits and backends that cannot attribute the task
    worker: Optional[str] = None


#: invoked once per progress event (task started / completed / cache-served)
ProgressCallback = Callable[[SweepProgress], None]

progress_logger = logging.getLogger("repro.experiments.progress")


def log_progress(progress: SweepProgress) -> None:
    """A ready-made progress callback that reports through :mod:`logging`.

    Attach it with ``SweepRunner(progress=log_progress)`` or the CLI's
    ``--progress`` flag; it logs to the ``repro.experiments.progress``
    logger at INFO level, one line per task start and one per completion.
    """
    where = f" on {progress.worker}" if progress.worker else ""
    if progress.event == EVENT_START:
        progress_logger.info(
            "%s: task started%s (point %d, replication %d; %d/%d done) "
            "after %.2fs",
            progress.experiment, where, progress.point_index,
            progress.replication, progress.completed, progress.total,
            progress.elapsed_seconds)
        return
    progress_logger.info(
        "%s: task %d/%d done (point %d, replication %d%s%s) after %.2fs",
        progress.experiment, progress.completed, progress.total,
        progress.point_index, progress.replication,
        ", cached" if progress.cached else "", where,
        progress.elapsed_seconds)


@dataclass
class SweepResult:
    """Aggregated outcome of one sweep run."""

    experiment: str
    master_seed: int
    replications: int
    confidence: float
    #: one entry per (point, row index): ``point`` holds the swept axis
    #: values, ``mean`` every metric's replication mean (non-numeric metrics
    #: pass through unchanged; nested dicts are flattened into
    #: ``outer_inner`` keys), ``ci95``-style bounds under ``ci``
    rows: List[Dict]
    tasks_total: int = 0
    tasks_run: int = 0
    cache_hits: int = 0
    #: name of the backend that executed the sweep (display only — the
    #: JSON rendering deliberately omits it so results stay byte-identical
    #: across backends)
    backend: str = SerialBackend.name
    #: True when the run was asked to resume an interrupted sweep
    resumed: bool = False
    #: address of the sweep's manifest in the result store (None when the
    #: store is disabled); the manifest records requested vs completed
    #: task digests, so an interrupted sweep's remainder is inspectable
    manifest_digest: Optional[str] = None

    def to_json(self) -> str:
        """Deterministic JSON rendering (byte-identical across runs)."""
        payload = {
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "replications": self.replications,
            "confidence": self.confidence,
            "rows": self.rows,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _is_metric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def flatten_row(row: Mapping[str, object], separator: str = "_"
                ) -> Dict[str, object]:
    """Flatten nested dict fields into ``outer_inner``-style keys.

    ``{"fixed": {"gs_slots": 9}}`` becomes ``{"fixed_gs_slots": 9}``, to
    arbitrary depth; non-dict values (including lists) are left untouched.
    A flattened name colliding with an existing key raises ``ValueError``
    rather than silently dropping a metric.
    """
    flat: Dict[str, object] = {}

    def _walk(mapping: Mapping[str, object], prefix: str) -> None:
        for key, value in mapping.items():
            name = f"{prefix}{key}"
            if isinstance(value, Mapping):
                _walk(value, name + separator)
            elif name in flat:
                raise ValueError(
                    f"flattening produced a duplicate key {name!r}")
            else:
                flat[name] = value

    _walk(row, "")
    return flat


def aggregate_replications(replication_rows: Sequence[List[Dict]],
                           confidence: float = 0.95) -> List[Dict]:
    """Merge the row lists of a point's replications into mean/CI rows.

    Replications of the same point must produce the same row structure (the
    seed only perturbs metric values).  Nested dict fields are recursively
    flattened into ``outer_inner`` keys first (e.g. ``bandwidth_savings``'s
    ``fixed``/``variable`` sub-dicts become ``fixed_gs_slots`` etc.), so
    *every* numeric metric — however deeply a driver nested it — is reduced
    through :func:`repro.analysis.stats.aggregate_mean_ci` into ``mean`` /
    ``ci_low`` / ``ci_high``.  Boolean verdicts that disagree across
    replications become the fraction of replications that reported ``True``
    (so a single bound violation can never hide behind the first
    replication), and every other field is taken from the first replication.
    """
    lengths = {len(rows) for rows in replication_rows}
    if len(lengths) > 1:
        raise ValueError(
            f"replications disagree on row count: {sorted(lengths)}")
    flattened = [[flatten_row(row) for row in rows]
                 for rows in replication_rows]
    merged: List[Dict] = []
    for row_group in zip(*flattened):
        first = row_group[0]
        mean_row: Dict[str, object] = {}
        ci_row: Dict[str, List[float]] = {}
        for key, value in first.items():
            if _is_metric(value):
                samples = [float(rep_row[key]) for rep_row in row_group]
                agg = aggregate_mean_ci(samples, confidence)
                if isinstance(value, int) and all(
                        s == samples[0] for s in samples):
                    # counts that every replication agrees on stay integers
                    mean_row[key] = value
                else:
                    mean_row[key] = agg["mean"]
                ci_row[key] = [agg["ci_low"], agg["ci_high"]]
            elif isinstance(value, bool):
                verdicts = [bool(rep_row[key]) for rep_row in row_group]
                if all(v == verdicts[0] for v in verdicts):
                    mean_row[key] = value
                else:
                    mean_row[key] = sum(verdicts) / len(verdicts)
            else:
                mean_row[key] = value
        merged.append({"mean": mean_row, "ci": ci_row})
    return merged


class SweepRunner:
    """Fan a registered experiment's sweep out over an execution backend.

    Parameters
    ----------
    max_workers:
        Worker processes; ``None`` means the CPU count, ``0``/``1`` runs
        every task inline (serial backend).  Only consulted when ``backend``
        does not name/carry one explicitly.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
    confidence:
        Confidence level of the aggregated intervals.
    backend:
        How tasks execute: an :class:`ExecutionBackend` instance, a backend
        name (``"serial"`` or ``"batch"`` — instantiated with
        ``max_workers``), or ``None`` to derive it from ``max_workers``
        (inline for ``<= 1``, the ``batch`` pool otherwise).
    progress:
        Optional callback invoked with a :class:`SweepProgress` once per
        task *start* (``event="start"``, shipped out of worker processes
        by the ``batch`` pool and delivered from a helper thread — the
        callback must be thread-safe) and once per completion
        (``event="done"``, also covering cache hits).  Callbacks that only
        care about completions should return early unless
        ``progress.event == "done"``; see :func:`log_progress` for a
        ready-made logging handler.
    """

    def __init__(self, max_workers: Optional[int] = 1,
                 cache_dir: Optional[str] = None,
                 confidence: float = 0.95,
                 backend: Union[ExecutionBackend, str, None] = None,
                 progress: Optional[ProgressCallback] = None):
        self.max_workers = max_workers
        self.cache = ResultStore(cache_dir) if cache_dir else None
        self.confidence = confidence
        self.backend = self._resolve_backend(backend, max_workers)
        self.progress = progress

    @staticmethod
    def _resolve_backend(backend: Union[ExecutionBackend, str, None],
                         max_workers: Optional[int]) -> ExecutionBackend:
        if isinstance(backend, ExecutionBackend):
            return backend
        if isinstance(backend, str):
            return make_backend(backend, max_workers)
        if backend is not None:
            raise TypeError(
                f"backend must be an ExecutionBackend, a name or None, "
                f"got {backend!r}")
        if max_workers is not None and max_workers <= 1:
            return SerialBackend()
        return BatchingProcessBackend(max_workers)

    # ------------------------------------------------------------- planning

    def tasks_for(self, spec: ExperimentSpec,
                  overrides: Optional[Mapping[str, object]] = None,
                  replications: Optional[int] = None,
                  master_seed: int = 0) -> List[SweepTask]:
        """The full task list of one sweep, in deterministic order."""
        replications = self._replication_count(spec, replications)
        tasks = []
        for index, params in enumerate(spec.points(overrides)):
            for rep in range(replications):
                tasks.append(SweepTask(
                    experiment=spec.name, point_index=index, replication=rep,
                    params=params,
                    seed=point_seed(master_seed, spec.name, params, rep)))
        return tasks

    @staticmethod
    def _replication_count(spec: ExperimentSpec,
                           replications: Optional[int]) -> int:
        count = spec.replications if replications is None else replications
        if count < 1:
            raise ValueError(f"replications must be >= 1, got {count}")
        # an analytic experiment's rows ignore the seed: replicating it
        # would only repeat identical work
        return 1 if not spec.stochastic else count

    # ------------------------------------------------------------ execution

    #: completed-task flush cadence of the sweep manifest (a killed sweep
    #: loses at most this many completion marks — the store still has the
    #: rows, so resume only re-reads, never re-executes them)
    MANIFEST_FLUSH_EVERY = 16

    def run(self, experiment: str,
            overrides: Optional[Mapping[str, object]] = None,
            replications: Optional[int] = None,
            master_seed: int = 0,
            resume: bool = False) -> SweepResult:
        """Run one sweep and return its aggregated result.

        With ``resume=True`` (CLI: ``run --resume``) the runner requires
        the result store, loads the sweep's manifest if one exists, and —
        because every task is content-addressed — re-executes *only* the
        points whose rows are missing from the store; the refreshed
        manifest and the result's ``cache_hits``/``tasks_run`` counters
        record exactly what was reused vs re-run.
        """
        spec = get_experiment(experiment)
        if resume and self.cache is None:
            raise ValueError(
                "resume requires the on-disk result store (cache_dir)")
        replication_count = self._replication_count(spec, replications)
        tasks = self.tasks_for(spec, overrides, replication_count,
                               master_seed)
        started = time.monotonic()
        completed = 0

        def report(task: SweepTask, cached: bool,
                   worker: Optional[str] = None) -> None:
            nonlocal completed
            completed += 1
            if self.progress is not None:
                self.progress(SweepProgress(
                    experiment=spec.name, completed=completed,
                    total=len(tasks), point_index=task.point_index,
                    replication=task.replication, params=dict(task.params),
                    elapsed_seconds=time.monotonic() - started,
                    cached=cached, worker=worker))

        def report_start(task: SweepTask, worker: Optional[str]) -> None:
            # called by the backend — possibly from its reporter thread —
            # the moment a worker picks the task up
            self.progress(SweepProgress(
                experiment=spec.name, completed=completed,
                total=len(tasks), point_index=task.point_index,
                replication=task.replication, params=dict(task.params),
                elapsed_seconds=time.monotonic() - started,
                event=EVENT_START, worker=worker))

        self.backend.start_callback = \
            report_start if self.progress is not None else None

        # the cache key carries the spec's result-schema version so bumping
        # it after a run_point change invalidates stale entries
        cache_name = f"{spec.name}@v{spec.version}"
        manifest = self._open_manifest(cache_name, tasks, master_seed,
                                       replication_count, resume)
        done_digests = set(manifest.completed) if manifest else set()
        results: Dict[int, List[Dict]] = {}
        pending: List[Tuple[int, SweepTask]] = []
        cache_hits = 0
        for slot, task in enumerate(tasks):
            cached = self.cache.get(cache_name, task.params,
                                    task.seed) if self.cache else None
            if cached is not None:
                results[slot] = cached
                cache_hits += 1
                if manifest is not None:
                    done_digests.add(manifest.task_digests[slot])
                report(task, cached=True)
            else:
                pending.append((slot, task))
        if manifest is not None:
            manifest.completed = sorted(done_digests)
            self.cache.save_manifest(manifest)

        since_flush = 0
        for slot, task, rows, worker in self.backend.execute(pending):
            if self.cache is not None:
                self.cache.put(cache_name, task.params, task.seed, rows)
            results[slot] = rows
            if manifest is not None:
                done_digests.add(manifest.task_digests[slot])
                since_flush += 1
                if since_flush >= self.MANIFEST_FLUSH_EVERY:
                    manifest.completed = sorted(done_digests)
                    self.cache.save_manifest(manifest)
                    since_flush = 0
            report(task, cached=False, worker=worker)

        if manifest is not None:
            manifest.completed = sorted(done_digests)
            manifest.status = "complete" if len(done_digests) == len(tasks) \
                else "running"
            self.cache.save_manifest(manifest)

        # aggregate per point, in point order
        aggregated: List[Dict] = []
        for index in range(0, len(tasks), replication_count):
            point_tasks = tasks[index:index + replication_count]
            replication_rows = [results[index + r]
                                for r in range(replication_count)]
            point = point_tasks[0].params
            for row in aggregate_replications(replication_rows,
                                              self.confidence):
                aggregated.append({"point": dict(point), **row})
        return SweepResult(
            experiment=experiment, master_seed=master_seed,
            replications=replication_count, confidence=self.confidence,
            rows=aggregated, tasks_total=len(tasks),
            tasks_run=len(pending), cache_hits=cache_hits,
            backend=self.backend.name, resumed=resume,
            manifest_digest=manifest.sweep_digest() if manifest else None)

    def _open_manifest(self, cache_name: str, tasks: Sequence[SweepTask],
                       master_seed: int, replication_count: int,
                       resume: bool) -> Optional[SweepManifest]:
        """The sweep's manifest (fresh or, when resuming, the saved one)."""
        if self.cache is None:
            return None
        digests = [entry_digest(cache_name, task.params, task.seed)
                   for task in tasks]
        manifest = SweepManifest(
            experiment=cache_name, master_seed=master_seed,
            replications=replication_count, task_digests=digests,
            backend=self.backend.name)
        if resume:
            existing = self.cache.load_manifest(manifest.sweep_digest())
            if existing is not None:
                # keep its completion marks; the store scan below re-proves
                # them (a mark without a store entry is simply re-executed)
                manifest = existing
                manifest.backend = self.backend.name
        manifest.status = "running"
        return manifest


#: how :func:`format_sweep` prints a float metric: four significant digits
#: keep sub-millisecond delays and small fractions distinguishable
METRIC_FORMAT = ".4g"


def format_sweep(result: SweepResult) -> str:
    """Render an aggregated sweep as a text table (mean ± CI half-width).

    The point columns come first and print their values exactly.  The
    metric columns follow in sorted order, so a sweep served from the
    result store (which keeps rows with sorted keys) renders the same
    bytes as a fresh one; nested driver metrics show up as flattened
    ``fixed_gs_slots``-style columns and floats print with
    :data:`METRIC_FORMAT`.  A metric named like a point key is the point
    column when it equals the point in every row; otherwise it gets its
    own ``<key> (result)`` column.
    """
    from repro.analysis.reporting import format_table

    if not result.rows:
        return (f"{result.experiment}: no rows (every point rejected or "
                "empty sweep)")
    point_keys: List[str] = []
    for row in result.rows:
        for key in row["point"]:
            if key not in point_keys:
                point_keys.append(key)
    clashing = {key for row in result.rows
                for key, value in row["mean"].items()
                if key in point_keys and value != row["point"].get(key)}
    metric_keys = sorted(({key for row in result.rows for key in row["mean"]}
                          - set(point_keys)) | clashing)

    def point_cell(value: object) -> object:
        return repr(value) if isinstance(value, float) else value

    def cell(row: Dict, key: str) -> object:
        value = row["mean"].get(key, "-")
        ci = row["ci"].get(key)
        if (ci is not None and result.replications > 1
                and isinstance(value, float)):
            half = (ci[1] - ci[0]) / 2.0
            return f"{value:{METRIC_FORMAT}} ± {half:{METRIC_FORMAT}}"
        return value

    table_rows = [[point_cell(row["point"].get(k, "-")) for k in point_keys]
                  + [cell(row, k) for k in metric_keys]
                  for row in result.rows]
    header = (f"{result.experiment} — {len(result.rows)} rows, "
              f"{result.replications} replication(s), master seed "
              f"{result.master_seed} (tasks: {result.tasks_total}, "
              f"run: {result.tasks_run}, cache hits: {result.cache_hits}, "
              f"backend: {result.backend})")
    metric_headers = [f"{key} (result)" if key in clashing else key
                      for key in metric_keys]
    return header + "\n\n" + format_table(point_keys + metric_headers,
                                          table_rows,
                                          float_format=METRIC_FORMAT)
