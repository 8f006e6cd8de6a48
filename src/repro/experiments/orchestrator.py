"""Parallel, replication-aware sweep execution for registered experiments.

The :class:`SweepRunner` turns an :class:`~repro.experiments.registry.
ExperimentSpec` into a list of (parameter point, seed replication) tasks,
executes them through :func:`execute_tasks` (inline, or in one process
pool, both through :func:`run_task`), aggregates the
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
import functools
import json
import logging
import math
import multiprocessing
import os
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

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


def run_task(task: SweepTask, queue=None) -> Tuple[str, List[Dict]]:
    """Run one task in this process: the one worker entry point.

    Both backends execute through it — inline (``serial``) and in pool
    processes (``batch``).  With a start ``queue`` (the pool's manager
    queue) it first puts ``(task, worker)`` there, so progress ticks when
    a long point *begins*.  Returns the worker identity and the task's
    rows; a raising task propagates.

    Workers (fork or spawn) resolve ``task.experiment`` through the
    registry: importing this module first executes the
    ``repro.experiments`` package ``__init__``, which imports every driver
    and thereby registers all specs.
    """
    worker = worker_identity()
    if queue is not None:
        queue.put((task, worker))
    rows = get_experiment(task.experiment).run_point(dict(task.params),
                                                     task.seed)
    return worker, [rows] if isinstance(rows, dict) else list(rows)


class _StartReporter:
    """Ships per-task start notifications out of worker processes.

    A :mod:`multiprocessing` manager queue is handed to the pool workers
    (manager proxies — unlike raw ``multiprocessing.Queue`` objects —
    survive pickling into :class:`~concurrent.futures.ProcessPoolExecutor`
    submissions under any start method); a daemon thread in the parent
    drains it and invokes the callback with each started task.  One proxy
    round trip per task start is cheap next to a simulation point, and the
    whole machinery is only built when a progress callback is attached.
    """

    def __init__(self, callback: Callable[[SweepTask, str], None]):
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
            try:
                self._callback(*token)  # workers put ``(task, worker)``
            except Exception:  # never let a callback kill the drain thread
                progress_logger.exception("start-progress callback failed")

    def __exit__(self, *exc_info) -> None:
        self.queue.put(None)
        self._thread.join(timeout=10)
        self._manager.shutdown()


#: the execution backends, by name: ``serial`` runs inline, ``batch`` in
#: one process pool (README ADR-014)
BACKENDS = ("batch", "serial")


def execute_tasks(pending: Sequence[Tuple[int, SweepTask]],
                  workers: Optional[int],
                  on_start: Optional[Callable[[SweepTask, str], None]] = None
                  ) -> Iterator[Tuple[int, SweepTask, str, List[Dict]]]:
    """Execute ``(slot, task)`` pairs; yield ``(slot, task, worker, rows)``.

    ``workers=None`` is the ``serial`` backend: every task runs inline.
    Otherwise (``batch``) the tasks run in one
    :class:`~concurrent.futures.ProcessPoolExecutor` of ``workers``
    processes through ``map`` with :meth:`multiprocessing.pool.Pool.map`'s
    chunk rule, ``ceil(tasks / (4 × workers))`` tasks per chunk.  Either
    way results come **in submission order** — the runner aggregates (and
    serialises store writes) in yield order, which keeps sweep results
    byte-identical across backends — and a raising task propagates its
    own error; ``map`` then cancels the chunks not yet started.
    ``on_start(task, worker)`` is called as each task begins (from a
    helper thread for the pool); ``worker`` (``host/pid``) is display-only.
    """
    if workers is None:
        for slot, task in pending:
            if on_start is not None:
                on_start(task, worker_identity())
            yield (slot, task, *run_task(task))
        return
    if not pending:
        return
    tasks = [task for _, task in pending]
    reporter = None if on_start is None else _StartReporter(on_start)
    with reporter or contextlib.nullcontext(), ProcessPoolExecutor(
            max_workers=workers) as pool:
        entry = run_task if reporter is None else functools.partial(
            run_task, queue=reporter.queue)
        results = pool.map(entry, tasks,
                           chunksize=math.ceil(len(tasks) / (4 * workers)))
        try:
            for (slot, task), (worker, rows) in zip(pending, results):
                yield slot, task, worker, rows
        finally:
            # a consumer that stops early leaves no queued chunk running
            pool.shutdown(cancel_futures=True)


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
    #: ``None`` for cache hits
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
    backend: str = "serial"
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
        Pool processes of the ``batch`` backend; ``None`` means the CPU
        count, below one is rejected.  The ``serial`` backend ignores it.
        Without an explicit ``backend``, ``0``/``1`` selects ``serial``.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
    confidence:
        Confidence level of the aggregated intervals.
    backend:
        How tasks execute: ``"serial"`` (inline), ``"batch"`` (one process
        pool of ``max_workers``), or ``None`` to derive it from
        ``max_workers`` (inline for ``<= 1``, the ``batch`` pool
        otherwise).
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
                 backend: Optional[str] = None,
                 progress: Optional[ProgressCallback] = None):
        self.max_workers = max_workers
        self.cache = ResultStore(cache_dir) if cache_dir else None
        self.confidence = confidence
        self.backend, self._workers = self._resolve_backend(backend,
                                                            max_workers)
        self.progress = progress

    @staticmethod
    def _resolve_backend(backend: Optional[str], max_workers: Optional[int]
                         ) -> Tuple[str, Optional[int]]:
        """The backend name and its pool size (``None``: run inline)."""
        if backend is None:
            inline = max_workers is not None and max_workers <= 1
            backend = "serial" if inline else "batch"
        if backend not in BACKENDS:
            raise ValueError(f"unknown execution backend {backend!r}; "
                             f"known: {', '.join(BACKENDS)}")
        if backend == "serial":
            return backend, None
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"batch backend: max_workers must be >= 1, "
                             f"got {max_workers}")
        return backend, max_workers or os.cpu_count() or 1

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

        def progress_event(task: SweepTask, **fields) -> SweepProgress:
            return SweepProgress(
                experiment=spec.name, completed=completed, total=len(tasks),
                point_index=task.point_index, replication=task.replication,
                params=dict(task.params),
                elapsed_seconds=time.monotonic() - started, **fields)

        def report(task: SweepTask, cached: bool,
                   worker: Optional[str] = None) -> None:
            nonlocal completed
            completed += 1
            if self.progress is not None:
                self.progress(progress_event(task, cached=cached,
                                             worker=worker))

        def report_start(task: SweepTask, worker: str) -> None:
            # called — from the pool's reporter thread on ``batch`` — the
            # moment a worker picks the task up
            self.progress(progress_event(task, event=EVENT_START,
                                         worker=worker))

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
        for slot, task, worker, rows in execute_tasks(
                pending, self._workers,
                report_start if self.progress is not None else None):
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
            backend=self.backend, resumed=resume,
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
            backend=self.backend)
        if resume:
            existing = self.cache.load_manifest(manifest.sweep_digest())
            if existing is not None:
                # keep its completion marks; the store scan below re-proves
                # them (a mark without a store entry is simply re-executed)
                manifest = existing
                manifest.backend = self.backend
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
