"""``RemoteBackend``: run sweep tasks on fabric workers over sockets.

This is the :class:`~repro.experiments.orchestrator.ExecutionBackend` that
turns the sweep orchestrator distributed: it starts (or is handed) a
:class:`~repro.fabric.coordinator.Coordinator`, by default spawns
``max_workers`` local worker subprocesses (``python -m repro.fabric
worker``), ships the pending tasks as fixed-size chunks, and yields results
in submission order — so rows, aggregation and the JSON rendering are
byte-identical to the ``serial`` backend.  External workers on other hosts
can join the same coordinator port at any time (pass ``port`` explicitly
and point them at it with ``--connect``); spawned and joined workers are
interchangeable assignment targets.

Failure handling is the coordinator's: per-task timeouts, heartbeat-based
death detection, chunk stealing from dead workers and bounded
exponential-backoff retry.  A sweep survives any worker loss as long as at
least one worker remains (or re-joins within ``worker_wait_timeout``).

Importing this module registers ``"remote"`` in the orchestrator's
``BACKENDS``; :func:`repro.experiments.orchestrator.make_backend` imports
it on demand when asked for that name.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Dict, Iterator, List, Optional

import repro
from repro.experiments.orchestrator import (BACKENDS, CompletedTask,
                                            ExecutionBackend, PendingTasks,
                                            check_max_workers)
from repro.fabric.coordinator import Coordinator

#: default number of spawned local workers when ``max_workers`` is unset
DEFAULT_WORKERS = 2

#: upper bound on the derived chunk size (keeps stealing granular)
MAX_CHUNK_SIZE = 32


def _worker_command(host: str, port: int, name: str) -> List[str]:
    return [sys.executable, "-m", "repro.fabric", "worker",
            "--connect", f"{host}:{port}", "--name", name]


def _worker_environment() -> Dict[str, str]:
    """The subprocess environment, with ``repro`` importable for sure."""
    env = os.environ.copy()
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing \
        else os.pathsep.join([src, existing])
    return env


class RemoteBackend(ExecutionBackend):
    """Ship chunks of tasks to fabric workers over the socket protocol.

    Parameters
    ----------
    max_workers:
        Local worker subprocesses to spawn (default
        :data:`DEFAULT_WORKERS`; below one is rejected);
        ``spawn_workers=0`` spawns none and relies entirely on externally
        started workers.
    chunk_size:
        Tasks per dispatched chunk; default derives
        ``ceil(pending / (workers * 4))`` capped at
        :data:`MAX_CHUNK_SIZE` — several chunks per worker, so stealing
        and load balancing stay effective.
    per_task_timeout / heartbeat_timeout / max_retries / backoff_base /
    worker_wait_timeout:
        Forwarded to the :class:`~repro.fabric.coordinator.Coordinator`.
    port:
        Coordinator bind port (default ``0`` = ephemeral).  Pin it when
        external workers should join the sweep.
    coordinator:
        A pre-started coordinator to use instead of creating one (the
        fabric tests drive failure scenarios this way).  The caller keeps
        ownership: it is not shut down after the sweep.
    """

    name = "remote"

    def __init__(self, max_workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 per_task_timeout: float = 60.0,
                 heartbeat_timeout: float = 5.0,
                 max_retries: int = 3,
                 backoff_base: float = 0.05,
                 worker_wait_timeout: float = 30.0,
                 port: int = 0,
                 spawn_workers: Optional[int] = None,
                 coordinator: Optional[Coordinator] = None):
        super().__init__(max_workers)
        check_max_workers(self.name, max_workers)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.per_task_timeout = per_task_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.worker_wait_timeout = worker_wait_timeout
        self.port = port
        self.spawn_workers = spawn_workers if spawn_workers is not None \
            else (max_workers or DEFAULT_WORKERS)
        self._external_coordinator = coordinator
        #: stats of the last sweep's coordinator (steals, retries, churn)
        self.last_stats: Dict[str, int] = {}

    # ------------------------------------------------------------- plumbing

    def _derived_chunk_size(self, pending_count: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        workers = max(1, self.spawn_workers or 1)
        derived = -(-pending_count // (workers * 4))  # ceil division
        return max(1, min(derived, MAX_CHUNK_SIZE))

    def execute(self, pending: PendingTasks) -> Iterator[CompletedTask]:
        if not pending:
            return
        owns = self._external_coordinator is None
        coordinator = self._external_coordinator or Coordinator(
            port=self.port,
            heartbeat_timeout=self.heartbeat_timeout,
            per_task_timeout=self.per_task_timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            worker_wait_timeout=self.worker_wait_timeout).start()
        processes: List[subprocess.Popen] = []
        try:
            host, port = coordinator.address
            for index in range(self.spawn_workers if owns else 0):
                processes.append(subprocess.Popen(
                    _worker_command(host, port, f"w{index + 1}"),
                    env=_worker_environment(),
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
            if processes:
                coordinator.wait_for_workers(1)
            triples = [(task.experiment, task.params, task.seed)
                       for _, task in pending]
            start_callback = self._wire_start_callback(pending)
            chunk_iter = coordinator.run_chunks(
                triples, self._derived_chunk_size(len(pending)),
                start_callback)
            for start_index, results, worker_name in chunk_iter:
                for offset, rows in enumerate(results):
                    slot, task = pending[start_index + offset]
                    yield slot, task, rows, worker_name
        finally:
            self.last_stats = dict(coordinator.stats)
            if owns:
                coordinator.shutdown()
            for process in processes:
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=5)

    def _wire_start_callback(self, pending: PendingTasks):
        if self.start_callback is None:
            return None
        callback = self.start_callback

        def on_start(task_index: int, worker_name: str) -> None:
            _, task = pending[task_index]
            callback(task, worker_name)

        return on_start


BACKENDS[RemoteBackend.name] = RemoteBackend
