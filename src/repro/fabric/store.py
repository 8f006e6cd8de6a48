"""Content-addressed on-disk store of raw sweep task results.

Every sweep task is identified by ``(experiment@version, canonical_params,
seed)``; the sha256 of that triple is the entry's address, so the store is
content-addressed by *task identity*: any parameter, seed or result-schema
change misses cleanly, and two hosts running the same sweep write the same
entry names.  One JSON file per entry lives under
``directory/<experiment@version>/<sha256>.json``, the layout the
orchestrator's on-disk cache has always used, so existing caches keep
working.

Guarantees:

* **Atomic writes** — entries are written to a ``.tmp`` sibling and
  ``os.replace``d into place, so readers (including concurrent sweeps on a
  shared filesystem) never observe a half-written entry.
* **Corruption quarantine** — a truncated or otherwise unparseable entry is
  renamed to ``<name>.corrupt`` on first read and treated as a miss, so the
  task is recomputed instead of the sweep crashing or silently re-reading
  garbage forever.  ``gc`` removes quarantined files.
* **Inspection** — :meth:`ResultStore.stats` reports per-experiment entry
  counts and bytes plus corrupt/orphan files; :meth:`ResultStore.gc`
  removes quarantined files, leftover temporaries, orphans (entries whose
  address no longer matches their content) and — given the registry's
  current versions — entries of stale result-schema versions.  Both are
  exposed on the CLI as ``python -m repro.fabric stats|gc``.

The module also holds :class:`SweepManifest`: a per-sweep record of the
requested task addresses that makes interrupted sweeps resumable — the
runner writes it when a sweep starts, flushes completion progress while it
runs, and marks it complete at the end, so ``run --resume`` can assert
exactly which points were re-executed (see
:meth:`repro.experiments.orchestrator.SweepRunner.run`).

This module must stay import-light (stdlib only): the orchestrator imports
it, and the rest of the fabric imports the orchestrator.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

#: subdirectory (next to the experiment entry dirs) holding sweep manifests
MANIFEST_DIR = "_manifests"

#: suffix a corrupt entry is renamed to when quarantined
CORRUPT_SUFFIX = ".corrupt"


def canonical_params(params: Mapping[str, object]) -> str:
    """A canonical JSON rendering of a parameter dict (sorted, compact)."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"),
                      default=str)


def entry_digest(experiment: str, params: Mapping[str, object],
                 seed: int) -> str:
    """The content address of one task's entry (hex sha256)."""
    key = f"{experiment}|{canonical_params(params)}|{seed}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """What :meth:`ResultStore.stats` reports (the doctor's store view)."""

    #: per-experiment-label ``{"entries": int, "bytes": int}``
    experiments: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: total well-addressed entries
    entries: int = 0
    #: total bytes of those entries
    bytes: int = 0
    #: quarantined ``*.corrupt`` files awaiting ``gc``
    corrupt: int = 0
    #: entries whose address does not match their content, plus leftover
    #: ``*.tmp`` files from interrupted writes
    orphans: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"entries": self.entries, "bytes": self.bytes,
                "corrupt": self.corrupt, "orphans": self.orphans,
                "experiments": self.experiments}


class ResultStore:
    """Content-addressed store of raw task results (rows) on disk."""

    def __init__(self, directory: str):
        self.directory = directory
        #: reads served from disk since construction
        self.hits = 0
        #: reads that missed (no entry, foreign shape, or quarantined)
        self.misses = 0
        #: corrupt entries quarantined by this instance
        self.quarantined = 0

    # ------------------------------------------------------------ addressing

    def _path(self, experiment: str, params: Mapping[str, object],
              seed: int) -> str:
        return os.path.join(self.directory, experiment,
                            entry_digest(experiment, params, seed) + ".json")

    # ------------------------------------------------------------- get / put

    def get(self, experiment: str, params: Mapping[str, object],
            seed: int) -> Optional[List[Dict]]:
        """The stored rows of one task, or ``None`` on a miss.

        A truncated / unparseable entry is quarantined (renamed
        ``*.corrupt``) and reported as a miss, so the caller recomputes the
        task; a well-formed file of a foreign shape (e.g. an older format)
        is left in place and is simply a miss.
        """
        path = self._path(experiment, params, seed)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            self.misses += 1
            return None
        rows = payload.get("rows") if isinstance(payload, dict) else None
        if isinstance(rows, list):
            self.hits += 1
            return rows
        self.misses += 1
        return None

    def put(self, experiment: str, params: Mapping[str, object], seed: int,
            rows: List[Dict]) -> str:
        """Store one task's rows atomically; returns the entry path."""
        path = self._path(experiment, params, seed)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {"experiment": experiment, "params": dict(params),
                   "seed": seed, "rows": rows}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
        return path

    def contains(self, experiment: str, params: Mapping[str, object],
                 seed: int) -> bool:
        """Whether the entry exists on disk (without reading it)."""
        return os.path.exists(self._path(experiment, params, seed))

    def _quarantine(self, path: str) -> None:
        """Rename a corrupt entry out of the address space."""
        try:
            os.replace(path, path + CORRUPT_SUFFIX)
            self.quarantined += 1
        except OSError:
            pass  # a concurrent reader beat us to it (or the file vanished)

    # ------------------------------------------------------------ inspection

    def _experiment_dirs(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return []
        return [name for name in names
                if name != MANIFEST_DIR
                and os.path.isdir(os.path.join(self.directory, name))]

    @staticmethod
    def _entry_is_orphan(label: str, path: str) -> bool:
        """True when the entry's address no longer matches its content."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            expected = entry_digest(payload["experiment"], payload["params"],
                                    payload["seed"])
        except (OSError, ValueError, KeyError, TypeError):
            return True  # unreadable content *is* detached from its address
        name = os.path.basename(path)
        return (name != expected + ".json"
                or payload["experiment"] != label)

    def stats(self, check_orphans: bool = True) -> StoreStats:
        """Entry counts, bytes, corrupt and orphan files across the store."""
        stats = StoreStats()
        for label in self._experiment_dirs():
            folder = os.path.join(self.directory, label)
            per = {"entries": 0, "bytes": 0}
            for name in sorted(os.listdir(folder)):
                path = os.path.join(folder, name)
                if name.endswith(CORRUPT_SUFFIX):
                    stats.corrupt += 1
                elif name.endswith(".tmp"):
                    stats.orphans += 1
                elif name.endswith(".json"):
                    per["entries"] += 1
                    per["bytes"] += os.path.getsize(path)
                    if check_orphans and self._entry_is_orphan(label, path):
                        stats.orphans += 1
            stats.experiments[label] = per
            stats.entries += per["entries"]
            stats.bytes += per["bytes"]
        return stats

    def gc(self, keep_versions: Optional[Mapping[str, int]] = None,
           dry_run: bool = False) -> List[str]:
        """Remove quarantined, temporary, orphaned and stale-version files.

        ``keep_versions`` maps experiment names to their *current*
        result-schema version (the registry's view); entry directories of
        the same experiment at any other version are stale and removed
        wholesale.  Labels that do not parse as ``name@vN`` or name an
        unknown experiment are left alone — they may belong to a registry
        this process has not imported.  Returns the removed paths
        (``dry_run`` only reports them).
        """
        removed: List[str] = []

        def drop(path: str) -> None:
            removed.append(path)
            if not dry_run:
                try:
                    os.remove(path)
                except OSError:
                    pass

        for label in self._experiment_dirs():
            folder = os.path.join(self.directory, label)
            stale = _is_stale_version(label, keep_versions)
            for name in sorted(os.listdir(folder)):
                path = os.path.join(folder, name)
                if name.endswith((CORRUPT_SUFFIX, ".tmp")):
                    drop(path)
                elif name.endswith(".json") and (
                        stale or self._entry_is_orphan(label, path)):
                    drop(path)
            if not dry_run:
                try:
                    os.rmdir(folder)  # only succeeds when emptied
                except OSError:
                    pass
        return removed

    def verify_roundtrip(self) -> bool:
        """Write, re-read and delete a probe entry (the doctor's check)."""
        experiment = "_doctor_probe@v0"
        params = {"probe": True}
        rows = [{"value": 1.25, "label": "probe"}]
        path = self.put(experiment, params, 0, rows)
        try:
            return self.get(experiment, params, 0) == rows
        finally:
            try:
                os.remove(path)
                os.rmdir(os.path.dirname(path))
            except OSError:
                pass

    # ------------------------------------------------------------- manifests

    def manifest_path(self, sweep_digest: str) -> str:
        return os.path.join(self.directory, MANIFEST_DIR,
                            sweep_digest + ".json")

    def save_manifest(self, manifest: "SweepManifest") -> str:
        path = self.manifest_path(manifest.sweep_digest())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest.to_dict(), handle, sort_keys=True, indent=1)
        os.replace(tmp, path)
        return path

    def load_manifest(self, sweep_digest: str) -> Optional["SweepManifest"]:
        path = self.manifest_path(sweep_digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return SweepManifest.from_dict(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError):
            return None


def _is_stale_version(label: str,
                      keep_versions: Optional[Mapping[str, int]]) -> bool:
    """Whether ``name@vN`` names a known experiment at an old version."""
    if not keep_versions or "@v" not in label:
        return False
    name, _, version = label.rpartition("@v")
    if name not in keep_versions:
        return False
    try:
        return int(version) != int(keep_versions[name])
    except ValueError:
        return False


@dataclass
class SweepManifest:
    """Requested-vs-completed accounting of one sweep run.

    The sweep is identified by its *task addresses* — the content digests
    of every ``(experiment@version, params, seed)`` task, in task order —
    so the same experiment at a different seed, grid or replication count
    is a different manifest.  ``status`` is ``"running"`` while the sweep
    executes (a killed sweep leaves it that way) and ``"complete"`` once
    every task's rows are in the store.
    """

    experiment: str          #: the versioned label, e.g. ``figure5@v2``
    master_seed: int
    replications: int
    task_digests: List[str]  #: every requested task address, in task order
    completed: List[str] = field(default_factory=list)
    status: str = "running"
    backend: str = "serial"

    def sweep_digest(self) -> str:
        """The manifest's own address (stable across resumed runs)."""
        key = "|".join([self.experiment, str(self.master_seed),
                        str(self.replications)] + self.task_digests)
        return hashlib.sha256(key.encode("utf-8")).hexdigest()

    @property
    def requested(self) -> int:
        return len(self.task_digests)

    def missing(self) -> List[str]:
        done = set(self.completed)
        return [digest for digest in self.task_digests
                if digest not in done]

    def to_dict(self) -> Dict[str, object]:
        return {"experiment": self.experiment,
                "master_seed": self.master_seed,
                "replications": self.replications,
                "requested": self.requested,
                "task_digests": list(self.task_digests),
                "completed": sorted(self.completed),
                "status": self.status,
                "backend": self.backend}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SweepManifest":
        return cls(experiment=payload["experiment"],
                   master_seed=payload["master_seed"],
                   replications=payload["replications"],
                   task_digests=list(payload["task_digests"]),
                   completed=list(payload.get("completed", [])),
                   status=str(payload.get("status", "running")),
                   backend=str(payload.get("backend", "serial")))

