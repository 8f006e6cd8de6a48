"""Sweep result store: content-addressed task results and sweep manifests.

:mod:`repro.fabric.store` holds the :class:`~repro.fabric.store.ResultStore`
the sweep orchestrator (:mod:`repro.experiments.orchestrator`) caches raw
task results in, keyed by the ``(experiment@version, canonical_params,
seed)`` scheme (atomic writes, corruption quarantine, ``gc``/``stats``),
and the :class:`~repro.fabric.store.SweepManifest` that makes interrupted
sweeps resumable (``run --resume``).  ``python -m repro.fabric stats|gc``
inspects and cleans a store.  The findings pass that scans completed rows
lives in :mod:`repro.analysis.findings`.

Sweeps execute on one host (README ADR-014): the ``serial`` backend or one
process pool (``batch``).  The store module is stdlib-only, so
the orchestrator builds on it without an import cycle.
"""

from repro.fabric.store import (  # noqa: F401
    ResultStore,
    StoreStats,
    SweepManifest,
    canonical_params,
)

__all__ = [
    "ResultStore",
    "StoreStats",
    "SweepManifest",
    "canonical_params",
]
