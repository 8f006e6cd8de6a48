"""Shared helper that persists benchmark results as ``BENCH_*.json``.

Every benchmark that wants its numbers to survive the run (so the perf
trajectory is recorded across PRs, not just printed to a terminal that
scrolls away) calls :func:`record` with a scenario name, a variant label
and the measured slots/wall pair.  Results merge read-modify-write into a
single JSON artifact per benchmark family at the repository root (override
the directory with ``REPRO_BENCH_DIR``), alongside a machine fingerprint
so numbers from different hosts are never compared as if they were one
series.

Artifact shape::

    {
      "benchmark": "master_loop",
      "machine": {"python": ..., "platform": ..., "cpu_count": ...},
      "scenarios": {
        "steady_state_poll": {
          "event_loop": {"slots": ..., "wall_seconds": ..., "slots_per_second": ...}
        }
      }
    }

A benchmark family that compares two variants of a scenario names them
(``reference_variant`` / ``fast_variant``), and ``speedup`` is (re)derived
whenever both are present.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

#: directory override for the artifact (default: the repository root)
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def machine_fingerprint() -> Dict[str, object]:
    """Coarse host description so artifacts from different machines are
    never read as one series."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def artifact_path(benchmark: str) -> Path:
    """Where the ``BENCH_<benchmark>.json`` artifact lives."""
    directory = os.environ.get(BENCH_DIR_ENV)
    root = Path(directory) if directory else Path(__file__).resolve().parents[1]
    return root / f"BENCH_{benchmark}.json"


def _load(path: Path, benchmark: str) -> Dict[str, object]:
    if path.exists():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(payload, dict) and payload.get("benchmark") == benchmark:
                return payload
        except ValueError:
            pass  # corrupt artifact: start over rather than crash the bench
    return {"benchmark": benchmark, "scenarios": {}}


def record(benchmark: str, scenario: str, variant: str,
           slots: int, wall_seconds: float,
           extra: Dict[str, object] = None,
           reference_variant: Optional[str] = None,
           fast_variant: Optional[str] = None) -> Dict[str, object]:
    """Merge one measurement into the benchmark's artifact and return it.

    The artifact always reflects the *latest* run of each
    (scenario, variant) pair on the current machine; the machine
    fingerprint is refreshed on every write.  ``extra`` attaches
    explanatory detail (e.g. the lookup counts behind a rate) to the
    variant entry; ``reference_variant``/``fast_variant`` name the pair
    the per-scenario ``speedup`` is derived from, if any.
    """
    path = artifact_path(benchmark)
    payload = _load(path, benchmark)
    payload["machine"] = machine_fingerprint()
    scenarios = payload.setdefault("scenarios", {})
    entry = scenarios.setdefault(scenario, {})
    rate = slots / wall_seconds if wall_seconds > 0 else float("inf")
    entry[variant] = {
        "slots": slots,
        "wall_seconds": round(wall_seconds, 6),
        "slots_per_second": round(rate),
    }
    if extra:
        entry[variant].update(extra)
    reference = entry.get(reference_variant) if reference_variant else None
    fast = entry.get(fast_variant) if fast_variant else None
    if reference and fast and reference["slots_per_second"]:
        entry["speedup"] = round(
            fast["slots_per_second"] / reference["slots_per_second"], 2)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return payload
