#!/usr/bin/env python
"""Diff two ``BENCH_*.json`` artifacts and flag perf regressions.

The benchmark harness (``benchmarks/record.py``) merges every run into one
artifact per benchmark family, so the committed artifact is the perf
baseline of the current tree.  This tool compares two such artifacts —
typically the checked-in baseline against a fresh local run — and prints a
per-(scenario, variant) table of slots/sec deltas::

    PYTHONPATH=src python tools/bench_diff.py BENCH_master_loop.json /tmp/BENCH_master_loop.json
    python tools/bench_diff.py --threshold 0.15 old.json new.json

A variant counts as a *regression* when its new ``slots_per_second`` falls
more than ``--threshold`` (default 10%) below the old one; any regression
makes the exit status 1, so the tool slots into CI as a gate.  Scenarios
or variants present on only one side are reported but never gate (new
benchmarks appear, retired ones disappear).  A machine-fingerprint
mismatch prints a warning — numbers from different hosts are not one
series — and can be escalated to an error with ``--require-same-machine``.

To check a single scenario, regenerate the artifact into a scratch dir
and diff it against the baseline — e.g. the dynamic-topology scenario
recorded by ``test_bench_churn_recovery_timeline``::

    REPRO_BENCH_DIR=/tmp PYTHONPATH=src python -m pytest \\
        benchmarks/test_bench_master_loop.py::test_bench_churn_recovery_timeline
    python tools/bench_diff.py BENCH_master_loop.json /tmp/BENCH_master_loop.json

Only the freshly recorded ``churn_recovery_timeline`` row appears on the
new side; the others print as one-sided and never gate.  Detail a
benchmark attaches to a variant entry (e.g. the interference lookups
behind a rate) rides along in the artifact but is not diffed here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: per-variant keys that are measurements (everything else is metadata)
RATE_KEY = "slots_per_second"


def load_artifact(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"bench_diff: no such artifact: {path}")
    except ValueError as exc:
        raise SystemExit(f"bench_diff: {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict) or "scenarios" not in payload:
        raise SystemExit(
            f"bench_diff: {path} is not a BENCH artifact "
            f"(missing 'scenarios')")
    return payload


def variant_rates(scenario_entry: dict) -> dict:
    """``variant -> slots_per_second`` of one scenario entry."""
    return {variant: value[RATE_KEY]
            for variant, value in scenario_entry.items()
            if isinstance(value, dict) and RATE_KEY in value}


def diff_artifacts(old: dict, new: dict, threshold: float) -> dict:
    """Compare artifacts; returns ``{"rows": [...], "regressions": [...]}``.

    Each row: ``(scenario, variant, old_rate, new_rate, delta_fraction)``
    with ``None`` standing in for a side that lacks the variant.
    """
    rows = []
    regressions = []
    scenarios = sorted(set(old.get("scenarios", {}))
                       | set(new.get("scenarios", {})))
    for scenario in scenarios:
        old_rates = variant_rates(old.get("scenarios", {}).get(scenario, {}))
        new_rates = variant_rates(new.get("scenarios", {}).get(scenario, {}))
        for variant in sorted(set(old_rates) | set(new_rates)):
            before = old_rates.get(variant)
            after = new_rates.get(variant)
            delta = None
            if before and after:
                delta = after / before - 1.0
                if delta < -threshold:
                    regressions.append((scenario, variant, delta))
            rows.append((scenario, variant, before, after, delta))
    return {"rows": rows, "regressions": regressions}


def format_table(result: dict, threshold: float) -> str:
    lines = [f"{'scenario':<32} {'variant':<18} {'old':>12} {'new':>12} "
             f"{'delta':>8}"]
    for scenario, variant, before, after, delta in result["rows"]:
        old_text = f"{before:,}" if before is not None else "-"
        new_text = f"{after:,}" if after is not None else "-"
        if delta is None:
            delta_text = "n/a"
        else:
            delta_text = f"{delta:+.1%}"
            if delta < -threshold:
                delta_text += " !"
        lines.append(f"{scenario:<32} {variant:<18} {old_text:>12} "
                     f"{new_text:>12} {delta_text:>8}")
    if result["regressions"]:
        worst = min(delta for _, _, delta in result["regressions"])
        lines.append(
            f"REGRESSION: {len(result['regressions'])} variant(s) dropped "
            f"more than {threshold:.0%} (worst {worst:+.1%})")
    else:
        lines.append(f"no regressions beyond {threshold:.0%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json artifacts (slots/sec per "
                    "scenario and variant); exit 1 on regressions")
    parser.add_argument("old", type=Path, help="baseline artifact")
    parser.add_argument("new", type=Path, help="candidate artifact")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="regression threshold as a fraction "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--require-same-machine", action="store_true",
                        help="fail (exit 2) when the machine fingerprints "
                             "differ instead of only warning")
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be >= 0")

    old = load_artifact(args.old)
    new = load_artifact(args.new)
    if old.get("benchmark") != new.get("benchmark"):
        print(f"bench_diff: warning: comparing different benchmark "
              f"families ({old.get('benchmark')!r} vs "
              f"{new.get('benchmark')!r})", file=sys.stderr)
    if old.get("machine") != new.get("machine"):
        message = ("machine fingerprints differ; the numbers are not one "
                   "series")
        if args.require_same_machine:
            print(f"bench_diff: error: {message}", file=sys.stderr)
            return 2
        print(f"bench_diff: warning: {message}", file=sys.stderr)

    result = diff_artifacts(old, new, args.threshold)
    print(format_table(result, args.threshold))
    return 1 if result["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
