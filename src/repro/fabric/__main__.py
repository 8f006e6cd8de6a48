"""Command-line front end of the sweep result store.

Usage::

    # inspect / clean the content-addressed result store
    python -m repro.fabric stats [--store DIR]
    python -m repro.fabric gc [--store DIR] [--dry-run]

``gc`` removes quarantined ``*.corrupt`` entries, leftover ``*.tmp``
files, orphans (entries whose address no longer matches their content) and
entries recorded under a result-schema version older than the registered
experiment's current one.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

#: default store directory — the same default the experiments CLI caches to
DEFAULT_STORE = ".repro-cache"


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.fabric.store import ResultStore

    stats = ResultStore(args.store).stats()
    print(f"store {args.store}: {stats.entries} entries, "
          f"{stats.bytes} bytes, {stats.corrupt} corrupt, "
          f"{stats.orphans} orphan(s)")
    for label in sorted(stats.experiments):
        per = stats.experiments[label]
        print(f"  {label:<40} {per['entries']:>6} entries "
              f"{per['bytes']:>10} bytes")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    from repro.fabric.store import ResultStore

    # the registry's current result-schema versions decide which
    # ``experiment@vN`` directories are stale
    from repro.experiments.registry import iter_experiments

    keep = {spec.name: spec.version for spec in iter_experiments()}
    removed = ResultStore(args.store).gc(keep_versions=keep,
                                         dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"gc {args.store}: {verb} {len(removed)} file(s)")
    for path in removed:
        print(f"  {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric",
        description="Inspect and clean the sweep result store.")
    commands = parser.add_subparsers(dest="command", required=True)

    stats_parser = commands.add_parser(
        "stats", help="summarise the result store")
    stats_parser.add_argument("--store", default=DEFAULT_STORE,
                              help="store directory (default: %(default)s)")

    gc_parser = commands.add_parser(
        "gc", help="remove corrupt, orphaned and stale-version entries")
    gc_parser.add_argument("--store", default=DEFAULT_STORE,
                           help="store directory (default: %(default)s)")
    gc_parser.add_argument("--dry-run", action="store_true",
                           help="report what would be removed, remove "
                                "nothing")

    args = parser.parse_args(argv)
    try:
        if args.command == "stats":
            return _cmd_stats(args)
        return _cmd_gc(args)
    except (ValueError, OSError) as error:
        raise SystemExit(str(error.args[0]) if error.args else str(error))


if __name__ == "__main__":
    sys.exit(main())
