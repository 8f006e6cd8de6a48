"""Command-line front end of the sweep orchestrator.

Usage::

    python -m repro.experiments list
    python -m repro.experiments describe figure5
    python -m repro.experiments run figure5 --workers 4 --replications 3 \
        --json out.json
    python -m repro.experiments run figure5 --backend batch --workers 4 \
        --progress
    python -m repro.experiments run lossy_channel \
        --set bit_error_rate='[0.0,1e-3]' --set duration_seconds=2.0
    python -m repro.experiments run figure5 --set channel.ber=1e-4 \
        --set channel.model=iid
    python -m repro.experiments run figure5 --workers 4 --resume
    python -m repro.experiments analyze churn_recovery
    python -m repro.experiments regen-golden [EXPERIMENT ...]

``run`` caches raw task results under ``--cache-dir`` (default
``.repro-cache``), so repeated invocations only execute new
(experiment, params, seed) combinations.  ``--backend`` selects how tasks
execute: ``serial`` inline, or ``batch``, one process pool of
``--workers`` processes fed chunks of ``ceil(tasks / (4 × workers))``
tasks (the default for ``--workers`` above 1); ``--progress`` logs one
line per task start and completion to stderr.  ``--resume`` records a
sweep manifest and re-executes only the points missing from the result
store; ``analyze`` scans a sweep's rows through the
:mod:`repro.analysis.findings` rules.

``--set`` overrides a grid axis or a fixed parameter by flat key; a
*dotted* key (``channel.ber=1e-4``) addresses a field of the experiment's
declarative :class:`~repro.scenario.ScenarioSpec` — a scalar value pins it
on every point, a JSON list value becomes an additional swept axis.
``describe`` prints an experiment's grid, defaults and the resolved
scenario spec of its first point (after any ``--set`` overrides).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Dict, List, Optional

from repro.experiments.orchestrator import (
    BACKENDS,
    SweepRunner,
    format_sweep,
    log_progress,
    progress_logger,
)
from repro.experiments.registry import (
    experiment_names,
    get_experiment,
    iter_experiments,
)


def _parse_overrides(assignments: List[str]) -> Dict[str, object]:
    """Parse ``--set key=value`` pairs; values are JSON with string fallback.

    A value that *looks like* a JSON container (starts with ``[`` or ``{``,
    e.g. a grid-axis list) but fails to parse is a malformed override: it
    is rejected with a clear message instead of being passed through as a
    string, which would blow up deep inside ``run_point`` with a
    traceback.
    """
    overrides: Dict[str, object] = {}
    for assignment in assignments:
        key, separator, raw = assignment.partition("=")
        if not separator or not key:
            raise SystemExit(
                f"--set expects key=value, got {assignment!r}")
        try:
            overrides[key] = json.loads(raw)
        except ValueError:
            stripped = raw.strip()
            if not stripped:
                raise SystemExit(
                    f"--set {key}= is missing a value") from None
            if stripped[0] in "[{":
                raise SystemExit(
                    f"--set {key}={raw!r} is not valid JSON (malformed "
                    f"list/object override)") from None
            overrides[key] = raw
    return overrides


def _cmd_describe(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment)
    points = spec.points(_parse_overrides(args.set))
    # resolve the first point before printing anything, so a bad --set
    # fails with its one-line error instead of after half a description
    resolved = None
    if points and spec.scenario is not None:
        from repro.scenario import resolve_point_spec

        resolved = resolve_point_spec(points[0], spec.scenario)
    print(f"{spec.name}: {spec.description}")
    print(f"  replications: {spec.replications}   "
          f"stochastic: {spec.stochastic}   version: {spec.version}")
    # show the axes as resolved (--set may shrink/extend grid axes or add
    # dotted spec axes), not the registered grid
    axis_names = list(spec.grid) + [key for key in (points[0] if points
                                                    else {})
                                    if "." in key]
    print("  grid:")
    for axis in axis_names:
        values: List[object] = []
        for point in points:
            if axis in point and point[axis] not in values:
                values.append(point[axis])
        print(f"    {axis} = {json.dumps(values, default=str)}")
    print("  defaults:")
    for key, value in spec.defaults.items():
        print(f"    {key} = {json.dumps(value)}")
    print(f"  points: {len(points)}")
    if not points:
        print("  (an override emptied a grid axis — nothing to resolve)")
        return 0
    if resolved is None:
        print("  scenario: (none — analytic experiment)")
        return 0
    first = points[0]
    shown = {key: value for key, value in first.items()
             if key in spec.grid or "." in key}
    print(f"  scenario (resolved for the first point "
          f"{json.dumps(shown, default=str)}):")
    rendered = json.dumps(resolved.to_dict(), indent=2)
    for line in rendered.splitlines():
        print(f"    {line}")
    _print_link_budgets(resolved)
    _print_timeline(resolved)
    return 0


def _print_timeline(resolved) -> None:
    """The resolved timeline of a spec-backed experiment (if any)."""
    if not resolved.timeline:
        return
    print("  timeline:")
    for event in resolved.timeline.events:
        parts = [f"t={event.at_s:g}s", event.kind]
        if event.piconet is not None:
            parts.append(f"piconet={event.piconet}")
        if event.slave is not None:
            parts.append(f"slave={event.slave}")
        if event.bridge is not None:
            parts.append(f"bridge={event.bridge} share_a={event.share_a:g}")
        if event.flow is not None:
            parts.append(f"flow={event.flow.flow_id}")
        if event.flow_id is not None:
            parts.append(f"flow={event.flow_id}")
        if event.interferer is not None:
            parts.append(f"interferer-{event.interferer}")
        if event.kind == "flow-renegotiate":
            parts.append(f"tolerance={event.tolerance:g} "
                         f"min_obs={event.min_observations} "
                         f"retries={event.max_retries}@{event.backoff_s:g}s")
        print(f"    {'  '.join(parts)}")


def _print_link_budgets(resolved) -> None:
    """The resolved per-link budget table of a spec-backed experiment.

    Shown for oblivious scenarios too — the table is what budget-aware
    admission *would* see, which is exactly what an author flipping
    ``admission.mode`` via ``--set`` wants to preview.
    """
    from repro.scenario import describe_link_budgets

    rows = describe_link_budgets(resolved)
    if not rows:
        print("  link budgets: (no GS-managed flows)")
        return
    print("  link budgets (effective capacity per GS link):")
    header = (f"    {'piconet':<10} {'slave':>5} {'dir':<4} {'mode':<12} "
              f"{'loss':>8} {'retx':>6} {'residency':>9} {'absence':>10}")
    print(header)
    for row in rows:
        print(f"    {row['piconet']:<10} {row['slave']:>5} "
              f"{row['direction']:<4} {row['mode']:<12} "
              f"{row['loss_probability']:>8.4f} "
              f"{row['retransmission_factor']:>6.2f} "
              f"{row['residency']:>9.4f} "
              f"{row['absence_ms']:>7.2f} ms")


def _cmd_list() -> int:
    width = max((len(name) for name in experiment_names()), default=0)
    for spec in iter_experiments():
        axes = ", ".join(f"{axis}[{len(values)}]"
                         for axis, values in spec.grid.items())
        print(f"{spec.name.ljust(width)}  {spec.description}  (grid: {axes})")
    return 0


def _enable_progress_logging() -> None:
    """Route per-task progress lines to stderr (idempotent)."""
    if not progress_logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(asctime)s %(message)s"))
        progress_logger.addHandler(handler)
    progress_logger.setLevel(logging.INFO)


def _cmd_run(args: argparse.Namespace) -> int:
    progress = None
    if args.progress:
        _enable_progress_logging()
        progress = log_progress
    overrides = _parse_overrides(args.set)
    runner = SweepRunner(
        max_workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        backend=args.backend,
        progress=progress)
    result = runner.run(args.experiment,
                        overrides=overrides,
                        replications=args.replications,
                        master_seed=args.seed,
                        resume=getattr(args, "resume", False))
    if args.json:
        if args.json == "-":
            print(result.to_json())
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(result.to_json() + "\n")
    if args.json != "-":
        print(format_sweep(result))
        if result.resumed:
            print(f"(resumed: {result.cache_hits} of {result.tasks_total} "
                  f"task(s) already in the store)", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.findings import (analyze_payload, analyze_result,
                                         format_report)

    rules = args.rule or None
    if args.from_json:
        if args.from_json == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.from_json, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        report = analyze_payload(payload, rules)
    else:
        if not args.experiment:
            raise SystemExit(
                "analyze needs an experiment name (or --from-json PATH)")
        runner = SweepRunner(
            max_workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            backend=args.backend)
        result = runner.run(args.experiment,
                            overrides=_parse_overrides(args.set),
                            replications=args.replications,
                            master_seed=args.seed,
                            resume=not args.no_cache)
        report = analyze_result(result, rules)
    if args.json:
        print(report.to_json())
    else:
        print(format_report(report))
    return 2 if report.critical and args.strict else 0


def _cmd_regen_golden(args: argparse.Namespace) -> int:
    from repro.experiments.golden import regenerate

    for path in regenerate(args.experiments or None):
        print(f"wrote {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments as parallel, replicated "
                    "sweeps with mean/CI aggregation and result caching.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the registered experiments")

    describe_parser = commands.add_parser(
        "describe",
        help="show an experiment's grid, defaults and resolved scenario "
             "spec")
    describe_parser.add_argument("experiment",
                                 help="registered experiment name")
    describe_parser.add_argument("--set", action="append", default=[],
                                 metavar="KEY=VALUE",
                                 help="preview the spec under overrides "
                                      "(flat or dotted keys, repeatable)")

    # the sweep options ``run`` and ``analyze`` share
    sweep_options = argparse.ArgumentParser(add_help=False)
    sweep_options.add_argument("--workers", type=int, default=1,
                               help="pool processes of the batch backend "
                                    "(without --backend, 1 or less runs "
                                    "inline)")
    sweep_options.add_argument("--backend", choices=BACKENDS,
                               default=None,
                               help="execution backend (default: serial "
                                    "for --workers<=1, batch otherwise; "
                                    "batch runs fixed-size chunks of tasks "
                                    "in one process pool)")
    sweep_options.add_argument("--replications", type=int, default=None,
                               help="seed replications per sweep point")
    sweep_options.add_argument("--seed", type=int, default=0,
                               help="master seed for replication seeds")
    sweep_options.add_argument("--cache-dir", default=".repro-cache",
                               help="result store directory "
                                    "(default: %(default)s)")
    sweep_options.add_argument("--no-cache", action="store_true",
                               help="disable the on-disk result store")
    sweep_options.add_argument("--set", action="append", default=[],
                               metavar="KEY=VALUE",
                               help="override a grid axis or fixed "
                                    "parameter (value parsed as JSON, "
                                    "repeatable); a dotted key like "
                                    "channel.ber=1e-4 overrides the "
                                    "scenario spec — a JSON list value "
                                    "sweeps it as an extra axis")

    run_parser = commands.add_parser(
        "run", parents=[sweep_options], help="run one experiment's sweep")
    run_parser.add_argument("experiment", help="registered experiment name")
    run_parser.add_argument("--progress", action="store_true",
                            help="log per-task progress to stderr")
    run_parser.add_argument("--json", metavar="PATH",
                            help="write the aggregated result as JSON "
                                 "('-' for stdout)")
    run_parser.add_argument("--resume", action="store_true",
                            help="resume an interrupted sweep: record a "
                                 "manifest of requested vs completed "
                                 "points and re-execute only the points "
                                 "missing from the result store")

    analyze_parser = commands.add_parser(
        "analyze", parents=[sweep_options],
        help="run an experiment (store-backed) and scan its rows for "
             "anomalies: violated GS bounds, compliance cliffs, starved "
             "flows, zero goodput, CI blowups")
    analyze_parser.add_argument("experiment", nargs="?", default=None,
                                help="registered experiment name")
    analyze_parser.add_argument("--from-json", metavar="PATH",
                                help="analyze a saved `run --json` payload "
                                     "instead of running the sweep "
                                     "('-' for stdin)")
    analyze_parser.add_argument("--rule", action="append", default=[],
                                metavar="NAME",
                                help="run only this rule (repeatable; "
                                     "default: every rule)")
    analyze_parser.add_argument("--json", action="store_true",
                                help="emit the findings report as JSON")
    analyze_parser.add_argument("--strict", action="store_true",
                                help="exit 2 when any critical finding is "
                                     "flagged")

    regen_parser = commands.add_parser(
        "regen-golden",
        help="refresh the golden regression fixtures under tests/golden/")
    regen_parser.add_argument(
        "experiments", nargs="*",
        help="experiment names to refresh (default: all registered)")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    try:
        if args.command == "regen-golden":
            return _cmd_regen_golden(args)
        if args.command == "describe":
            return _cmd_describe(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_run(args)
    except (KeyError, TypeError, ValueError) as error:
        # registry misses (unknown experiment), bad parameter values and
        # type mismatches from overridden grids all end as a clean one-line
        # error instead of a traceback
        raise SystemExit(str(error.args[0]) if error.args else str(error))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly
        # with the conventional SIGPIPE status
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
