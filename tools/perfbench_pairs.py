#!/usr/bin/env python
"""Time two checkouts against each other with alternating perfbench runs.

    python tools/perfbench_pairs.py PARENT CHANGE --workload W [W ...] \\
        --pairs N --seconds S [--seed K] [--trace]

``PARENT`` and ``CHANGE`` are two checkouts of this repository (for
example a ``git clone`` of the parent commit and the working tree).  Both
trees are byte-compiled first: with ``PYTHONDONTWRITEBYTECODE`` set, an
uncompiled tree pays its compile in every fresh interpreter and reads
as much slower ``setup_s``.  Then, workload by workload, each pair runs
``perfbench/run.py --trace 0`` once in each checkout, swapping which
side goes first from one pair to the next so slow drifts in host speed
hit both sides alike.

For every end-to-end metric in ``CHANGE``'s ``BENCHMARK.json`` the tool
prints each side's median and quartiles over the pairs, how many pairs
the change won, and two verdicts:

* the claim rule: the change *improves* a metric when it wins at least
  9 of every 10 pairs *and* its median beats the parent's by more than
  the parent's interquartile range;
* the no-regression rule, from the metric's ``bound`` (a share of the
  parent's median): ``regressed`` when the change's median is worse than
  the parent's by more than the bound, ``unresolved`` when either side's
  spread (interquartile range over median) exceeds the bound and not
  every change run is better than every parent run, ``ok`` otherwise.

It ends with one row per workload.  With ``--trace`` it then makes one
``--trace 1`` run per side and workload on the same seed and prints each
``<layer>.self_s`` and each call count as parent -> change, flagging the
counts that differ (a pure speedup leaves them all equal).  The last
line of stdout is the whole summary as JSON.  A run that is not
``correct`` or has failed operations aborts the tool (exit 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

#: share of pairs the change must win for a claimed gain
MIN_WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``perfbench/run.py`` computes them."""
    q1, _, q3 = statistics.quantiles(values, n=4) \
        if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str) -> Dict[str, object]:
    """The claim rule on paired runs (``parent[i]`` vs ``change[i]``).

    ``better`` is ``"higher"`` or ``"lower"``.  ``improved`` holds when
    the change wins at least ``MIN_WIN_SHARE`` of the pairs and its
    median beats the parent's by more than the parent's IQR.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    if better not in ("higher", "lower"):
        raise ValueError(
            f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for old, new in zip(parent, change)
               if sign * (new - old) > 0)
    old, new = quartiles(parent), quartiles(change)
    gap = sign * (new["median"] - old["median"])
    iqr = old["q3"] - old["q1"]
    needed = math.ceil(MIN_WIN_SHARE * len(parent))
    return {"parent": old, "change": new, "wins": wins,
            "pairs": len(parent), "wins_needed": needed,
            "gap": gap, "parent_iqr": iqr,
            "improved": wins >= needed and gap > iqr}


def regression(parent: Sequence[float], change: Sequence[float],
               better: str, bound: float) -> Dict[str, object]:
    """The no-regression rule on paired runs.

    ``bound`` is the share of the parent's median by which the change's
    median may be worse.  ``status`` is ``"regressed"`` past it,
    ``"unresolved"`` when either side's spread (IQR over median) exceeds
    the bound and not every change run is better than every parent run,
    else ``"ok"``.
    """
    result = verdict(parent, change, better)
    old, new = result["parent"], result["change"]
    if not old["median"]:
        raise ValueError("the parent's median is zero: no relative bound")
    worse_by = -result["gap"] / abs(old["median"])
    spread = max((side["q3"] - side["q1"]) / abs(side["median"])
                 if side["median"] else math.inf for side in (old, new))
    sign = 1.0 if better == "higher" else -1.0
    all_better = (min(sign * value for value in change)
                  > max(sign * value for value in parent))
    if worse_by > bound:
        status = "regressed"
    elif spread > bound and not all_better:
        status = "unresolved"
    else:
        status = "ok"
    return {"bound": bound, "worse_by": worse_by, "spread": spread,
            "status": status}


def run_perfbench(tree: str, workload: str, seed: int, seconds: float,
                  trace: int = 0) -> Dict[str, dict]:
    """One ``perfbench/run.py`` run in ``tree``; its metrics, each a
    ``{"value", "unit"}`` mapping."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    output = subprocess.run(command, cwd=tree, check=True, text=True,
                            stdout=subprocess.PIPE).stdout
    result = json.loads(output.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: run not correct or with failed "
                         f"operations: {json.dumps(result)}")
    return result["metrics"]


def run_once(tree: str, workload: str, seed: int,
             seconds: float) -> Dict[str, float]:
    """One untraced run in ``tree``; its metric values."""
    return {name: metric["value"] for name, metric in
            run_perfbench(tree, workload, seed, seconds).items()}


def run_traced(tree: str, workload: str, seed: int,
               seconds: float) -> Dict[str, dict]:
    """One ``--trace 1`` run in ``tree``; its per-layer metrics."""
    return run_perfbench(tree, workload, seed, seconds, trace=1)


def trace_table(parent: Dict[str, dict],
                change: Dict[str, dict]) -> Tuple[List[str], List[str]]:
    """Each ``<layer>.self_s`` and each count of two traced runs.

    ``parent`` and ``change`` map metric names to ``{"value", "unit"}``
    (the ``metrics`` of a ``--trace 1`` result).  Returns the table's
    lines, one metric each as ``parent -> change``, and the names of the
    counts that differ (or exist on one side only), which the lines flag.
    """
    names = list(parent) + [name for name in change if name not in parent]
    lines, differing = [], []
    for name in names:
        old, new = parent.get(name), change.get(name)
        unit = (old or new)["unit"]
        if unit == "count":
            cells = [f"{metric['value']:,.0f}" if metric else "-"
                     for metric in (old, new)]
            differs = (old is None or new is None
                       or old["value"] != new["value"])
        elif name.endswith(".self_s"):
            cells = [f"{metric['value']:.3f}" if metric else "-"
                     for metric in (old, new)]
            differs = False
        else:
            continue
        if differs:
            differing.append(name)
        lines.append(f"{name:<50} {cells[0]:>12} -> {cells[1]:<12}"
                     + ("  COUNT DIFFERS" if differs else ""))
    return lines, differing


def compare(trees: Dict[str, str], workload: str, pairs: int, seed: int,
            seconds: float, metrics: Dict[str, dict]) -> Dict[str, dict]:
    """Alternate ``pairs`` runs of ``workload``; each metric's verdicts."""
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 \
            else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed,
                                       seconds))
        print(f"{workload} pair {pair + 1}/{pairs}: " + "  ".join(
            f"{name} {runs['parent'][-1][name]:.4g} -> "
            f"{runs['change'][-1][name]:.4g}" for name in metrics),
            flush=True)

    summary = {}
    for name, metric in metrics.items():
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        result = verdict(parent, change, metric["better"])
        result["regression"] = regression(parent, change, metric["better"],
                                          metric["bound"])
        summary[name] = result
        old, new = result["parent"], result["change"]
        print(f"{workload} {name} ({metric['better']} is better): parent "
              f"{old['median']:.4g} [{old['q1']:.4g}, {old['q3']:.4g}]  "
              f"change {new['median']:.4g} [{new['q1']:.4g}, "
              f"{new['q3']:.4g}]  wins {result['wins']}/{result['pairs']} "
              f"(need {result['wins_needed']})  gap {result['gap']:.4g} vs "
              f"parent IQR {result['parent_iqr']:.4g}  -> "
              f"{'improved' if result['improved'] else 'not improved'}; "
              f"bound {metric['bound']:g}: "
              f"{result['regression']['status']}")
    return summary


def summary_row(workload: str, metrics: Dict[str, dict]) -> str:
    """One line: each metric's median change and both verdicts."""
    cells = []
    for name, result in metrics.items():
        old = result["parent"]["median"]
        change = (result["change"]["median"] - old) / abs(old) if old \
            else math.nan
        cells.append(f"{name} {change:+.1%} "
                     f"{'improved' if result['improved'] else '-'} "
                     f"{result['regression']['status']}")
    return f"{workload:<30} " + " | ".join(cells)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, nargs="+",
                        action="extend", dest="workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true",
                        help="after the pairs, compare one traced run "
                             "per side: layer self times and call counts")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(tree, "src"),
                        os.path.join(tree, "perfbench")],
                       check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(trees["change"], "BENCHMARK.json"),
              encoding="utf-8") as handle:
        metrics = {metric["name"]: metric
                   for metric in json.load(handle)["end_to_end"]}

    summary = {workload: compare(trees, workload, args.pairs, args.seed,
                                 args.seconds, metrics)
               for workload in args.workloads}
    for workload, results in summary.items():
        print(summary_row(workload, results))
    report = {"seed": args.seed, "seconds": args.seconds,
              "pairs": args.pairs, "workloads": summary}
    if args.trace:
        report["differing_counts"] = {}
        for workload in args.workloads:
            traced = [run_traced(trees[side], workload, args.seed,
                                 args.seconds)
                      for side in ("parent", "change")]
            lines, differing = trace_table(*traced)
            print(f"{workload} traced (seed {args.seed}): parent -> change")
            print("\n".join(lines))
            report["differing_counts"][workload] = differing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
