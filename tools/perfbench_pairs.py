#!/usr/bin/env python
"""Time two checkouts against each other with alternating perfbench runs.

    python tools/perfbench_pairs.py PARENT CHANGE --workload W \\
        --pairs N --seconds S [--seed K]

``PARENT`` and ``CHANGE`` are two checkouts of this repository (for
example a ``git clone`` of the parent commit and the working tree).  Both
trees are byte-compiled first: with ``PYTHONDONTWRITEBYTECODE`` set, an
uncompiled tree pays its compile in every fresh interpreter and reads
as much slower ``setup_s``.  Then each pair runs ``perfbench/run.py
--trace 0`` once in each checkout, swapping which side goes first from
one pair to the next so slow drifts in host speed hit both sides alike.

For every end-to-end metric in ``CHANGE``'s ``BENCHMARK.json`` the tool
prints each side's median and quartiles over the pairs, how many pairs
the change won, and the verdict of the claim rule: the change improves
a metric when it wins at least 9 of every 10 pairs *and* its median
beats the parent's by more than the parent's interquartile range.  The
last line of stdout is the same summary as JSON.  A run that is not
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
from typing import Dict, List, Sequence

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


def run_once(tree: str, workload: str, seed: int,
             seconds: float) -> Dict[str, float]:
    """One ``perfbench/run.py`` run in ``tree``; its metric values."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    output = subprocess.run(command, cwd=tree, check=True, text=True,
                            stdout=subprocess.PIPE).stdout
    result = json.loads(output.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: run not correct or with failed "
                         f"operations: {json.dumps(result)}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=0)
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
        directions = {metric["name"]: metric["better"]
                      for metric in json.load(handle)["end_to_end"]}

    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 \
            else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload,
                                       args.seed, args.seconds))
        print(f"pair {pair + 1}/{args.pairs}: " + "  ".join(
            f"{name} {runs['parent'][-1][name]:.4g} -> "
            f"{runs['change'][-1][name]:.4g}" for name in directions),
            flush=True)

    summary = {}
    for name, better in directions.items():
        result = verdict([run[name] for run in runs["parent"]],
                         [run[name] for run in runs["change"]], better)
        summary[name] = result
        old, new = result["parent"], result["change"]
        print(f"{name} ({better} is better): parent {old['median']:.4g} "
              f"[{old['q1']:.4g}, {old['q3']:.4g}]  change "
              f"{new['median']:.4g} [{new['q1']:.4g}, {new['q3']:.4g}]  "
              f"wins {result['wins']}/{result['pairs']} (need "
              f"{result['wins_needed']})  gap {result['gap']:.4g} vs "
              f"parent IQR {result['parent_iqr']:.4g}  -> "
              f"{'improved' if result['improved'] else 'not improved'}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
