"""Record the reference digests ``run.py`` checks outputs against.

    python3 perfbench/record_reference.py --seeds 0-63 [--workload NAME ...]

Each (workload, seed) runs once at its reference length, and every pass
of that run must agree before its digests are stored in
``reference.json`` (existing entries for other seeds are kept).  Only a
change meant to alter simulated results, such as an experiment's
``@vN`` bump, should re-record; a speed-up must pass against the
digests as they are.
"""

import argparse
import json
import sys

import job
import run


def parse_seeds(text):
    """``0-63`` or ``1,2,5`` to a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--workload", action="append", choices=job.WORKLOADS)
    args = parser.parse_args(argv)
    try:
        with open(run.REFERENCE, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    for workload in args.workload or job.WORKLOADS:
        key = run.length_key(job.SIM_LENGTHS.get(workload))
        seeds = table.setdefault(workload, {}).setdefault(key, {})
        for seed in args.seeds:
            record = run.run_job(["--workload", workload, "--seed", str(seed)])
            if record is None:
                return 1
            passes = list(record["digests"].values())
            if any(digests != passes[0] for digests in passes):
                sys.stderr.write(f"{workload} seed {seed}: passes disagree "
                                 f"{passes}\n")
                return 1
            seeds[str(seed)] = passes[0]
            print(workload, seed, passes[0], flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
