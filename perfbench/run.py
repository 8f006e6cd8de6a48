"""The repository benchmark: one workload, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeats the workload for ``--seconds`` wall-seconds, each repetition in
a fresh interpreter (``job.py``), and checks every repetition's output
digests against ``reference.json`` (or, for a seed without a stored
reference, against the first repetition).  With ``--trace 0`` it reports
the end-to-end metrics as medians over the repetitions, with times
scaled to a reference host speed (see ``end_to_end``); with
``--trace 1`` it spends half the time on untraced repetitions and then
runs one repetition under cProfile for the per-layer table.  The last
line of stdout is the result object; the line before it holds the
provenance and every repetition's raw numbers.  ``--length`` shortens
the simulated length (used by the smoke test; no reference exists for
it).  See README.md for the workloads and metrics.
"""

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import job

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

#: fewest untraced repetitions of a timed run, however short --seconds is
MIN_REPETITIONS = 3
#: a repetition running longer than this has hung
JOB_TIMEOUT_S = 150

END_TO_END_UNITS = {"slots_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: ``job.calibrate()`` seconds on the reference host, an uncontended
#: 2.1 GHz Xeon core under CPython 3.11; end-to-end times are scaled to it
REFERENCE_CALIBRATION_S = 0.030


def run_job(arguments):
    """Run ``job.py`` once in its own process group; its record or None.

    On a timeout the whole group (the job and any sweep workers) is
    killed before returning.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    command = [sys.executable, os.path.join(HERE, "job.py"), *arguments]
    with subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as process:
        try:
            stdout, stderr = process.communicate(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            sys.stderr.write(f"job {arguments} timed out\n")
            return None
    if process.returncode != 0 or not stdout.strip():
        sys.stderr.write(f"job {arguments} failed "
                         f"(exit {process.returncode}):\n{stderr[-4000:]}\n")
        return None
    return json.loads(stdout.splitlines()[-1])


def length_key(length):
    return "registered" if length is None else f"{length:g}"


def stored_reference(workload, length, seed):
    """Reference digests recorded for (workload, length, seed), if any."""
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(length_key(length), {}).get(str(seed))


def operations(record):
    """Operations one repetition performed: runs, or sweep points per pass."""
    return sum(record["weights"].values()) * len(record["digests"])


def failed_operations(record, reference):
    """Operations whose output digest differs from the reference, plus
    resumed sweep points that did not hit the store."""
    failed = record.get("resume_misses", 0)
    for digests in record["digests"].values():
        for key, value in digests.items():
            if value != reference.get(key):
                failed += record["weights"][key]
    return min(failed, operations(record))


def spread(values):
    """Median, quartiles and minimum of one metric's repetitions."""
    summary = {"n": len(values), "median": statistics.median(values),
               "min": min(values)}
    if len(values) > 1:
        summary["q1"], _, summary["q3"] = statistics.quantiles(values, n=4)
    return summary


def provenance(args, length):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "started_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "length": length_key(length),
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def end_to_end(records):
    """Per-repetition columns of the end-to-end metrics, and the raw
    (unscaled) timings they come from.

    Each repetition's times are scaled by the reference calibration
    time over the one measured around its job, which cancels the
    host's drift in speed between repetitions and between runs.
    """
    speed = [REFERENCE_CALIBRATION_S / r["calibration_s"] for r in records]
    raw = {
        "slots_per_s": [r["slots"] / r["job_s"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "calibration_s": [r["calibration_s"] for r in records],
    }
    columns = {
        "slots_per_s": [value / factor for value, factor
                        in zip(raw["slots_per_s"], speed)],
        "setup_s": [value * factor for value, factor
                    in zip(raw["setup_s"], speed)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    return columns, raw


def per_layer(records, traced):
    """The traced job's table plus the ratios that need untraced medians."""
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["trace_region_s"] / \
        statistics.median(r["trace_region_s"] for r in records)
    sweep_s = batch_s = speedup = 0.0
    if "batch_s" in traced:
        sweep_s = statistics.median(r["job_s"] for r in records)
        batch_s = statistics.median(r["batch_s"] for r in records)
        speedup = sweep_s / batch_s
    metrics["experiments.sweep_s"] = sweep_s
    metrics["experiments.sweep_batch_s"] = batch_s
    metrics["experiments.batch_speedup"] = speedup
    return metrics


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_ratio", "_speedup", "_per_window")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def layer_report(modules, wall_s):
    """Text table of the traced job's self time by module."""
    lines = [f"{'module':<32}{'self_s':>10}{'share':>8}"]
    total = sum(modules.values()) or 1.0
    for module, seconds in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"{module:<32}{seconds:>10.3f}{seconds / total:>8.1%}")
    lines.append(f"{'(sum of self / traced wall)':<32}"
                 f"{total:>10.3f}{total / wall_s:>8.1%}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=job.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length", type=float, default=None,
                        help="simulated seconds per run instead of the "
                             "reference length")
    args = parser.parse_args(argv)
    length = args.length if args.length is not None \
        else job.SIM_LENGTHS.get(args.workload)
    info = provenance(args, length)

    if run_job(["--warmup"]) is None:
        sys.stderr.write("cannot import the repro package from src/\n")
        return 1
    reference = stored_reference(args.workload, length, args.seed)
    info["reference"] = "stored" if reference else "first repetition"
    job_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.length is not None:
        job_args += ["--length", repr(args.length)]

    records, attempted, failed = [], 0, 0
    ops_per_repetition = 1
    budget = args.seconds / 2 if args.trace else args.seconds
    fewest = 1 if args.trace else MIN_REPETITIONS
    started = time.monotonic()
    repetitions = 0
    while repetitions < fewest or time.monotonic() - started < budget:
        repetitions += 1
        record = run_job(job_args)
        if record is None:
            attempted += ops_per_repetition
            failed += ops_per_repetition
            continue
        ops_per_repetition = operations(record)
        if reference is None:
            reference = next(iter(record["digests"].values()))
        attempted += ops_per_repetition
        failed += failed_operations(record, reference)
        records.append(record)

    traced = None
    if args.trace and records:
        traced = run_job(job_args + ["--trace"])
        attempted += ops_per_repetition
        if traced is None:
            failed += ops_per_repetition
        else:
            failed += failed_operations(traced, reference)
    if not records or (args.trace and traced is None):
        sys.stderr.write("no repetition completed; nothing to report\n")
        return 1

    columns, raw = end_to_end(records)
    if args.trace:
        print(layer_report(traced["modules"], traced["trace_region_s"]))
        metrics = per_layer(records, traced)
    else:
        metrics = {name: statistics.median(values)
                   for name, values in columns.items()}
    detail = {
        "provenance": info,
        "spread": {name: spread(values) for name, values in columns.items()},
        "raw_spread": {name: spread(values) for name, values in raw.items()},
        "repetitions": [{key: value for key, value in record.items()
                         if key not in ("layers", "modules")}
                        for record in records],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
