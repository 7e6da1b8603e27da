"""The bandquant benchmark.

Run one workload (the command BENCHMARK.json names)::

    python3 benchmarks/run.py --workload shaped-48k --seed 1 --seconds 25 --trace 0

or every workload with a summary table::

    python3 benchmarks/run.py --workload all --seconds 25

Run it from a checkout; bandquant is imported from the checkout's ``src/``
and the benchmark exits 1 without a result when that tree is missing.

A run starts WORKERS fresh worker processes one after another (worker.py).
Each is timed from its start to its first usable generator (``setup_s``),
then spends its share of ``--seconds`` on closed-loop requests through
``bandquant.cli.main``; the workers split the workload seed's request pool
between them, so every pool entry is run and checked.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
each worker alternates traced and untraced cycles and the run reports the
per-layer metrics from the traced ones.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give every metric with its unit and the machine.  The full record
goes to ``.bench_out/<workload>-<seed>-<trace>/result.json``, with the spans
beside it.  The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"

# Worker processes per run, run one after another.
WORKERS = 2

# Workers still running this long after the run started are killed.
RUN_TIMEOUT_S = 170

# A latency tail is the highest percentile with this many requests beyond it.
TAIL_BEYOND = 10

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="bandquant benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def machine_info():
    """The machine and library builds, recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
    }


def run_worker(args, index, out_dir, deadline):
    """Run one worker; returns its cold-start seconds and its record."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
         "--worker", str(index), "--workers", str(WORKERS), "--out", str(out_dir)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        sys.exit(f"error: worker {index} exited with {proc.returncode}")
    with open(out_dir / f"worker-{index}.json", encoding="utf-8") as fh:
        return setup_s, json.load(fh)


def tail(latencies):
    """(value, percentile, count): the highest percentile with TAIL_BEYOND beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def sup_error_median(records):
    """Median sup error over each scheme's pool trials, geometric mean over schemes.

    Every pool entry counts once.  On a workload with several schemes the
    median of the mixture would sit in the gap between the schemes' errors
    and follow its edges, so each scheme gets its own median.
    """
    seen = {}
    for record in records:
        seen.setdefault(record["index"], record["sup_errors"])
    by_scheme = {}
    for errors in seen.values():
        for scheme, value in errors.items():
            by_scheme.setdefault(scheme, []).append(value)
    logs = [math.log(statistics.median(v)) for v in by_scheme.values()]
    return math.exp(sum(logs) / len(logs))


def end_to_end(records, setups, rss):
    timed = [r for r in records if r["phase"] == "timed"]
    latencies = [r["latency_s"] for r in timed]
    tail_value, percentile, count = tail(latencies)
    ok_trials = sum(r["trials"] - r["failed"] for r in timed)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "trials_per_s": (ok_trials / sum(latencies), "1/s"),
        "sup_error_median": (sup_error_median(records), "1"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} cold starts",
        "latency_tail_s": f"p{percentile:.1f} of {count} requests",
        "sup_error_median": "per-scheme median, geometric mean over schemes",
        "peak_rss_mb": f"median of {len(rss)} worker processes",
    }
    return metrics, notes


def per_layer(records, out_dir):
    traced = {(r["worker"], r["id"]) for r in records if r["traced"]}
    request_spans = []
    builds = []
    for worker in sorted({r["worker"] for r in records}):
        with open(out_dir / f"spans-{worker}.jsonl", encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                if (worker, span["request"]) in traced:
                    request_spans.append(span)
                elif span["name"] == "generator.Generator.__init__":
                    builds.append(span["end"] - span["start"])
    traced_records = [r for r in records if r["traced"]]
    trials = sum(r["trials"] for r in traced_records)
    metrics = spans.layer_metrics(request_spans, trials, statistics.median(builds))
    metrics["cli.bytes_written"] = (
        sum(r["bytes_written"] for r in traced_records) / trials,
        "B",
    )

    def per_trial(chosen):
        return sum(r["latency_s"] for r in chosen) / sum(r["trials"] for r in chosen)

    plain = [r for r in records if r["phase"] == "timed" and not r["traced"]]
    metrics["trace.overhead_share"] = (per_trial(traced_records) / per_trial(plain) - 1.0, "1")
    return metrics, {"trace.overhead_share": "traced against untraced cycles"}


def run_workload(args):
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "bandquant" / "__init__.py").is_file():
        sys.exit(f"error: no bandquant source tree at {ROOT / 'src' / 'bandquant'}")
    out_dir = OUT_ROOT / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    t_run = time.perf_counter()
    setups, rss, records = [], [], []
    for index in range(WORKERS):
        setup_s, worker = run_worker(args, index, out_dir, t_run + RUN_TIMEOUT_S)
        setups.append(setup_s)
        rss.append(worker["peak_rss_mb"])
        records.extend({**r, "worker": index} for r in worker["records"])
    run_s = time.perf_counter() - t_run

    if args.trace:
        metrics, notes = per_layer(records, out_dir)
    else:
        metrics, notes = end_to_end(records, setups, rss)
    attempted = sum(r["trials"] for r in records)
    failed = sum(r["failed"] for r in records)
    timed = sum(r["phase"] == "timed" for r in records)
    machine = machine_info()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(
            {**result, "workload": workload.name, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "machine": machine,
             "notes": notes, "setups_s": setups, "requests": records},
            fh, indent=1, allow_nan=False,
        )

    print("machine: " + json.dumps(machine))
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{timed} timed requests, {len(records)} run in {run_s:.1f} s by {WORKERS} "
        f"workers; {failed} of {attempted} trials failed "
        f"(failed_share {failed / attempted:.4g})"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:<14.6g} {unit:6s} {notes.get(name, '')}".rstrip())
    for r in records:
        for problem in r["problems"]:
            print(f"  check failed: worker {r['worker']} pool entry {r['index']}: {problem}")
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in its own process, then one table of all metrics."""
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    if not results:
        return 1
    first = next(iter(results.values()))["metrics"]
    print()
    print(f"{'metric':24s} {'unit':6s}" + "".join(f" {w:>14s}" for w in results))
    print(f"{'failed_share':24s} {'1':6s}" + "".join(
        f" {r['failed'] / r['attempted']:>14.4g}" for r in results.values()))
    for metric, spec in first.items():
        print(f"{metric:24s} {spec['unit']:6s}" + "".join(
            f" {r['metrics'][metric]['value']:>14.6g}" for r in results.values()))
    print(json.dumps(results, allow_nan=False))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
