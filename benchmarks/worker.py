"""One worker process of a benchmark run.

``run.py`` starts the workers of a run one after another.  A worker imports
bandquant from the checkout's ``src/``, builds the shared generator and
prints ``ready`` (the parent times its cold start up to that line).  It then
runs its share of the request pool as a closed loop through
``bandquant.cli.main``: one untimed warm-up cycle, timed cycles until its
share of the run's seconds is spent, then any of its pool cycles not reached.
Every request's output files are checked, then deleted.  The worker writes
its records to ``worker-<n>.json`` in the run directory and, when tracing,
its spans to ``spans-<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, load_reference

ROOT = Path(__file__).resolve().parent.parent

# Timed cycles run even when the worker's seconds have passed, so that a
# traced worker has one traced and one untraced cycle to compare.
MIN_CYCLES = 2


def load_library():
    """Import bandquant, with its CLI, from the checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bandquant.cli

    origin = Path(bandquant.__file__).resolve().parent
    if origin != src / "bandquant":
        sys.exit(f"error: imported bandquant from {origin}, not from {src}")
    return bandquant


class Runner:
    """Sends requests one after another and checks each result."""

    def __init__(self, workload, seed, cli, files, tracer):
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.files = files
        self.files.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer
        self.reference = load_reference() if seed == DEFAULT_SEED else None
        self.records = []

    def execute(self, request, phase, traced=False):
        for path in self.files.iterdir():
            path.unlink()
        argv = [*request.argv, "--out", str(self.files)]
        request_id = len(self.records)
        error = None
        if traced:
            self.tracer.request = request_id
            self.tracer.begin("bench.request", "bench")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a request that raises is a failed request
            code, error = None, repr(exc)
        latency = time.perf_counter() - t0
        if traced:
            self.tracer.end()
            self.tracer.request = None
        written = sum(path.stat().st_size for path in self.files.iterdir())
        if code != 0 and error is None:
            error = f"exit code {code}"
        trials = []
        if error is None:
            try:
                rows = self.workload.read_trials(request, self.files)
                trials = self.workload.check(request, rows, self.seed, self.reference)
            except (OSError, KeyError, ValueError) as exc:
                error = f"unreadable output: {exc!r}"
        self.records.append(
            {
                "id": request_id,
                "index": request.index,
                "phase": phase,
                "traced": traced,
                "latency_s": latency,
                "trials": request.trials,
                "failed": request.trials if error else sum(not t.ok for t in trials),
                "bytes_written": written,
                "sup_errors": {t.scheme: t.sup_error for t in trials},
                "problems": [error] if error else [t.problem for t in trials if not t.ok],
            }
        )

    def run(self, cycles, seconds):
        """Warm-up cycle, timed cycles until the deadline, then unreached cycles."""
        for request in cycles[0]:
            self.execute(request, "warmup")
        done = 1
        deadline = time.perf_counter() + seconds
        timed = 0
        while timed < MIN_CYCLES or time.perf_counter() < deadline:
            traced = self.tracer is not None and timed % 2 == 0
            if self.tracer is not None:
                (self.tracer.install if traced else self.tracer.uninstall)()
            for request in cycles[done % len(cycles)]:
                self.execute(request, "timed", traced)
            done += 1
            timed += 1
        if self.tracer is not None:
            self.tracer.uninstall()
        for cycle in cycles[done:]:
            for request in cycle:
                self.execute(request, "rest")


def main(argv=None):
    parser = argparse.ArgumentParser(description="one worker of a benchmark run")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bandquant = load_library()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    params = bandquant.generator.GeneratorParams(lam=bandquant.pipeline.RunConfig().lam)
    bandquant.pipeline.shared_generator(params)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)

    workload = WORKLOADS[args.workload]
    pool = workload.requests(args.seed)
    size = len(workload.kinds)
    cycles = [pool[c * size : (c + 1) * size] for c in range(len(pool) // size)]
    runner = Runner(
        workload, args.seed, bandquant.cli, args.out / f"files-{args.worker}", tracer
    )
    runner.run(cycles[args.worker :: args.workers], args.seconds)
    shutil.rmtree(runner.files)

    if tracer is not None:
        tracer.write(args.out / f"spans-{args.worker}.jsonl")
    with open(args.out / f"worker-{args.worker}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "records": runner.records,
            },
            fh,
        )


if __name__ == "__main__":
    main()
