"""Self-test of the benchmark: every workload at minimum length, traced and untraced.

Run from a checkout as ``python3 benchmarks/selftest.py`` (a few minutes: each
run still builds the generator and checks its whole request pool).  It
asserts that each run reports exactly the metrics BENCHMARK.json names, with
their units; that msq-48k runs no greedy step and builds no condensation
matrix; that sweep-3k writes little report data; that module self time covers
the traced requests; and that the benchmark exits nonzero, printing no
result, in a directory without the source tree.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]

# The traced runs use the reference seed, the untraced runs another seed, so
# both branches of the output check run.
SEEDS = {0: 2, 1: 1}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    values = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace {trace}"
            before = len(problems)
            proc = subprocess.run(
                [*RUN, "--workload", workload, "--seed", str(SEEDS[trace]),
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=False,
            )
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            if not lines:
                expect(False, f"{label}: no output")
                continue
            result = json.loads(lines[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result keys {sorted(result)}",
            )
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{label}: {result['failed']} of {result['attempted']} trials failed",
            )
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(units == want, f"{label}: metrics {units} != {want}")
            values[workload, trace] = {n: m["value"] for n, m in result["metrics"].items()}
            print(f"{label}: " + ("; ".join(problems[before:]) or "ok"))

    msq = values["msq-48k", 1]
    expect(msq["quantize.greedy_steps"] == 0, "msq-48k ran greedy steps")
    expect(msq["condense.matrix_builds"] == 0, "msq-48k built condensation matrices")
    sweep_bytes = values["sweep-3k", 1]["cli.bytes_written"]
    shaped_bytes = values["shaped-48k", 1]["cli.bytes_written"]
    expect(
        sweep_bytes < 0.01 * shaped_bytes,
        f"sweep-3k writes {sweep_bytes:.0f} B per trial, shaped-48k {shaped_bytes:.0f}",
    )
    for workload in (w["name"] for w in spec["workloads"]):
        covered = values[workload, 1]["trace.covered_share"]
        expect(covered > 0.99, f"{workload}: module self time covers {covered:.4f}")

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(
            BENCH_DIR, Path(tmp) / BENCH_DIR.name,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "msq-48k",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180, check=False,
        )
        expect(
            proc.returncode != 0 and not proc.stdout.strip(),
            f"without src/: exit code {proc.returncode}, output {proc.stdout!r}",
        )

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
