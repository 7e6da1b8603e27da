"""Workloads of the bandquant benchmark and the check of their outputs.

A workload is a closed loop of one client: each request is one ``bandquant``
CLI command, sent after the previous one has returned.  The workload seed
fixes a pool of requests (their sampling and signal seeds); a run cycles
through the pool and every pool entry is run and checked at least once, so
the error metric depends on the seed alone, not on how many requests fit in
the timed phase.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Seed whose outputs are compared against the stored reference values.
DEFAULT_SEED = 1

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance of the reference comparison.  The stored values come
# from one machine; another BLAS build reorders sums and moves results in the
# last few digits, which stays far below this.
REFERENCE_RTOL = 1e-6

# Fields of report.csv compared against the reference for each run request.
RUN_FIELDS = ("sup_error", "rms_error", "lam_min", "lam_max")

# Requests in a workload seed's pool.  The pool is run whole in every run,
# so that the error metric depends only on the seed; 48 keeps the spread of
# that metric between seeds near a tenth.
POOL_SIZE = 48

# Sample seeds of one request are drawn below this bound.
_SEED_RANGE = 1_000_000


@dataclass(frozen=True)
class Request:
    """One CLI command of a workload, without its output directory."""

    index: int
    argv: tuple
    schemes: tuple
    trials: int


@dataclass(frozen=True)
class Trial:
    """Checked outcome of one reconstruction (or one sweep cell mean)."""

    scheme: str
    sup_error: float
    ok: bool
    problem: str = ""


@dataclass(frozen=True)
class Workload:
    """A fixed request mix; ``kinds`` are the argument sets requests cycle through."""

    name: str
    command: str
    kinds: tuple
    trials_per_request: int
    # Largest sup error accepted per scheme for seeds without reference values:
    # 5 to 14 times the largest seen over the pools of 6 to 12 seeds.
    ceilings: dict

    def requests(self, seed):
        """The request pool for a workload seed: the same seed, the same pool."""
        rng = random.Random(f"{self.name}/{int(seed)}")
        pool = []
        for index in range(POOL_SIZE):
            scheme, args = self.kinds[index % len(self.kinds)]
            seeds = (
                "--seed",
                str(rng.randrange(_SEED_RANGE)),
                "--signal-seed",
                str(rng.randrange(_SEED_RANGE)),
            )
            schemes = tuple(scheme.split(","))
            pool.append(
                Request(
                    index=index,
                    argv=(self.command, *args, *seeds),
                    schemes=schemes,
                    trials=len(schemes) * self.trials_per_request,
                )
            )
        return pool

    def read_trials(self, request, out_dir):
        """Per-scheme results of a finished request, read from its output files.

        ``run`` yields one row of report.csv; ``sweep`` yields one row of
        sweep.csv per scheme, whose error is the mean over that cell's trials.
        """
        name = "report.csv" if self.command == "run" else "sweep.csv"
        with open(Path(out_dir) / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [row["scheme"] for row in rows] != list(request.schemes):
            raise ValueError(
                f"{name} lists schemes {[row['scheme'] for row in rows]}, "
                f"expected {list(request.schemes)}"
            )
        return rows

    def check(self, request, rows, seed, reference):
        """Trials of a finished request, each marked ok or with its problem.

        For DEFAULT_SEED every value is compared with the stored reference at
        REFERENCE_RTOL.  For any other seed the sup error must stay below the
        scheme's ceiling and, for runs, the frame's lowest eigenvalue must be
        positive.  A sweep cell with failures counts all its trials as failed.
        """
        expected = None
        if seed == DEFAULT_SEED:
            expected = reference[self.name][request.index]
        trials = []
        for pos, row in enumerate(rows):
            scheme = row["scheme"]
            problems = []
            if self.command == "run":
                values = {f: float(row[f]) for f in RUN_FIELDS}
                sup = values["sup_error"]
                cell_trials = 1
            else:
                values = {"mean_sup_error": float(row["mean_sup_error"])}
                sup = values["mean_sup_error"]
                cell_trials = self.trials_per_request
                if int(row["failures"]) != 0:
                    problems.append(f"{row['failures']} failed trials")
            if expected is not None:
                for field, value in values.items():
                    want = expected[pos][field]
                    if not math.isclose(value, want, rel_tol=REFERENCE_RTOL):
                        problems.append(f"{field} {value!r} != reference {want!r}")
            else:
                if not sup <= self.ceilings[scheme]:
                    problems.append(f"sup error {sup!r} above {self.ceilings[scheme]}")
                if self.command == "run" and not values["lam_min"] > 0:
                    problems.append(f"lam_min {values['lam_min']!r} not positive")
            trials.extend(
                Trial(scheme, sup, not problems, "; ".join(problems))
                for _ in range(cell_trials)
            )
        return trials


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


_M48K = ("--m", "48000")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shaped-48k",
            command="run",
            kinds=(
                (
                    "beta",
                    (*_M48K, "--scheme", "beta", "--beta", "20", "--levels", "80",
                     "--delta", "0.0076923", "--p", "3200"),
                ),
                (
                    "sigma-delta",
                    (*_M48K, "--scheme", "sigma-delta", "--order", "3",
                     "--levels", "10", "--delta", "0.1", "--p", "3000"),
                ),
            ),
            trials_per_request=1,
            ceilings={"beta": 1e-3, "sigma-delta": 2e-2},
        ),
        Workload(
            name="msq-48k",
            command="run",
            kinds=(("msq", (*_M48K, "--scheme", "msq", "--levels", "80")),),
            trials_per_request=1,
            ceilings={"msq": 5e-2},
        ),
        Workload(
            name="sweep-3k",
            command="sweep",
            kinds=(
                (
                    "msq,beta,sigma-delta",
                    ("--scheme", "msq,beta,sigma-delta", "--m", "3000",
                     "--p", "200", "--order", "2", "--trials", "4"),
                ),
            ),
            trials_per_request=4,
            ceilings={"msq": 0.3, "beta": 2e-2, "sigma-delta": 0.2},
        ),
    )
}
