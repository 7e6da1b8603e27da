"""Write reference.json: the checked outputs of every pool request at the default seed.

Run from a checkout as ``python3 benchmarks/make_reference.py``.  The stored
values are what the benchmark's output check compares against, so regenerate
them only for a change that is meant to alter bandquant's results.
"""

import contextlib
import io
import json
import sys

import worker
from workloads import DEFAULT_SEED, REFERENCE_PATH, RUN_FIELDS, WORKLOADS


def main():
    library = worker.load_library()
    files = worker.ROOT / ".bench_out" / "reference-files"
    files.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in WORKLOADS.values():
        fields = RUN_FIELDS if workload.command == "run" else ("mean_sup_error",)
        entries = []
        for request in workload.requests(DEFAULT_SEED):
            with contextlib.redirect_stdout(io.StringIO()):
                code = library.cli.main([*request.argv, "--out", str(files)])
            if code != 0:
                sys.exit(f"{workload.name} request {request.index} exited with {code}")
            rows = workload.read_trials(request, files)
            entries.append([{f: float(row[f]) for f in fields} for row in rows])
        reference[workload.name] = entries
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
