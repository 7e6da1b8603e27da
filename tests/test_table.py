"""Table writer tests: byte parity with per-row f-string formatting."""

import math
import sys

import numpy as np

import bandquant as bq
from bandquant import table

_SPEC = {int: "d", float: ".17g"}


def _oracle(header_lines, rows, types):
    """One f-string-formatted line per row, as bandquant's writers used to do."""
    lines = [*header_lines]
    for row in rows:
        lines.append(",".join(format(v, _SPEC[t]) for v, t in zip(row, types)))
    return "".join(line + "\n" for line in lines)


def _written(tmp_path, header_lines, columns, types):
    path = tmp_path / "table.csv"
    table.write_columns(path, header_lines, columns, table.row_format_for(*types))
    return path.read_text(encoding="utf-8")


def test_write_columns_edge_values(tmp_path):
    floats = np.array(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, sys.float_info.max, 1 / 3, 1e16]
    )
    signs = np.array([1, -1, -1, 1, 1, -1, 1, -1, 1], dtype=np.int64)
    ints = np.array(
        [0, -1, 7, 2**53 + 1, -(2**63), 2**63 - 1, 12, -12, 100], dtype=np.int64
    )
    columns = [ints, floats, signs, -floats]
    types = (int, float, int, float)
    header = ["# bandquant-test v1 n=9", "k,x,sign,minus_x"]
    assert _written(tmp_path, header, columns, types) == _oracle(
        header, zip(*columns), types
    )


def test_write_columns_across_chunks(tmp_path):
    rows = 2 * table._WRITE_CHUNK + 123
    rng = np.random.default_rng(5)
    columns = [
        np.arange(rows),
        rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows),
        rng.integers(0, 2, size=rows) * 2 - 1,
        rng.uniform(-1, 1, size=rows),
    ]
    types = (int, float, int, float)
    text = _written(tmp_path, ["index,x,sign,u"], columns, types)
    assert text == _oracle(["index,x,sign,u"], zip(*columns), types)
    assert text.count("\n") == rows + 1


def test_write_columns_without_rows(tmp_path):
    header = ["# bandquant-test v1", "a,b"]
    assert _written(tmp_path, header, [], ()) == "# bandquant-test v1\na,b\n"
    empty = [np.array([], dtype=np.int64), np.array([])]
    assert _written(tmp_path, header, empty, (int, float)) == "# bandquant-test v1\na,b\n"
    assert _written(tmp_path, [], [], ()) == ""


def test_meta_line():
    line = table.meta_line("signal", seed=None, target_sup=0.1, block=np.int64(15))
    assert line == "# bandquant-signal v1 seed=none target_sup=0.10000000000000001 block=15"


def test_records_match_the_former_report_format(tmp_path):
    report = bq.RunReport(
        scheme="beta", m=1200, p=80, seed=3, sup_error=1 / 3, rms_error=math.nan,
        lam_min=5e-324, lam_max=1e16, max_state=np.float64(0.1), discarded=15,
        elapsed_s=0.12345,
    )
    r = report
    assert table.record_text(report) == "\n".join([
        f"scheme      = {r.scheme}",
        f"m           = {r.m}",
        f"p           = {r.p}",
        f"seed        = {r.seed}",
        f"sup_error   = {r.sup_error:.17g}",
        f"rms_error   = {r.rms_error:.17g}",
        f"lam_min     = {r.lam_min:.17g}",
        f"lam_max     = {r.lam_max:.17g}",
        f"max_state   = {r.max_state:.17g}",
        f"discarded   = {r.discarded}",
        f"elapsed_s   = {r.elapsed_s:.3f}",
    ])
    assert table.record_header(bq.RunReport) == (
        "scheme,m,p,seed,sup_error,rms_error,lam_min,lam_max,max_state,discarded,elapsed_s"
    )
    assert table.record_row(report) == (
        f"{r.scheme},{r.m},{r.p},{r.seed},{r.sup_error:.17g},{r.rms_error:.17g},"
        f"{r.lam_min:.17g},{r.lam_max:.17g},{r.max_state:.17g},{r.discarded},"
        f"{r.elapsed_s:.3f}"
    )
    rows = [
        bq.pipeline.SweepRow("msq", 800, 800, 0.25, 0),
        bq.pipeline.SweepRow("beta", 1600, 80, math.nan, 2),
    ]
    path = tmp_path / "sweep.csv"
    bq.write_sweep_csv(path, rows)
    assert path.read_text(encoding="utf-8") == "".join(
        [
            "scheme,m,p,mean_sup_error,failures\n",
            *(f"{s.scheme},{s.m},{s.p},{s.mean_sup_error:.17g},{s.failures}\n" for s in rows),
        ]
    )


def test_run_data_files_match_per_row_formatting(beta_run):
    """Every data file of ``bandquant run``, rebuilt from the same run row by row."""
    out, a = beta_run
    signal = a.signal
    binned = a.binned
    expected = {
        "signal.csv": _oracle(
            [
                f"# bandquant-signal v1 seed={signal.seed} "
                f"target_sup={signal.target_sup:.17g}",
                "k,coefficient",
            ],
            zip(signal.ks, signal.coeffs),
            (int, float),
        ),
        "samples.csv": _oracle(
            [
                f"# bandquant-binned-samples v1 block={binned.block} "
                f"discarded={binned.discarded}",
                "bin,index,coordinate,sign",
            ],
            [
                (b, i, x, s)
                for b, (xs, ss) in enumerate(zip(binned.bins, binned.signs), start=1)
                for i, (x, s) in enumerate(zip(xs, ss))
            ],
            (int, int, float, int),
        ),
        "quantized.csv": _oracle(
            [
                f"# bandquant-quantized v1 max_state={a.report.max_state:.17g}",
                "index,input,code,state",
            ],
            [(i, y, q, u) for i, (y, q, u) in enumerate(zip(a.y, a.q, a.state))],
            (int, float, float, float),
        ),
        "reconstruction.csv": _oracle(
            ["t,signal,reconstruction,error"],
            [
                (t, f, r, f - r)
                for t, f, r in zip(a.grid, a.signal_values, a.recon_values)
            ],
            (float, float, float, float),
        ),
    }
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode("utf-8"), name
