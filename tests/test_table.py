"""Table writer tests: byte parity with per-row f-string formatting."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

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
    table.write_columns(path, header_lines, columns)
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("rows", [1, 9, 200, 513])
def test_write_columns_edge_values(tmp_path, rows):
    # The first row alone, (-2^63, 0.0, 1, -0.0), takes the per-value
    # fallback in every cell of its int and float columns.
    floats = np.array(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, sys.float_info.max, 1 / 3, 1e16]
    )
    signs = np.array([1, -1, -1, 1, 1, -1, 1, -1, 1], dtype=np.int64)
    ints = np.array(
        [-(2**63), 0, -1, 7, 2**53 + 1, 2**63 - 1, 12, -12, 100], dtype=np.int64
    )
    columns = [np.resize(c, rows) for c in (ints, floats, signs, -floats)]
    types = (int, float, int, float)
    header = [f"# bandquant-test v1 n={rows}", "k,x,sign,minus_x"]
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
    path = tmp_path / "report.csv"
    table.write_records(path, bq.RunReport, [report])
    assert path.read_text(encoding="utf-8").splitlines()[1] == (
        f"{r.scheme},{r.m},{r.p},{r.seed},{r.sup_error:.17g},{r.rms_error:.17g},"
        f"{r.lam_min:.17g},{r.lam_max:.17g},{r.max_state:.17g},{r.discarded},"
        f"{r.elapsed_s:.3f}"
    )
    rows = [
        bq.pipeline.SweepRow("msq", 800, 800, 0.25, 0),
        bq.pipeline.SweepRow("beta", 1600, 80, math.nan, 2),
    ]
    path = tmp_path / "sweep.csv"
    table.write_records(path, bq.pipeline.SweepRow, rows)
    assert path.read_text(encoding="utf-8") == "".join(
        [
            "scheme,m,p,mean_sup_error,failures\n",
            *(f"{s.scheme},{s.m},{s.p},{s.mean_sup_error:.17g},{s.failures}\n" for s in rows),
        ]
    )


def _split_bins(binned):
    """(coordinates, signs) of each bin, sliced by its retained count."""
    ends = np.cumsum(binned.truncated_counts)
    return zip(np.split(binned.coordinates, ends[:-1]), np.split(binned.signs, ends[:-1]))


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
                for b, (xs, ss) in enumerate(_split_bins(binned), start=1)
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


def _column_text(tmp_path, values):
    path = tmp_path / "column.csv"
    table.write_columns(path, [], [values])
    return path.read_text(encoding="utf-8")


def _expected(values, conversion):
    """One line of ``conversion % v`` per value."""
    return (conversion + "\n") * len(values) % tuple(values.tolist())


def test_floats_match_percent_on_random_bit_patterns(tmp_path):
    # Every 16th pattern keeps an exponent field drawn over all exponents
    # (subnormals, NaN and inf included); the others get one of the binades
    # 2^-15 ... 2^53, which hold the fixed-notation range 1e-4 <= |x| < 1e16.
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    near = np.arange(bits.size) % 16 != 0
    exponents = rng.integers(1023 - 15, 1023 + 54, size=near.sum(), dtype=np.uint64)
    bits[near] = bits[near] & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)
    x = bits.view(np.float64)
    assert _column_text(tmp_path, x) == _expected(x, "%.17g")


def test_floats_match_percent_next_to_powers_of_ten(tmp_path):
    # 10^k for k = -6 ... 17 and the 8 doubles on either side of each,
    # decimal strings of 17 to 19 nines whose rounding carries into the next
    # power of ten, the values that always take ``%``, and their negatives.
    powers = np.array([float(f"1e{k}") for k in range(-6, 18)])
    near = [powers]
    for direction in (0.0, math.inf):
        step = powers
        for _ in range(8):
            step = np.nextafter(step, direction)
            near.append(step)
    nines = [
        float(f"{digits}e{k - len(digits)}")
        for k in range(-6, 18)
        for digits in ("9" * 17, "9" * 18, "9" * 19, "9" * 16 + "5", "99999999999999995")
    ]
    special = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, sys.float_info.max]
    x = np.concatenate([*near, nines, special])
    x = np.concatenate([x, -x])
    assert _column_text(tmp_path, x) == _expected(x, "%.17g")


def test_floats_match_percent_on_exact_ties(tmp_path):
    # With s = 16 - k, an odd multiple of 2^-(s + 1) above 10^k times 10^s
    # ends in .5: the 17th digit is an exact tie, which rounds half to even.
    ties = []
    for k in range(-4, 16):
        unit = 2.0 ** -(17 - k)
        start = np.floor(float(f"1e{k}") / unit)
        x = (start + 1 + start % 2 + np.arange(0, 32, 2)) * unit
        assert all((Fraction(v) * 10 ** (16 - k)).denominator == 2 for v in x.tolist())
        ties.append(x)
    x = np.concatenate(ties)
    x = np.concatenate([x, -x])
    assert _column_text(tmp_path, x) == _expected(x, "%.17g")


def _decimal(rng, n, k):
    """A decimal string of n significant digits at exponent k, exact as a
    double where it can be: then its digits are an odd multiple of 5^f, f
    the digits after the point, so the value is an odd integer over 2^f."""
    f = n - k - 1
    step = 5 ** max(f, 0)
    lo, hi = -(-(10 ** (n - 1)) // step), (10**n - 1) // step
    if (lo | 1) <= hi:
        digits = str(min(int(rng.integers(lo, hi + 1)) | 1, hi - 1 + hi % 2) * step)
    else:
        digits = str(int(rng.integers(10 ** (n - 2), 10 ** (n - 1))) * 10 + 1)
    return f"{digits}e{k - n + 1}"


def test_floats_match_percent_on_every_digit_count_and_exponent(tmp_path):
    # Every exponent k of fixed notation and every count of significant
    # digits, both signs.  Trailing zeros that end at the edge of a
    # four-digit group (4, 8, 12 or 16 significant digits) are rare among
    # random bit patterns.
    rng = np.random.default_rng(29)
    x = np.array([float(_decimal(rng, n, k)) for k in range(-4, 16) for n in range(2, 18)
                  for _ in range(3)] + [float(f"{d}e{k}") for k in range(-4, 16) for d in range(1, 10)])
    x = np.concatenate([x, -x])
    assert _column_text(tmp_path, x) == _expected(x, "%.17g")
    # The values reach every count on both sides of the point.
    printed = {}
    for v in x[: x.size // 2].tolist():
        k = math.floor(math.log10(v))
        digits = ("%.17g" % v).replace(".", "").strip("0")
        printed.setdefault(len(digits), set()).add(k >= 0)
    assert all(printed.get(n) == {False, True} for n in range(1, 18)), printed


def test_ints_match_percent(tmp_path):
    rng = np.random.default_rng(23)
    edges = [0, 1, -1, 9, 10, -10, 10**16, 10**17 - 1, 10**17, -(10**17) + 1, -(10**17)]
    edges += [2**63 - 1, 2**63 - 2, -(2**63), -(2**63) + 1, 2**53 + 1, -(2**53) - 1]
    scales = 10 ** rng.integers(0, 19, size=2 * 10**4)
    drawn = rng.integers(-(2**62), 2**62, size=scales.size) // scales
    i = np.concatenate([np.array(edges, dtype=np.int64), drawn])
    assert _column_text(tmp_path, i) == _expected(i, "%d")


def test_columns_take_their_conversion_from_their_dtype(tmp_path):
    # Every int kind is written as %d; any other dtype than an int or
    # float64 is refused before the file is opened.
    rows = 1025
    for dtype in (np.int8, np.int32):
        i = np.resize(np.array([0, -7, 100, -128, 127], dtype=dtype), rows)
        assert _column_text(tmp_path, i) == _expected(i, "%d")
        assert _column_text(tmp_path, i[:5]) == _expected(i[:5], "%d")
    for column in (np.array([True, False]), np.array([0.5], np.float32),
                   np.array([1], np.uint64), np.array(["msq"])):
        path = tmp_path / "refused.csv"
        with pytest.raises(TypeError, match="dtype"):
            table.write_columns(path, [], [np.arange(column.size), column])
        assert not path.exists()
