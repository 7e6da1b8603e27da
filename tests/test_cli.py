"""CLI tests: exit codes, files written, determinism of artifacts."""

import dataclasses
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bandquant as bq
from bandquant import cli, table
from bandquant.cli import main

_FAST = ["--m", "1200", "--p", "80", "--scheme", "beta"]


def test_run_writes_report_files(tmp_path, capsys):
    rc = main(["run", *_FAST, "--grid-points", "50", "--out", str(tmp_path)])
    assert rc == 0
    for name in (
        "report.txt",
        "report.csv",
        "signal.csv",
        "samples.csv",
        "quantized.csv",
        "reconstruction.csv",
    ):
        assert (tmp_path / name).is_file(), name
    assert "sup_error" in capsys.readouterr().out
    recon = (tmp_path / "reconstruction.csv").read_text(encoding="utf-8")
    lines = recon.splitlines()
    assert lines[0] == "t,signal,reconstruction,error"
    assert len(lines) == 51
    report_csv = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report_csv[0] == table.record_header(bq.RunReport)
    assert report_csv[1].startswith("beta,1200,80,")


def test_run_msq_skips_samples_file(tmp_path):
    rc = main(
        ["run", "--m", "1200", "--scheme", "msq", "--levels", "40",
         "--grid-points", "50", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert not (tmp_path / "samples.csv").exists()
    assert (tmp_path / "quantized.csv").is_file()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--delta", "nan"),
        ("--beta", "nan"),
        ("--delta", "inf"),
        ("--t", "nan"),
        ("--eps", "inf"),
        ("--R", "nan"),
        ("--eps", "nan"),
        ("--lambda", "nan"),
    ],
)
def test_run_exits_2_on_a_non_finite_float(tmp_path, capsys, flag, value):
    assert main(["run", flag, value, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    field = {"--lambda": "lam"}.get(flag, flag[2:])
    assert f"invalid configuration: {field} must be finite, got {value}" in err, err


_OVERFLOWS = [
    *[[command, "--R", "1e308"] for command in ("run", "sweep", "check-bounds")],
    *[[command, "--eps", "1e308", "--R", "10"] for command in ("run", "sweep", "check-bounds")],
    ["run", "--lambda", "1e308"],
]


@pytest.mark.parametrize("argv", _OVERFLOWS, ids=[" ".join(argv) for argv in _OVERFLOWS])
def test_a_geometry_beyond_the_float_range_exits_2(tmp_path, capsys, argv):
    # The span window raised OverflowError on these, with a traceback.
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    needle = {
        "--R": "R=1e+308 and eps=0.5 give a sampling interval of length inf",
        "--eps": "R=10 and eps=1e+308 give a sampling interval of length inf",
        "--lambda": "at lam=1e+308, a lattice extent of inf; both must be finite",
    }[argv[1]]
    assert err.startswith("invalid configuration: ") and needle in err, err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_run_rejects_bad_scheme(tmp_path, capsys):
    cases = [
        ("bogus", "unknown scheme"),
        ("none", "unknown scheme"),
        # Defaults leave order-7 feedback with margin -116: unbounded state.
        ("sigma-delta", "stability margin -116 "),
    ]
    for scheme, needle in cases:
        rc = main(["run", "--scheme", scheme, "--out", str(tmp_path)])
        assert rc == 2, scheme
        err = capsys.readouterr().err
        assert "invalid configuration" in err and needle in err, err


def test_run_exits_2_on_a_difference_order_beyond_the_float_range(tmp_path, capsys):
    # C(2000, j) overflows a float; the block length 1 fits any order.
    argv = ["--scheme", "sigma-delta", "--order", "2000", "--m", "3000", "--p", "3000"]
    assert main(["run", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration: difference order 2000 has binomial taps" in err, err


def test_lambda_whose_table_is_cut_too_early_exits_2(tmp_path, capsys):
    # At lam = 1.05 the table ends where |g| is still 3.5e-4; at 1.5 it is 5.4e-10.
    for command in (["run"], ["sweep", "--trials", "1"]):
        assert main([*command, *_FAST, "--lambda", "1.05", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "oversampling ratio 1.05 is too close to 1" in err, err
        assert "max |g| on [59, 60], where the table ends, is 0.000347, above 1e-09" in err
    assert main(["run", *_FAST, "--lambda", "1.5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["check-bounds", "--lambda", "1.05"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "generator tail max |g| on [59, 60]: 0.000347445 <= 1e-09 -> FAIL"


def test_check_bounds_prints_every_line_when_decay_is_not_certified(capsys):
    # No decay constant of g is certified, so the projection line fails with
    # the reason; at lam = 1.01 that is the table cut, also failed by line 2.
    assert main(["check-bounds", "--lambda", "1.01"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[1] == "generator tail max |g| on [59, 60]: 0.00369915 <= 1e-09 -> FAIL"
    assert lines[4] == (
        "projection truncation bound (r=11; weighted profile still rising at the "
        "tail cut for exponent 11; max |g| is 0.0037 where the table ends at 60, "
        "so lam 1.01 is too close to 1): nan <= nan -> FAIL"
    )
    assert main(["check-bounds", "--r", "200"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("-> ok")
    assert lines[4].startswith("projection truncation bound (r=200; ")
    assert lines[4].endswith("use a smaller exponent): nan <= nan -> FAIL")


# Edge configurations at small m, none of them with a large frame, and the
# exit code each must give: 0 for a run, 2 for a configuration that validate
# rejects, 3 for a frame or binning that fails on the draw.
_EDGE_CASES = [
    (["run", "--delta", "1e300"], 2),
    (["run", "--delta", "2"], 2),
    (["sweep", "--delta", "1e300", "--trials", "1"], 2),
    (["run", "--lambda", "1.47"], 0),
    (["run", "--grid-points", "2"], 0),
    (["run", "--scheme", "msq", "--m", "1"], 2),
    (["run", "--p", "1"], 2),
    (["run", "--scheme", "sigma-delta", "--order", "1", "--levels", "1", "--delta", "1",
      "--p", "1000"], 0),
    (["run", "--levels", "1"], 2),
    (["run", "--target-sup", "1"], 0),
    (["run", "--k-range", "0"], 0),
    (["run", "--beta", "1.0001"], 0),
    (["run", "--R", "0.5", "--eps", "2"], 0),
    (["sweep", "--scheme", "msq", "--m", "1", "--trials", "1"], 2),
    (["sweep", "--scheme", "msq,beta", "--m", "600", "--p", "40", "--trials", "1"], 2),
    # 46 condensed rows against d = 45 shifts: seed 1's beta frame is
    # singular, while msq runs on the sweep trial's shared basis.
    (["run", "--m", "690", "--p", "46"], 3),
    (["sweep", "--scheme", "msq,beta", "--m", "690", "--p", "46", "--trials", "1"], 3),
    # d = 23 shifts at lambda 1.5, eps 0.2: seed 1 leaves a bin empty.
    (["run", "--lambda", "1.5", "--eps", "0.2", "--m", "23", "--p", "23"], 3),
]


@pytest.mark.parametrize(
    "argv, expected", _EDGE_CASES, ids=[" ".join(argv) for argv, _ in _EDGE_CASES]
)
def test_edge_configurations_exit_cleanly_with_finite_numbers(tmp_path, capsys, argv, expected):
    # Warnings are errors here (pytest's filterwarnings), so an overflow
    # inside a run shows as an exception, not as exit 0.
    code = main([*argv, "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == expected
    path = tmp_path / ("report.csv" if argv[0] == "run" else "sweep.csv")
    # A failed run writes no report; a sweep writes its table unless invalid.
    assert path.is_file() == (code == 0 or (code == 3 and argv[0] == "sweep"))
    lines = path.read_text(encoding="utf-8").splitlines()[1:] if path.is_file() else []
    for line in lines:
        fields = line.split(",")
        if code == 3 and fields[-2] == "nan":
            continue  # the all-failed cell behind the exit 3
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                continue
            assert np.isfinite(value), line


def test_run_reports_frame_failure(tmp_path, capsys):
    # 46 condensed rows against 45 dimensions: seed 1 leaves the frame singular.
    rc = main(
        ["run", "--m", "690", "--p", "46", "--scheme", "beta", "--out", str(tmp_path)]
    )
    assert rc == 3
    assert "error: frame operator is numerically singular" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["run", "--m", "600", "--p", "40"], "p=40 gives at most 40 analysis rows for the d=45 "
         "shifts of lambda=2, R=5 and eps=0.5, so every frame is singular; raise p to at least 45"),
        (["run", "--scheme", "msq", "--m", "40"], "m=40 gives at most 40 analysis rows for the d=45"),
        (["check-bounds", "--m", "600", "--p", "40"], "p=40 gives at most 40 analysis rows"),
        # The msq cell is valid; the beta cell is not.
        (["sweep", "--scheme", "msq,beta", "--m", "600", "--p", "40", "--trials", "1"],
         "p=40 gives at most 40"),
        (["run", "--lambda", "1.5", "--eps", "0.2", "--m", "22", "--p", "22"],
         "p=22 gives at most 22 analysis rows for the d=23 shifts of lambda=1.5, R=5 and eps=0.2"),
    ],
    ids=["run", "run-msq", "check-bounds", "sweep", "run-d23"],
)
def test_fewer_analysis_rows_than_shifts_exits_2(tmp_path, capsys, monkeypatch, argv, needle):
    # p (or m for msq) rows cannot span the d shifts on any draw, so the
    # configuration is invalid before anything is drawn.
    monkeypatch.setattr(
        bq.pipeline, "_run_stages", lambda *a, **k: pytest.fail("a run started")
    )
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and needle in err, err
    assert not (tmp_path / "out").exists()


def test_run_accepts_config_file(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[experiment]\nscheme = beta\nm = 1200\np = 80\n"
        "[eval]\ngrid_points = 50\n",
        encoding="utf-8",
    )
    rc = main(["run", "--config", str(ini), "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    row = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()[1]
    assert row.startswith("beta,1200,80,2,")


@pytest.mark.parametrize(
    "content",
    [None, "scheme = beta\n", "[experiment]\nm = 1200\nm = 2400\n",
     "[experiment]\nm = many\n", "[experiment]\nbogus = 1\n"],
    ids=["missing", "no-section-header", "repeated-key", "bad-value", "unknown-key"],
)
def test_run_exits_2_on_an_unreadable_config_file(tmp_path, capsys, content):
    ini = tmp_path / "run.ini"
    if content is not None:
        ini.write_text(content, encoding="utf-8")
    rc = main(["run", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and str(ini) in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run", *_FAST], ["sweep", *_FAST, "--trials", "1"]])
def test_unusable_out_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    for out in (blocker, blocker / "sub"):
        rc = main([*command, "--out", str(out)])
        assert rc == 2, out
        err = capsys.readouterr().err
        assert "invalid configuration" in err and str(out) in err, err


@pytest.mark.parametrize(
    "command, blocked",
    [(["run", *_FAST], "samples.csv"),
     (["sweep", *_FAST, "--trials", "1"], "sweep.svg")],
    ids=["run", "sweep"],
)
def test_unwritable_report_file_exits_2(tmp_path, capsys, command, blocked):
    # A directory in the place of an output file inside a usable --out.
    (tmp_path / blocked).mkdir()
    rc = main([*command, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and str(tmp_path / blocked) in err, err


def test_run_exits_2_when_the_signal_breaks_the_margin(
    ctx, tmp_path, capsys, monkeypatch, with_nan_sample
):
    loud = bq.CoefficientVector(np.random.default_rng(41).normal(size=ctx.dimension), ctx)
    nan = with_nan_sample(bq.synth_test_signal(1, 12, 0.9))
    msq = ["--m", "1200", "--scheme", "msq"]
    for signal, argv, needle in (
        (loud, _FAST, "stability margin -"),
        (loud, msq, "stability margin -"),
        (nan, msq, "must be finite"),
    ):
        monkeypatch.setattr(bq.pipeline, "synth_test_signal", lambda *args: signal)
        assert main(["run", *argv, "--out", str(tmp_path)]) == 2, needle
        assert needle in capsys.readouterr().err


def test_check_bounds_exit_code(capsys, monkeypatch):
    rc = main(["check-bounds"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    lines = bq.check_bounds(bq.RunConfig())
    status = {(True, False): "ok", (True, True): "vacuous"}
    assert out == "".join(
        f"{line.label}: {line.lhs:.6g} <= {line.rhs:.6g} -> {status[line.passed, line.vacuous]}\n"
        for line in lines
    )
    # The same audit through `python -m bandquant`.
    monkeypatch.setattr(sys, "argv", ["bandquant", "check-bounds"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("bandquant", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == out


def test_check_bounds_prints_the_difference_scheme_condensation_line(capsys):
    assert main(["check-bounds", "--scheme", "sigma-delta", "--order", "2"]) == 0
    line = capsys.readouterr().out.splitlines()[3]
    bound = bq.verify_condensation_bounds(15, 200, order=2)
    assert line == f"{bound.label}: {bound.lhs:.6g} <= {bound.rhs:.6g} -> ok"
    assert line == "condensation norm bound (difference order 2): 0.882916 <= 257.45 -> ok"


def test_check_bounds_failure_lines_carry_computed_numbers(ctx, capsys):
    # At m=690, p=46 seed 1 leaves the condensed frame singular.
    assert main(["check-bounds", "--m", "690", "--p", "46"]) == 3
    line = capsys.readouterr().out.splitlines()[-1]
    binned = bq.partition_bins(bq.draw_samples(690, 5.0, 0.5, 1), 5.0, 0.5, 15, 1)
    signed = binned.signs[:, None] * ctx.kernel_coefficients(binned.coordinates)
    condensed = bq.condense(bq.nu_beta(5.0, binned.block), signed)
    B = binned.weights[:, None] * condensed
    lam_min, *_, lam_max = np.linalg.eigh(B.T @ B)[0]
    assert line.startswith("frame spectrum (frame operator is numerically singular")
    floor = bq.frame.LAMBDA_MIN_FLOOR * lam_max
    assert line.endswith(f": {floor:.6g} <= {lam_min:.6g} -> FAIL")
    # At lambda 1.5, eps 0.2 and m = p = d = 23, seed 1 leaves a bin empty.
    argv = ["--lambda", "1.5", "--eps", "0.2", "--m", "23", "--p", "23"]
    assert main(["check-bounds", *argv]) == 3
    line = capsys.readouterr().out.splitlines()[-1]
    counts = np.bincount(bq.bin_index(bq.draw_samples(23, 5.0, 0.2, 1), 5.0, 0.2), minlength=4)
    short = int(np.flatnonzero(counts[1:] < 1)[0]) + 1
    assert line == (
        f"frame binning (bin {short} received 0 samples, fewer than "
        "one block of 1; draw more samples or reduce p): 1 <= 0 -> FAIL"
    )


def test_check_bounds_audits_the_msq_frame_that_run_builds(tmp_path, capsys):
    # At m = d = 45 seed 1 leaves the msq frame singular: run exits 3, and
    # the audit fails on the same frame operator.
    argv = ["--scheme", "msq", "--m", "45"]
    assert main(["run", *argv, "--out", str(tmp_path)]) == 3
    error = capsys.readouterr().err.strip().removeprefix("error: ")
    assert error.startswith("frame operator is numerically singular")
    assert main(["check-bounds", *argv]) == 3
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith(f"frame spectrum ({error}): ")
    assert line.endswith(" -> FAIL")
    # A frame that spans prints its floor line instead.
    assert main(["check-bounds", "--scheme", "msq"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("frame spectrum floor (1e-10 lam_max <= lam_min): ")
    assert line.endswith(" -> ok")


class _ClosedPipe:
    """Standard output whose reader has gone away, seen at write or flush."""

    def __init__(self, fd, buffered):
        self.fd = fd
        self.buffered = buffered

    def write(self, text):
        if self.buffered:
            return len(text)
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_check_bounds_into_closed_pipe_exits_quietly(tmp_path, capsys, monkeypatch):
    for buffered in (False, True):
        with open(tmp_path / "stdout", "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno(), buffered))
            rc = main(["check-bounds"])
            monkeypatch.undo()
        assert rc == 141
        assert "Traceback" not in capsys.readouterr().err


def test_run_into_closed_pipe_exits_quietly(tmp_path, capsys, monkeypatch):
    # The report files are written before the summary meets the closed pipe,
    # whose BrokenPipeError must not be taken for a failed file write.
    with open(tmp_path / "stdout", "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno(), False))
        rc = main(["run", *_FAST, "--out", str(tmp_path / "out")])
        monkeypatch.undo()
    assert rc == 141
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "out" / "samples.csv").is_file()


def test_readme_examples_run(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text("utf-8")
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", text, re.S)
    commands = [
        shlex.split(line)[1:]
        for line in block.group(1).splitlines()
        if line.startswith("bandquant ")
    ]
    assert len(commands) == 3
    for k, argv in enumerate(commands):
        assert main([*argv, "--out", str(tmp_path / str(k))]) == 0, argv
    ini = tmp_path / "readme.ini"
    ini.write_text(re.search(r"```ini\n(.*?)```", text, re.S).group(1), "utf-8")
    settings = cli.load_config(ini)
    assert len(settings) == 19
    config = bq.RunConfig(**settings)
    assert (config.R, config.r, config.lam, config.levels) == (5.0, 11, 2.0, 80)
    # The example's scheme comment lists three schemes; each one runs.
    for scheme in ("msq", "sigma-delta", "beta"):
        bq.validate(dataclasses.replace(config, scheme=scheme))
    namespace = {}
    for library in re.findall(r"```python\n(.*?)```", text, re.S):
        exec(library, namespace)
    assert all(line.passed for line in namespace["audit"])
    assert [row.failures for row in namespace["rows"]] == [0, 0, 0, 0]
    assert namespace["v"].shape == namespace["binned"].weights.shape


def _without_elapsed(path):
    """The file's text with the elapsed_s field removed from report files."""
    text = path.read_text(encoding="utf-8")
    if path.name == "report.txt":
        return [line for line in text.splitlines() if not line.startswith("elapsed_s")]
    if path.name == "report.csv":
        assert text.splitlines()[0].endswith(",elapsed_s")
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]
    return text


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "48000", "--scheme", "msq", "--levels", "80"],
        ["--m", "12000", "--p", "800"],
    ],
    ids=["msq-48k", "beta-12k"],
)
def test_run_files_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # A frame sums one BLAS syrk per chunk of rows, a call that a threaded
    # BLAS may split between its threads; the beta frame takes three chunks.
    # The quantizer input still comes from a BLAS product in SignalModel.eval,
    # which at these seeds gives the same bits at 1 and 2 threads; in the
    # beta high-resolution run it does not.
    paths = [str(Path(bq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    files = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, paths)),
            OPENBLAS_NUM_THREADS=threads,
        )
        subprocess.run(
            [sys.executable, "-m", "bandquant", "run", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            check=True,
        )
        files.append({path.name: _without_elapsed(path) for path in sorted(out.iterdir())})
    assert len(files[0]) >= 5
    assert files[0] == files[1]


def test_sweep_writes_csv_and_chart(tmp_path, capsys):
    argv = [
        "sweep", "--scheme", "msq,beta", "--m", "800,1600",
        "--p", "80", "--trials", "1",
    ]
    rc = main([*argv, "--out", str(tmp_path / "a")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean_sup_error" in out
    csv_a = (tmp_path / "a/sweep.csv").read_bytes()
    svg_a = (tmp_path / "a/sweep.svg").read_bytes()
    assert csv_a.decode("utf-8").count("\n") == 5  # header + 4 cells
    # Byte-identical on repeat.
    rc = main([*argv, "--out", str(tmp_path / "b")])
    assert rc == 0
    assert (tmp_path / "b/sweep.csv").read_bytes() == csv_a
    assert (tmp_path / "b/sweep.svg").read_bytes() == svg_a


def test_sweep_all_failures_still_writes_csv(tmp_path, capsys):
    rc = main(
        ["sweep", "--scheme", "beta", "--m", "690", "--p", "46",
         "--trials", "1", "--out", str(tmp_path)]
    )
    assert rc == 3
    captured = capsys.readouterr()
    assert "no chart written" in captured.err
    assert "every trial failed: beta m=690 p=46" in captured.err
    assert (tmp_path / "sweep.csv").is_file()
    assert not (tmp_path / "sweep.svg").exists()
    assert "nan" in (tmp_path / "sweep.csv").read_text(encoding="utf-8")


def test_sweep_exits_3_when_one_cell_has_every_trial_failed(tmp_path, capsys):
    # The 46 condensed rows of seed 1 leave the frame singular, so the beta
    # trial fails while the msq cell runs: the files are still written, the
    # chart with msq alone.
    rc = main(
        ["sweep", "--scheme", "msq,beta", "--m", "690", "--p", "46",
         "--trials", "1", "--out", str(tmp_path)]
    )
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == "every trial failed: beta m=690 p=46\n"
    assert "sweep summary written to" in captured.out
    lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scheme,m,p,mean_sup_error,failures"
    assert lines[1].startswith("msq,690,690,") and lines[1].endswith(",0")
    assert lines[2] == "beta,690,46,nan,1"
    svg = (tmp_path / "sweep.svg").read_text(encoding="utf-8")
    assert "msq" in svg and "beta" not in svg


def test_sweep_reads_the_lists_of_its_flags_from_a_config_file(tmp_path, capsys):
    flags = ["--scheme", "msq,beta", "--m", "800,1600", "--p", "80", "--trials", "1"]
    ini = tmp_path / "sweep.ini"
    ini.write_text(
        "[experiment]\nscheme = msq, beta\nm = 800,1600\np = 80\ntrials = 1\n", "utf-8"
    )
    assert main(["sweep", *flags, "--out", str(tmp_path / "flags")]) == 0
    assert main(["sweep", "--config", str(ini), "--out", str(tmp_path / "file")]) == 0
    for name in ("sweep.csv", "sweep.svg"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    # A flag overrides the file's list.
    assert main(["sweep", "--config", str(ini), "--m", "800", "--out", str(tmp_path / "one")]) == 0
    assert (tmp_path / "one" / "sweep.csv").read_text("utf-8").count("\n") == 3
    capsys.readouterr()
    # run and check-bounds take one value per key.
    for key, value in (("m", "800,1600"), ("scheme", "msq,beta")):
        ini.write_text(f"[experiment]\n{key} = {value}\n", "utf-8")
        for command in ("run", "check-bounds"):
            assert main([command, "--config", str(ini), "--out", str(tmp_path / "run")]) == 2
            err = capsys.readouterr().err
            assert f"bad value for [experiment] {key} in {ini}: {value}" in err, err


@pytest.mark.parametrize("flag", ["--m", "--scheme"])
def test_sweep_rejects_an_empty_list(tmp_path, capsys, flag):
    rc = main(["sweep", flag, ",", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "sweep needs at least one" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, needle",
    [(["--m", "3000,3000", "--scheme", "beta"], "sample budget 3000"),
     (["--scheme", "msq,beta,msq"], "scheme 'msq'")],
    ids=["m", "scheme"],
)
def test_sweep_rejects_a_repeated_axis_value(tmp_path, capsys, monkeypatch, argv, needle):
    # A repeated value would run its cell twice, write it twice to sweep.csv
    # and plot its point twice.
    monkeypatch.setattr(
        bq.pipeline, "_run_stages", lambda *a, **k: pytest.fail("a trial ran")
    )
    rc = main(["sweep", *argv, "--trials", "1", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"invalid configuration: sweep lists the {needle} more than once" in err, err
    assert not (tmp_path / "out").exists()


def test_unknown_flag_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--bogus"])
    assert exc_info.value.code == 2


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    # Importing the CLI builds no parser; the first main call builds the one
    # that every later call, a failed one included, reuses.
    probe = "import bandquant.cli as c; print(c._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(bq.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.stdout.strip() == "0", done.stderr
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        fast = [*_FAST, "--grid-points", "50", "--trials", "1"]
        assert main(["run", *fast, "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--bogus"])
        assert exc_info.value.code == 2
        assert main(["sweep", *fast, "--out", str(tmp_path / "b")]) == 0
        assert main(["run", *fast, "--out", str(tmp_path / "c")]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    reports = [(tmp_path / d / "report.csv").read_text(encoding="utf-8") for d in "ac"]
    assert len({text.rsplit(",", 1)[0] for text in reports}) == 1
    assert (tmp_path / "b" / "sweep.csv").is_file()
    # build_parser itself still makes a new parser on every call.
    assert cli.build_parser() is not cli.build_parser()
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "sweep", "check-bounds"])
def test_a_flag_value_that_does_not_read_exits_2(tmp_path, capsys, command):
    assert main([command, "--m", "abc", "--out", str(tmp_path / "out")]) == 2
    assert "invalid configuration: bad value for --m: abc" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
