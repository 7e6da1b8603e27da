"""CLI tests: exit codes, files written, determinism of artifacts."""

import re
import shlex
import sys
from pathlib import Path

import pytest

import bandquant as bq
from bandquant.cli import main

_FAST = ["--m", "1200", "--p", "80", "--scheme", "beta"]


def test_gen_signal_writes_loadable_file(tmp_path, capsys):
    rc = main(["gen-signal", "--signal-seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed 7" in out
    path = tmp_path / "signal.csv"
    model = bq.SignalModel.from_csv(path)
    assert model.seed == 7
    assert model.ks.size == model.coeffs.size > 0


def test_gen_signal_is_deterministic(tmp_path):
    main(["gen-signal", "--out", str(tmp_path / "a")])
    main(["gen-signal", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a/signal.csv").read_bytes() == (
        tmp_path / "b/signal.csv"
    ).read_bytes()


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
    assert report_csv[0] == bq.RunReport.CSV_HEADER
    assert report_csv[1].startswith("beta,1200,80,")


def test_run_msq_skips_samples_file(tmp_path):
    rc = main(
        ["run", "--m", "1200", "--scheme", "msq", "--levels", "40",
         "--grid-points", "50", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert not (tmp_path / "samples.csv").exists()
    assert (tmp_path / "quantized.csv").is_file()


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


def test_run_reports_frame_failure(tmp_path, capsys):
    # 40 condensed rows cannot span the 45-dimensional coefficient space.
    rc = main(
        ["run", "--m", "600", "--p", "40", "--scheme", "beta", "--out", str(tmp_path)]
    )
    assert rc == 3
    assert "error" in capsys.readouterr().err


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


def test_check_bounds_exit_code(capsys):
    rc = main(["check-bounds"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out


def test_check_bounds_into_closed_pipe_exits_quietly(tmp_path, capsys, monkeypatch):
    class ClosedPipe:
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

    for buffered in (False, True):
        with open(tmp_path / "stdout", "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno(), buffered))
            rc = main(["check-bounds"])
            monkeypatch.undo()
        assert rc == 141
        assert "Traceback" not in capsys.readouterr().err


def test_readme_examples_run(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", readme.read_text("utf-8"), re.S)
    commands = [
        shlex.split(line)[1:]
        for line in block.group(1).splitlines()
        if line.startswith("bandquant ")
    ]
    assert len(commands) == 4
    for k, argv in enumerate(commands):
        assert main([*argv, "--out", str(tmp_path / str(k))]) == 0, argv


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
        ["sweep", "--scheme", "beta", "--m", "600", "--p", "40",
         "--trials", "1", "--out", str(tmp_path)]
    )
    assert rc == 3
    captured = capsys.readouterr()
    assert "no chart written" in captured.err
    assert (tmp_path / "sweep.csv").is_file()
    assert not (tmp_path / "sweep.svg").exists()
    assert "nan" in (tmp_path / "sweep.csv").read_text(encoding="utf-8")


def test_unknown_flag_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--bogus"])
    assert exc_info.value.code == 2
