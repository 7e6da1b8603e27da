"""CLI tests: exit codes, files written, determinism of artifacts."""

import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import bandquant as bq
from bandquant import table
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


@pytest.mark.parametrize("command", [["run", *_FAST], ["gen-signal"]])
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
     (["sweep", *_FAST, "--trials", "1"], "sweep.svg"),
     (["gen-signal"], "signal.csv")],
    ids=["run", "sweep", "gen-signal"],
)
def test_unwritable_report_file_exits_2(tmp_path, capsys, command, blocked):
    # A directory in the place of an output file inside a usable --out.
    (tmp_path / blocked).mkdir()
    rc = main([*command, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and str(tmp_path / blocked) in err, err


def test_run_exits_2_when_the_signal_breaks_the_margin(ctx, tmp_path, capsys, monkeypatch):
    loud = bq.CoefficientVector(np.random.default_rng(41).normal(size=ctx.dimension), ctx)
    monkeypatch.setattr(bq.pipeline, "synth_test_signal", lambda *args: loud)
    assert main(["run", *_FAST, "--out", str(tmp_path)]) == 2
    assert "stability margin -" in capsys.readouterr().err


def test_check_bounds_exit_code(capsys):
    rc = main(["check-bounds"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out


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
    assert len(commands) == 4
    for k, argv in enumerate(commands):
        assert main([*argv, "--out", str(tmp_path / str(k))]) == 0, argv
    ini = tmp_path / "readme.ini"
    ini.write_text(re.search(r"```ini\n(.*?)```", text, re.S).group(1), "utf-8")
    config = bq.build_config(ini)
    assert len(bq.load_config(ini)) == 20
    assert (config.R, config.r, config.lam, config.levels) == (5.0, 11, 2.0, 80)
    bq.validate(config)
    library = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(library, namespace)
    assert namespace["audit"].all_passed
    assert [row.failures for row in namespace["rows"]] == [0, 0, 0, 0]


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


@pytest.mark.parametrize("flag", ["--m", "--scheme"])
def test_sweep_rejects_an_empty_list(tmp_path, capsys, flag):
    rc = main(["sweep", flag, ",", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "sweep needs at least one" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_flag_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--bogus"])
    assert exc_info.value.code == 2
