"""Command line interface.

Subcommands: run (one reconstruction, full report files), sweep (trials over
a list of sample budgets, CSV + SVG summary) and check-bounds (numerical
audits of the inequalities behind the method).  This is the one module that
reads or writes files: it reads the ``--config`` INI file and writes through
``table`` and ``svg``.  Every configurable value has one flag and one key,
listed in _CONFIG_LAYOUT in the order of the INI file.  Exit codes: 0 success, 2
invalid configuration, 3 frame or binning failure (for sweep: a cell whose
every trial failed; for check-bounds: a failed audit), 141 (128 + SIGPIPE)
when the reader of standard output goes away early, as in
``bandquant check-bounds | head``; no traceback is printed then.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import svg, table
from .frame import FrameFailure
from .pipeline import (
    _FIELD_TYPE,
    ConfigError,
    RunConfig,
    RunReport,
    SweepRow,
    check_bounds,
    run_detailed,
    sweep,
)
from .sampling import BinningError

# (field, section, key in file, CLI flag, help) for every configurable value.
_CONFIG_LAYOUT = (
    ("lam", "experiment", "lambda", "--lambda", "oversampling ratio"),
    ("eps", "experiment", "eps", "--eps", "shell width parameter"),
    ("R", "experiment", "R", "--R", "reconstruction half-width"),
    ("r", "experiment", "r", "--r", "decay exponent used in bounds"),
    ("m", "experiment", "m", "--m", "sample budget (comma list allowed for sweep)"),
    ("p", "experiment", "p", "--p", "number of condensation blocks"),
    ("seed", "experiment", "seed", "--seed", "sampling seed"),
    ("trials", "experiment", "trials", "--trials", "trials per sweep cell"),
    ("scheme", "experiment", "scheme", "--scheme",
     "quantization scheme: msq | sigma-delta | beta (comma list allowed for sweep)"),
    ("levels", "quantizer", "levels", "--levels", "alphabet levels per sign"),
    ("delta", "quantizer", "delta", "--delta",
     "alphabet half-step (shaped schemes; msq uses 1/(2·levels))"),
    ("beta", "quantizer", "beta", "--beta", "geometric feedback weight (beta scheme)"),
    ("order", "quantizer", "order", "--order", "difference order (sigma-delta scheme)"),
    ("signal_seed", "signal", "seed", "--signal-seed", "test-signal seed"),
    ("k_range", "signal", "k_range", "--k-range", "test-signal coefficient range"),
    ("target_sup", "signal", "target_sup", "--target-sup", "test-signal sup-norm target"),
    ("grid_points", "eval", "grid_points", "--grid-points",
     "evaluation grid size on [-R, R]"),
    ("gamma", "bounds", "gamma", "--gamma", "frame band confidence parameter"),
    ("t", "bounds", "t", "--t", "frame band deviation parameter"),
)

# The axes sweep crosses.  Their flags and keys take comma lists.
_SWEEP_AXES = ("m", "scheme")


def _read_value(field, raw, lists=False):
    """The value of field written as raw in a flag or a file key.

    A sweep axis is split at commas and each entry read by the field's type:
    with lists the result is that list, and without it the axis must hold one
    value.  Raises ValueError when raw does not read.
    """
    if field not in _SWEEP_AXES:
        return _FIELD_TYPE[field](raw)
    values = [_FIELD_TYPE[field](v) for v in map(str.strip, raw.split(",")) if v]
    if not lists and len(values) != 1:
        raise ValueError(f"{raw!r} is not one value")
    return values if lists else values[0]


def load_config(path, lists=False):
    """Read an INI file into the RunConfig keywords it sets.

    Keys are case-sensitive ([experiment] has both R and r), a ";" after a
    value starts a comment, and values are read as written (no "%"
    interpolation).  Each value is read by _read_value, so with lists the
    sweep axes m and scheme come back as lists.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    settings = {}
    known = {(section, key) for _, section, key, _, _ in _CONFIG_LAYOUT}
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown configuration key [{section}] {key} in {path}")
    for field, section, key, _, _ in _CONFIG_LAYOUT:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                settings[field] = _read_value(field, raw, lists)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key} in {path}: {raw}") from exc
    return settings


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="INI configuration file")
    for field, _, _, flag, help_text in _CONFIG_LAYOUT:
        parser.add_argument(flag, dest=field, default=None, help=help_text)
    parser.add_argument(
        "--out", default="out", metavar="DIR", help="output directory (default: out)"
    )


def build_parser():
    """A new parser of the bandquant command line; main builds one per process."""
    parser = argparse.ArgumentParser(
        prog="bandquant",
        description="Bandlimited reconstruction from noise-shaped quantized random samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one reconstruction run with report files")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="aggregate trials over sample budgets")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = sub.add_parser("check-bounds", help="audit the numerical inequalities")
    _add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_check_bounds)

    return parser


def _settings(args, lists=False):
    """The RunConfig keywords of the command: those of the --config file,
    overlaid with the flags given.  A flag is read from its text as its key
    is read in the file, and with lists the sweep axes come as lists."""
    settings = {} if args.config is None else load_config(args.config, lists)
    for field, _, _, flag, _ in _CONFIG_LAYOUT:
        raw = getattr(args, field)
        if raw is not None:
            try:
                settings[field] = _read_value(field, raw, lists)
            except ValueError as exc:
                raise ConfigError(f"bad value for {flag}: {raw}") from exc
    return settings


@contextlib.contextmanager
def _outdir(args):
    """Create --out and yield it; an OSError from making it or from writing a
    file in it becomes ConfigError, whose message names the path that failed."""
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
        yield path
    except OSError as exc:
        raise ConfigError(f"unusable output directory {path}: {exc}") from exc


def cmd_run(args):
    a = run_detailed(RunConfig(**_settings(args)))
    text = table.record_text(a.report)
    with _outdir(args) as out:
        (out / "report.txt").write_text(text + "\n", encoding="utf-8")
        table.write_records(out / "report.csv", RunReport, [a.report])
        s, f, r = a.signal, a.signal_values, a.recon_values
        table.write_columns(
            out / "signal.csv",
            [table.meta_line("signal", seed=s.seed, target_sup=s.target_sup), "k,coefficient"],
            [s.ks, s.coeffs],
        )
        table.write_columns(
            out / "quantized.csv",
            [table.meta_line("quantized", max_state=a.report.max_state), "index,input,code,state"],
            [np.arange(a.q.size), a.y, a.q, a.state],
        )
        table.write_columns(
            out / "reconstruction.csv",
            ["t,signal,reconstruction,error"],
            [a.grid, f, r, f - r],
        )
        if (b := a.binned) is not None:
            table.write_columns(
                out / "samples.csv",
                [table.meta_line("binned-samples", block=b.block, discarded=b.discarded),
                 "bin,index,coordinate,sign"],
                [np.repeat([1, 2, 3], b.truncated_counts),
                 np.concatenate([np.arange(n) for n in b.truncated_counts]),
                 b.coordinates, b.signs],
            )
    print(text)
    print(f"report files written to {out}")
    return 0


def cmd_sweep(args):
    settings = _settings(args, lists=True)
    ms, schemes = settings.pop("m", None), settings.pop("scheme", None)
    config = RunConfig(**settings)
    rows = sweep(config, ms=ms, schemes=schemes)
    # An all-failed cell's mean is NaN, and NaN > 0 is false.
    ran = [(row.scheme, row.m, row.mean_sup_error) for row in rows if row.mean_sup_error > 0]
    with _outdir(args) as out:
        table.write_records(out / "sweep.csv", SweepRow, rows)
        if ran:
            svg.write_log_chart(out / "sweep.svg", ran)
    for row in rows:
        print(
            f"{row.scheme:>11s}  m={row.m:<6d} p={row.p:<5d} "
            f"mean_sup_error={row.mean_sup_error:.6g}  failures={row.failures}"
        )
    print(f"sweep summary written to {out}")
    failed = [row for row in rows if row.failures == config.trials]
    for row in failed:
        print(f"every trial failed: {row.scheme} m={row.m} p={row.p}", file=sys.stderr)
    if not ran:
        print("no chart written: every sweep cell failed; nothing to plot", file=sys.stderr)
    return 3 if failed or not ran else 0


def cmd_check_bounds(args):
    lines = check_bounds(RunConfig(**_settings(args)))
    for line in lines:
        status = "FAIL" if not line.passed else "vacuous" if line.vacuous else "ok"
        print(f"{line.label}: {line.lhs:.6g} <= {line.rhs:.6g} -> {status}")
    return 0 if all(line.passed for line in lines) else 3


@functools.cache
def _parser():
    """The parser of main, built on its first call and kept for the process;
    argparse keeps no state between parse_args calls."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send what is still buffered to devnull, so that the flush at exit
        # does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (FrameFailure, BinningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
