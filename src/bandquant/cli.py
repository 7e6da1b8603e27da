"""Command line interface.

Subcommands: run (one reconstruction, full report files), sweep (trials over
a list of sample budgets, CSV + SVG summary), check-bounds (numerical audits
of the inequalities behind the method) and gen-signal (write a reproducible
test signal).  Exit codes: 0 success, 2 invalid configuration, 3 frame or
binning failure (and failed audits for check-bounds), 141 (128 + SIGPIPE)
when the reader of standard output goes away early, as in
``bandquant check-bounds | head``; no traceback is printed then.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .frame import FrameFailure
from .pipeline import (
    ConfigError,
    RunReport,
    build_config,
    check_bounds,
    run_detailed,
    sweep,
    synth_test_signal,
    write_sweep_csv,
    write_sweep_chart,
)
from .quantize import QuantizationResult
from .sampling import BinningError

_CONFIG_FLAGS = (
    # (flag, dest, type, help)
    ("--scheme", "scheme", str, "quantization scheme: msq | sigma-delta | beta"),
    ("--m", "m", str, "sample budget (comma list allowed for sweep)"),
    ("--p", "p", int, "number of condensation blocks"),
    ("--beta", "beta", float, "geometric feedback weight (beta scheme)"),
    ("--levels", "levels", int, "alphabet levels per sign"),
    ("--delta", "delta", float, "alphabet half-step (midrise schemes)"),
    ("--order", "order", int, "difference order (sigma-delta scheme)"),
    ("--seed", "seed", int, "sampling seed"),
    ("--trials", "trials", int, "trials per sweep cell"),
    ("--lambda", "lam", float, "oversampling ratio"),
    ("--eps", "eps", float, "shell width parameter"),
    ("--R", "R", float, "reconstruction half-width"),
    ("--r", "r", int, "decay exponent used in bounds"),
    ("--signal-seed", "signal_seed", int, "test-signal seed"),
    ("--k-range", "k_range", int, "test-signal coefficient range"),
    ("--target-sup", "target_sup", float, "test-signal sup-norm target"),
    ("--grid-points", "grid_points", int, "evaluation grid size"),
    ("--interval", "interval", float, "evaluation half-width"),
    ("--gamma", "gamma", float, "frame band confidence parameter"),
    ("--t", "t", float, "frame band deviation parameter"),
)


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="INI configuration file")
    for flag, dest, typ, help_text in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    parser.add_argument(
        "--out", default="out", metavar="DIR", help="output directory (default: out)"
    )


def build_parser():
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

    p_gen = sub.add_parser("gen-signal", help="write a reproducible test signal")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen_signal)

    return parser


def _overrides(args, *, skip=()):
    out = {}
    for _, dest, _, _ in _CONFIG_FLAGS:
        if dest in skip:
            continue
        value = getattr(args, dest)
        if value is None:
            continue
        if dest == "m":
            value = int(value)
        out[dest] = value
    return out


def _outdir(args):
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_run(args):
    config = build_config(args.config, **_overrides(args))
    artifacts = run_detailed(config)
    out = _outdir(args)
    report = artifacts.report
    (out / "report.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    (out / "report.csv").write_text(
        RunReport.CSV_HEADER + "\n" + report.csv_row() + "\n", encoding="utf-8"
    )
    artifacts.signal.to_csv(out / "signal.csv")
    if artifacts.binned is not None:
        artifacts.binned.to_csv(out / "samples.csv")
    QuantizationResult(
        q=artifacts.q, u=artifacts.state, max_state=report.max_state
    ).to_csv(out / "quantized.csv", artifacts.y)
    with open(out / "reconstruction.csv", "w", encoding="utf-8") as fh:
        fh.write("t,signal,reconstruction,error\n")
        for t, f_val, r_val in zip(
            artifacts.grid, artifacts.signal_values, artifacts.recon_values
        ):
            fh.write(f"{t:.17g},{f_val:.17g},{r_val:.17g},{f_val - r_val:.17g}\n")
    print(report.to_text())
    print(f"report files written to {out}")
    return 0


def cmd_sweep(args):
    ms = None
    if args.m is not None:
        ms = [int(v) for v in args.m.split(",") if v]
    schemes = None
    if args.scheme is not None:
        schemes = [s for s in args.scheme.split(",") if s]
    config = build_config(args.config, **_overrides(args, skip=("m", "scheme")))
    rows = sweep(config, ms=ms, schemes=schemes)
    out = _outdir(args)
    write_sweep_csv(out / "sweep.csv", rows)
    chart_error = None
    try:
        write_sweep_chart(out / "sweep.svg", rows)
    except FrameFailure as exc:
        chart_error = str(exc)
    for row in rows:
        print(
            f"{row.scheme:>11s}  m={row.m:<6d} p={row.p:<5d} "
            f"mean_sup_error={row.mean_sup_error:.6g}  failures={row.failures}"
        )
    print(f"sweep summary written to {out}")
    if chart_error is not None:
        print(f"no chart written: {chart_error}", file=sys.stderr)
        return 3
    return 0


def cmd_check_bounds(args):
    config = build_config(args.config, **_overrides(args))
    report = check_bounds(config)
    print(report.to_text())
    return 0 if report.all_passed else 3


def cmd_gen_signal(args):
    config = build_config(args.config, **_overrides(args))
    model = synth_test_signal(config.signal_seed, config.k_range, config.target_sup)
    out = _outdir(args)
    path = out / "signal.csv"
    model.to_csv(path)
    print(
        f"signal with {model.ks.size} terms (seed {config.signal_seed}, "
        f"target sup {config.target_sup:g}) written to {path}"
    )
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
