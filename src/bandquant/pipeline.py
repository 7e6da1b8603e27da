"""End-to-end experiment pipeline: configuration, single runs, sweeps, audits.

A run synthesises (or accepts) a bandlimited signal, draws random samples,
quantizes them under the configured scheme, and reconstructs an element of
the finite generator span from the quantized data; reports compare the
reconstruction against the true signal on an evaluation grid.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import svg, table
from .condense import (
    BlockCondensation,
    BoundReport,
    build_weight,
    nu_beta,
    nu_sigma_delta,
    verify_condensation_bounds,
)
from .frame import (
    FrameFailure,
    FrameSystem,
    assemble_frame,
    frame_bound_report,
    reconstruct,
    sample_matrix,
)
from .generator import Generator, GeneratorParams, KernelContext
from .quantize import (
    MidriseAlphabet,
    TransferOperator,
    greedy_noise_shape,
    stability_margin,
)
from .sampling import BinningError, SampleConfig, draw_samples, partition_bins
from .signals import (
    CoefficientVector,
    project,
    projection_error_report,
    synth_test_signal,
)

SCHEMES = ("msq", "sigma-delta", "beta")


class ConfigError(ValueError):
    """Raised when a run configuration is inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one experiment.

    scheme is "msq" (memoryless rounding of every sample to the midrise
    alphabet of half-step 1/(2 levels); delta is not used) or one of the
    shaped schemes "sigma-delta" and "beta", whose samples are binned,
    noise-shaped and condensed.  gamma and t are the confidence parameters
    of the frame concentration band used by the bound audit; the default t
    is sized so that typical draws at the default (desk-scale) p sit inside
    the band, and can be tightened for larger block counts.
    """

    lam: float = 2.0
    eps: float = 0.5
    R: float = 5.0
    r: int = 11
    m: int = 3000
    p: int = 200
    seed: int = 1
    trials: int = 5
    scheme: str = "beta"
    levels: int = 10
    delta: float = 0.1
    beta: float = 5.0
    order: int = 7
    signal_seed: int = 1
    k_range: int = 12
    target_sup: float = 0.9
    grid_points: int = 200
    interval: float = 5.0
    gamma: float = 0.125
    t: float = 0.6


def validate(config: RunConfig):
    """Raise ConfigError listing every inconsistency in the configuration."""
    problems = []
    if config.scheme not in SCHEMES:
        problems.append(f"unknown scheme {config.scheme!r}; expected one of {SCHEMES}")
    if config.lam <= 1:
        problems.append(f"oversampling ratio must exceed 1, got {config.lam}")
    if config.R <= 0:
        problems.append(f"R must be positive, got {config.R}")
    if config.eps <= 0:
        problems.append(f"eps must be positive, got {config.eps}")
    elif config.eps * config.R < 1.0:
        problems.append(
            f"shell width eps*R must be at least 1, got {config.eps * config.R}"
        )
    if config.r < 2:
        problems.append(f"decay exponent r must be at least 2, got {config.r}")
    if config.m < 1:
        problems.append(f"sample budget m must be positive, got {config.m}")
    if config.scheme != "msq":
        if config.p < 1:
            problems.append(f"block count p must be positive, got {config.p}")
        elif config.m % config.p != 0:
            problems.append(
                f"sample budget m={config.m} must be a multiple of p={config.p}"
            )
        elif config.scheme == "sigma-delta":
            block = config.m // config.p
            if config.order < 1:
                problems.append(f"difference order must be >= 1, got {config.order}")
            else:
                try:
                    nu_sigma_delta(config.order, block)
                except ValueError as exc:
                    problems.append(str(exc))
        if config.scheme == "beta" and config.beta <= 1:
            problems.append(f"geometric weight beta must exceed 1, got {config.beta}")
    if config.levels < 1:
        problems.append(f"levels must be >= 1, got {config.levels}")
    if config.scheme != "msq" and config.delta <= 0:
        problems.append(f"delta must be positive, got {config.delta}")
    if config.seed < 0 or config.signal_seed < 0:
        problems.append("seeds must be non-negative")
    if config.trials < 1:
        problems.append(f"trials must be >= 1, got {config.trials}")
    if not 0 < config.target_sup <= 1:
        problems.append(f"target_sup must lie in (0, 1], got {config.target_sup}")
    if config.k_range < 0:
        problems.append(f"k_range must be non-negative, got {config.k_range}")
    if config.grid_points < 2:
        problems.append(f"grid_points must be >= 2, got {config.grid_points}")
    if config.interval <= 0:
        problems.append(f"interval must be positive, got {config.interval}")
    if not 0 < config.gamma < 1:
        problems.append(f"gamma must lie in (0, 1), got {config.gamma}")
    if config.t <= 0:
        problems.append(f"t must be positive, got {config.t}")
    if not problems and config.scheme != "msq":
        op, _ = _quantizer_parts(config, config.m, config.m // config.p)
        alphabet = MidriseAlphabet(config.levels, config.delta)
        margin = stability_margin(op, config.target_sup, alphabet)
        if margin < 0:
            problems.append(
                f"stability margin {margin:.6g} at target_sup={config.target_sup:g} "
                "is negative, so the greedy state may grow without bound; raise "
                "levels or delta, or lower the feedback gain"
            )
    if problems:
        raise ConfigError("; ".join(problems))


@functools.lru_cache(maxsize=4)
def shared_generator(params: GeneratorParams):
    """Process-wide generator cache: one table per parameter set."""
    return Generator(params)


@dataclass(frozen=True)
class RunReport:
    """Summary of one reconstruction run."""

    scheme: str
    m: int
    p: int
    seed: int
    sup_error: float
    rms_error: float
    lam_min: float
    lam_max: float
    max_state: float
    discarded: int
    # Runtime differs between reruns; three decimals are enough.
    elapsed_s: float = dataclasses.field(metadata={"conversion": "%.3f"})


@dataclass(frozen=True)
class RunArtifacts:
    """Everything produced by one run, for report files and inspection."""

    report: RunReport
    signal: object
    recon: CoefficientVector
    grid: np.ndarray
    signal_values: np.ndarray
    recon_values: np.ndarray
    y: np.ndarray
    q: np.ndarray
    state: np.ndarray
    binned: object
    points: np.ndarray
    system: FrameSystem


def _quantizer_parts(config: RunConfig, size, block):
    """Transfer operator and condensation row for a shaped scheme."""
    if config.scheme == "sigma-delta":
        return (
            TransferOperator.sigma_delta(config.order, size),
            nu_sigma_delta(config.order, block),
        )
    return (
        TransferOperator.beta_block(config.beta, size, block),
        nu_beta(config.beta, block),
    )


def _shaped_frame(config: RunConfig, binned, ctx: KernelContext, nu):
    """Frame of the weighted, condensed, sign-flipped binned samples."""
    return assemble_frame(
        sample_matrix(binned.coordinates(), ctx),
        ctx,
        weight=build_weight(binned.block_counts, config.R, config.eps),
        condenser=BlockCondensation(nu=nu, blocks=binned.block_counts[-1]),
        signs=binned.sign_vector(),
    )


def run_detailed(config: RunConfig, sample_seed=None, signal=None, generator=None):
    """Run one experiment and return the full artifact bundle.

    sample_seed overrides config.seed for the sampling/sign streams (used by
    sweeps to vary trials while keeping the signal fixed); signal and
    generator override synthesis and construction when already available.
    validate checks the stability margin at config.target_sup; a shaped run
    whose samples reach a negative margin raises ValueError.
    """
    validate(config)
    t0 = time.perf_counter()
    seed = config.seed if sample_seed is None else int(sample_seed)
    if generator is None:
        generator = shared_generator(GeneratorParams(lam=config.lam))
    if signal is None:
        signal = synth_test_signal(config.signal_seed, config.k_range, config.target_sup)
    ctx = KernelContext.from_box(generator, config.R, config.eps)

    if config.scheme == "msq":
        sample_cfg = SampleConfig(
            m=config.m, p=config.m, R=config.R, eps=config.eps, seed=seed
        )
        points = draw_samples(sample_cfg)
        y = np.asarray(signal.eval(points), dtype=float)
        q = MidriseAlphabet(config.levels, 1.0 / (2.0 * config.levels)).nearest(y)
        state = np.zeros_like(q)
        max_state = 0.0
        system = assemble_frame(sample_matrix(points, ctx), ctx)
        coeffs = reconstruct(system, q)
        binned = None
        discarded = 0
        p_used = config.m
    else:
        sample_cfg = SampleConfig(
            m=config.m, p=config.p, R=config.R, eps=config.eps, seed=seed
        )
        points = draw_samples(sample_cfg)
        binned = partition_bins(points, sample_cfg)
        coords = binned.coordinates()
        y = binned.sign_vector() * np.asarray(signal.eval(coords), dtype=float)
        op, nu = _quantizer_parts(config, coords.size, binned.block)
        alphabet = MidriseAlphabet(config.levels, config.delta)
        result = greedy_noise_shape(y, op, alphabet)
        q, state, max_state = result.q, result.u, result.max_state
        system = _shaped_frame(config, binned, ctx, nu)
        coeffs = reconstruct(system, q)
        discarded = binned.discarded
        p_used = config.p

    recon = CoefficientVector(values=coeffs, context=ctx)
    grid = np.linspace(-config.interval, config.interval, config.grid_points)
    signal_values = np.asarray(signal.eval(grid), dtype=float)
    recon_values = recon.eval(grid)
    err = signal_values - recon_values
    report = RunReport(
        scheme=config.scheme,
        m=config.m,
        p=p_used,
        seed=seed,
        sup_error=float(np.max(np.abs(err))),
        rms_error=float(np.sqrt(np.mean(err**2))),
        lam_min=system.lam_min,
        lam_max=system.lam_max,
        max_state=max_state,
        discarded=discarded,
        elapsed_s=time.perf_counter() - t0,
    )
    return RunArtifacts(
        report=report,
        signal=signal,
        recon=recon,
        grid=grid,
        signal_values=signal_values,
        recon_values=recon_values,
        y=y,
        q=q,
        state=state,
        binned=binned,
        points=points,
        system=system,
    )


def run_once(config: RunConfig, sample_seed=None, signal=None, generator=None):
    """Run one experiment and return its report."""
    return run_detailed(
        config, sample_seed=sample_seed, signal=signal, generator=generator
    ).report


@dataclass(frozen=True)
class SweepRow:
    """Aggregate of the trials for one (scheme, m) cell."""

    scheme: str
    m: int
    p: int
    mean_sup_error: float
    failures: int


def sweep(config: RunConfig, ms=None, schemes=None):
    """Run config.trials trials per (scheme, m) cell and aggregate.

    Trial k uses sampling seed config.seed + k with the signal held fixed.
    Frame failures and binning shortfalls are counted per cell and excluded
    from the error mean; a cell where every trial fails reports a NaN mean.
    An empty list of budgets or schemes raises ConfigError.
    """
    ms = [config.m] if ms is None else [int(v) for v in ms]
    schemes = [config.scheme] if schemes is None else list(schemes)
    for name, values in (("sample budget", ms), ("scheme", schemes)):
        if not values:
            raise ConfigError(f"sweep needs at least one {name}")
    generator = shared_generator(GeneratorParams(lam=config.lam))
    signal = synth_test_signal(config.signal_seed, config.k_range, config.target_sup)
    rows = []
    for scheme in schemes:
        for m in ms:
            cell = dataclasses.replace(config, scheme=scheme, m=m)
            validate(cell)
            sups = []
            failures = 0
            for trial in range(cell.trials):
                try:
                    report = run_once(
                        cell,
                        sample_seed=cell.seed + trial,
                        signal=signal,
                        generator=generator,
                    )
                except (FrameFailure, BinningError):
                    failures += 1
                else:
                    sups.append(report.sup_error)
            mean = float(np.mean(sups)) if sups else math.nan
            rows.append(
                SweepRow(
                    scheme=scheme,
                    m=m,
                    p=m if scheme == "msq" else cell.p,
                    mean_sup_error=mean,
                    failures=failures,
                )
            )
    return rows


def write_sweep_csv(path, rows):
    table.write_records(path, SweepRow, rows)


def write_sweep_chart(path, rows):
    """Log-y chart of mean sup error against m, one series per scheme."""
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row.scheme, []).append(row)
    series = []
    for scheme, cells in by_scheme.items():
        xs = [c.m for c in cells]
        ys = [c.mean_sup_error for c in cells]
        keep = [
            (x, y) for x, y in zip(xs, ys) if not math.isnan(y) and y > 0
        ]
        if keep:
            series.append(
                (scheme, [x for x, _ in keep], [y for _, y in keep])
            )
    if not series:
        raise FrameFailure("every sweep cell failed; nothing to plot")
    svg.write_log_chart(
        path,
        series,
        title="Reconstruction error vs sample budget",
        x_label="samples m",
        y_label="mean sup error",
    )


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of the numerical audits for one configuration."""

    lines: tuple

    @property
    def all_passed(self):
        return all(line.passed for line in self.lines)

    def to_text(self):
        out = []
        for line in self.lines:
            if not line.passed:
                status = "FAIL"
            else:
                status = "vacuous" if line.vacuous else "ok"
            out.append(
                f"{line.label}: {line.lhs:.6g} <= {line.rhs:.6g} -> {status}"
            )
        return "\n".join(out)


def check_bounds(config: RunConfig):
    """Audit the inequalities the reconstruction guarantee rests on.

    Checks shift orthonormality and the kernel diagonal bound for the
    generator, the condensation operator-norm bound for the configured
    scheme, the projection truncation bound for the configured signal, and
    the concentration band for one assembled frame.
    """
    validate(config)
    generator = shared_generator(GeneratorParams(lam=config.lam))
    lines = []

    defect = 0.0
    for k in range(0, 21):
        ip = generator.shift_inner_product(k)
        defect = max(defect, abs(ip - (1.0 if k == 0 else 0.0)))
    lines.append(
        BoundReport(label="shift orthonormality defect (|k| <= 20)", lhs=defect, rhs=1e-6)
    )

    ctx = KernelContext.from_box(generator, config.R, config.eps)
    span = ctx.half_width + 2.0
    xs = np.linspace(-span, span, 10001)
    diag = np.sum(ctx.kernel_coefficients(xs) ** 2, axis=1)
    lines.append(
        BoundReport(
            label="kernel diagonal sup",
            lhs=float(diag.max()),
            rhs=(2.0 * config.lam - 1.0) * (1.0 + 1e-6),
        )
    )

    if config.scheme in ("sigma-delta", "beta"):
        block = config.m // config.p
        kwargs = (
            {"order": config.order}
            if config.scheme == "sigma-delta"
            else {"beta": config.beta}
        )
        cond_line = verify_condensation_bounds(block, config.p, **kwargs)
        lines.append(
            BoundReport(
                label=f"condensation norm bound ({cond_line.label})",
                lhs=cond_line.lhs,
                rhs=cond_line.rhs,
            )
        )

    signal = synth_test_signal(config.signal_seed, config.k_range, config.target_sup)
    pf = project(signal, generator, config.R, config.eps)
    proj = projection_error_report(signal, pf, config.R, r=config.r)
    lines.append(
        BoundReport(
            label=f"projection truncation bound (r={config.r})",
            lhs=proj.measured,
            rhs=proj.bound,
        )
    )

    if config.scheme != "msq":
        sample_cfg = SampleConfig(
            m=config.m, p=config.p, R=config.R, eps=config.eps, seed=config.seed
        )
        try:
            binned = partition_bins(draw_samples(sample_cfg), sample_cfg)
            _, nu = _quantizer_parts(config, binned.total, binned.block)
            system = _shaped_frame(config, binned, ctx, nu)
        except (FrameFailure, BinningError) as exc:
            lines.append(
                BoundReport(label=f"frame spectrum ({exc})", lhs=1.0, rhs=0.0)
            )
        else:
            band = frame_bound_report(system, config.gamma, config.t)
            lines.append(
                BoundReport(
                    label="frame spectrum lower edge",
                    lhs=band.lower,
                    rhs=band.lam_min,
                    # The frame operator is positive semidefinite.
                    vacuous=band.lower <= 0.0,
                )
            )
            lines.append(
                BoundReport(
                    label="frame spectrum upper edge",
                    lhs=band.lam_max,
                    rhs=band.upper,
                )
            )

    return BoundsReport(lines=tuple(lines))


# --- configuration file handling -------------------------------------------

# (field, section, key in file) for every configurable value.
_CONFIG_LAYOUT = (
    ("lam", "experiment", "lambda"),
    ("eps", "experiment", "eps"),
    ("R", "experiment", "R"),
    ("r", "experiment", "r"),
    ("m", "experiment", "m"),
    ("p", "experiment", "p"),
    ("seed", "experiment", "seed"),
    ("trials", "experiment", "trials"),
    ("scheme", "experiment", "scheme"),
    ("levels", "quantizer", "levels"),
    ("delta", "quantizer", "delta"),
    ("beta", "quantizer", "beta"),
    ("order", "quantizer", "order"),
    ("signal_seed", "signal", "seed"),
    ("k_range", "signal", "k_range"),
    ("target_sup", "signal", "target_sup"),
    ("grid_points", "eval", "grid_points"),
    ("interval", "eval", "interval"),
    ("gamma", "bounds", "gamma"),
    ("t", "bounds", "t"),
)


def load_config(path):
    """Read an INI file into the keyword overrides it defines.

    Keys are case-sensitive ([experiment] has both R and r), a ";" after a
    value starts a comment, and values are read as written (no "%"
    interpolation).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    # Annotations are postponed, so each field's type is its name.
    convert = {"int": int, "float": float}
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    overrides = {}
    known = {(section, key) for _, section, key in _CONFIG_LAYOUT}
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown configuration key [{section}] {key} in {path}")
    for field, section, key in _CONFIG_LAYOUT:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                overrides[field] = convert.get(types[field], str)(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key} in {path}: {raw}") from exc
    return overrides


def build_config(file_path=None, **cli_overrides):
    """Defaults, overlaid with the config file, overlaid with CLI values."""
    overrides = {}
    if file_path is not None:
        overrides.update(load_config(file_path))
    for key, value in cli_overrides.items():
        if value is not None:
            overrides[key] = value
    return RunConfig(**overrides)
