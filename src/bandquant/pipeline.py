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

from .condense import (
    BoundReport,
    build_weight,
    condense,
    nu_beta,
    nu_sigma_delta,
    verify_condensation_bounds,
)
from .frame import (
    LAMBDA_MIN_FLOOR,
    FrameFailure,
    FrameSystem,
    assemble_frame,
    frame_bound_report,
    reconstruct,
)
from .generator import TAIL_TOLERANCE, Generator, GeneratorParams, KernelContext
from .quantize import (
    MidriseAlphabet,
    difference_taps,
    greedy_noise_shape,
    stability_margin,
)
from .sampling import BinningError, draw_samples, partition_bins
from .signals import project, projection_error_report, synth_test_signal

SCHEMES = ("msq", "sigma-delta", "beta")


class ConfigError(ValueError):
    """Raised when a run configuration is inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one experiment.

    scheme picks a member of the greedy quantizer family.  "msq" is the
    member without feedback: every sample is rounded alone to the midrise
    alphabet of half-step 1/(2 levels), so delta and p are not used and the
    quantizer state is the rounding error y - q.  The shaped schemes
    "sigma-delta" and "beta" bin, sign, noise-shape and condense their
    samples in p blocks of m // p.  gamma and t are the confidence parameters
    of the frame concentration band (||nu||_2 / ||nu||_1)^2 [1 - gamma - 3t,
    1 + 3t] used by the bound audit.  At the defaults its lower end is
    negative (-0.617), so the lower edge reads vacuous on every draw and only
    the upper edge is tested.  At t = 0.2 (beta 5, block 15: band [0.183,
    1.067]) both edges are a real test, which 0, 6, 28 and 40 of 40 draws
    passed at p = 200, 400, 800 and 1600.
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
    gamma: float = 0.125
    t: float = 0.6


def validate(config: RunConfig):
    """Raise ConfigError listing the inconsistencies in the configuration.

    Every problem with a value all schemes read is listed, starting with
    every float field that is NaN or infinite; when there is none, the first
    problem with a value the configured scheme reads, or a negative
    stability margin at target_sup.
    """
    problems = [
        f"{name} must be finite, got {getattr(config, name)}"
        for name, kind in _FIELD_TYPE.items()
        if kind is float and not math.isfinite(getattr(config, name))
    ]
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
    if not 0 < config.gamma < 1:
        problems.append(f"gamma must lie in (0, 1), got {config.gamma}")
    if config.t <= 0:
        problems.append(f"t must be positive, got {config.t}")
    if config.levels < 1:
        problems.append(f"levels must be >= 1, got {config.levels}")
    if not problems:
        try:
            _, taps, _, alphabet, _ = _scheme(config)
            margin = stability_margin(taps, config.target_sup, alphabet)
        except ValueError as exc:
            problems.append(str(exc))
        else:
            if margin < 0:
                problems.append(
                    f"stability margin {margin:.6g} at target_sup={config.target_sup:g} "
                    "is negative, so the greedy state may leave the alphabet "
                    "half-step; raise levels or delta, or lower the feedback gain"
                )
    if problems:
        raise ConfigError("; ".join(problems))


def _scheme(config: RunConfig):
    """The configured member of the greedy quantizer family.

    Returns (p, taps, block, alphabet, nu): the block count, the feedback
    taps and restart length of the greedy recursion (None for one recursion
    over all samples), the alphabet and the condensation row nu.  This is
    the one place that checks and splits m into p blocks; everything
    downstream reads the block length as nu.size.  MSQ is the member without
    feedback, H = I: one block per sample, no taps and restart length 1 (so
    the recursion rounds every sample in one numpy step), half-step
    1/(2 levels), and no nu, so its samples are neither binned, signed,
    weighted nor condensed.  The geometric scheme restarts at every
    condensation block; the difference scheme never restarts.  Raises
    ValueError when a value the scheme reads is out of range.
    """
    if config.scheme == "msq":
        alphabet = MidriseAlphabet(config.levels, 1.0 / (2.0 * config.levels))
        return config.m, (), 1, alphabet, None
    if config.p < 1 or config.m % config.p != 0:
        raise ValueError(
            f"sample budget m={config.m} must be a positive multiple of p={config.p}"
        )
    # The signals stay within target_sup <= 1, so a larger half-step rounds
    # every sample to +-delta; near 1e154 its errors also overflow err**2.
    if config.delta > 1:
        raise ValueError(
            f"alphabet half-step delta must be at most 1, the signals' amplitude "
            f"bound, got {config.delta}"
        )
    block = config.m // config.p
    alphabet = MidriseAlphabet(config.levels, config.delta)
    if config.scheme == "sigma-delta":
        # nu first: it names the compatible block lengths, and its checks
        # come before any float of a binomial tap can overflow.
        nu = nu_sigma_delta(config.order, block)
        return config.p, difference_taps(config.order), None, alphabet, nu
    return config.p, (float(config.beta),), block, alphabet, nu_beta(config.beta, block)


def _draw(config: RunConfig, nu, points=None):
    """Sample coordinates in quantization order, and their bins.

    points are the draw of config.m and config.seed, drawn here when not
    given.  Without nu they are used as they come and the bins are None;
    with it they are binned in blocks of nu.size.
    """
    if points is None:
        points = draw_samples(config.m, config.R, config.eps, config.seed)
    if nu is None:
        return points, None
    binned = partition_bins(points, config.R, config.eps, nu.size, config.seed)
    return binned.coordinates, binned


# Sample rows per chunk of the shaped frame, rounded down to whole blocks:
# 4096 kernel rows of 45 values are 1.5 MB, so the frame holds its p x d
# analysis rows and one chunk instead of the m x d sample matrix.
_FRAME_CHUNK_ROWS = 1 << 12


def _frame(config: RunConfig, ctx: KernelContext, coords, binned, nu, rows=None):
    """Frame of the samples at coords, and the measurement map it was built for.

    Without nu the analysis matrix is the plain sample matrix and the map is
    the identity.  Otherwise the analysis matrix is W V S G, for the signs S
    of binned, condensation V = condense(nu, .) and weights W, and the map
    W V takes signed samples to one measurement per block of nu.size.  Its
    rows are read, signed and condensed a chunk of whole blocks at a time;
    condensation sums within a block and the rest is elementwise, so the
    chunks give the bits of one pass over G.  G's rows are read from the
    kernel, or, when rows holds the kernel rows of the whole draw in draw
    order, gathered from rows at the draw positions of the samples; a row
    reads the same bits either way.
    """
    if nu is None:
        if rows is None:
            rows = ctx.kernel_coefficients(coords)
        return assemble_frame(rows, ctx), np.asarray
    block, signs = nu.size, binned.signs
    step = max(1, _FRAME_CHUNK_ROWS // block)
    B = np.empty((binned.block_counts[-1], ctx.dimension))
    for lo in range(0, B.shape[0], step):
        chunk = slice(lo * block, (lo + step) * block)
        if rows is None:
            G = ctx.kernel_coefficients(coords[chunk])
        else:
            G = rows[binned.positions[chunk]]
        G *= signs[chunk, None]
        B[lo : lo + step] = condense(nu, G)
    weight = build_weight(binned.block_counts, config.R, config.eps)
    B *= weight[:, None]
    return assemble_frame(B, ctx), lambda q: weight * condense(nu, q)


@functools.lru_cache(maxsize=4)
def shared_generator(params: GeneratorParams):
    """Process-wide generator cache: one table per parameter set."""
    return Generator(params)


# The last unit of the generator's table, where tail_level is read.
_TAIL_SPAN = f"[{GeneratorParams.tail_cut - 1:g}, {GeneratorParams.tail_cut:g}]"


def _generator(config: RunConfig):
    """The shared generator of config.lam; ConfigError when its table cuts g
    where it is still above TAIL_TOLERANCE."""
    generator = shared_generator(GeneratorParams(lam=config.lam))
    if generator.tail_level > TAIL_TOLERANCE:
        raise ConfigError(
            f"oversampling ratio {config.lam:g} is too close to 1 for the generator "
            f"table: max |g| on {_TAIL_SPAN}, where the table ends, is "
            f"{generator.tail_level:.3g}, above {TAIL_TOLERANCE:g}"
        )
    return generator


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
    """Everything produced by one run, for report files and inspection.

    measure is the run's measurement map: it takes signed samples, y or q,
    to the measurements reconstruct reads against system.
    """

    report: RunReport
    signal: object
    grid: np.ndarray
    signal_values: np.ndarray
    recon_values: np.ndarray
    y: np.ndarray
    q: np.ndarray
    state: np.ndarray
    binned: object
    system: FrameSystem
    measure: object


@dataclass(frozen=True)
class _Grid:
    """What a run is judged on, whatever m and its scheme: the signal, its
    kernel window, the grid_points points of [-R, R] and the signal's values
    and the kernel's rows there."""

    signal: object
    ctx: KernelContext
    points: np.ndarray
    signal_values: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, config: RunConfig, generator, signal):
        ctx = KernelContext.from_box(generator, config.R, config.eps)
        points = np.linspace(-config.R, config.R, config.grid_points)
        values = np.asarray(signal.eval(points), dtype=float)
        return cls(signal, ctx, points, values, ctx.kernel_coefficients(points))


def run_detailed(config: RunConfig, signal=None):
    """Run one experiment and return the full artifact bundle.

    Every scheme takes the same steps: draw, bin, evaluate the signal,
    quantize with the greedy recursion, assemble the frame, reconstruct and
    evaluate on grid_points points of [-R, R]; the scheme only chooses the
    feedback taps, the restart length, the alphabet and the condensation row
    (see _scheme).
    signal overrides synthesis when already available, and elapsed_s starts
    once the shared generator and the signal exist.  validate checks the
    stability margin at config.target_sup; samples that reach a negative
    margin, or that are not finite, raise ValueError, and so (as ConfigError)
    does a lam whose generator table is cut where |g| exceeds TAIL_TOLERANCE.
    """
    validate(config)
    generator = _generator(config)
    if signal is None:
        signal = synth_test_signal(config.signal_seed, config.k_range, config.target_sup)
    t0 = time.perf_counter()
    return _run_stages(config, _Grid.of(config, generator, signal), t0)


def _run_stages(config: RunConfig, grid: _Grid, t0, points=None, rows=None):
    """The run of config from its draw to the error on the grid.

    A sweep trial passes the drawn points and the kernel rows of all of
    them, which it makes once for every scheme; a single run draws here,
    and its frame streams the rows.  elapsed_s counts from t0.
    """
    p, taps, block, alphabet, nu = _scheme(config)
    coords, binned = _draw(config, nu, points)
    y = np.asarray(grid.signal.eval(coords), dtype=float)
    if binned is not None:
        y = binned.signs * y
    result = greedy_noise_shape(y, taps, alphabet, block)
    system, measure = _frame(config, grid.ctx, coords, binned, nu, rows)
    coefficients = reconstruct(system, measure(result.q))
    recon_values = grid.rows @ coefficients
    err = grid.signal_values - recon_values
    report = RunReport(
        scheme=config.scheme,
        m=config.m,
        p=p,
        seed=config.seed,
        sup_error=float(np.max(np.abs(err))),
        rms_error=float(np.sqrt(np.mean(err**2))),
        lam_min=system.lam_min,
        lam_max=system.lam_max,
        max_state=result.max_state,
        discarded=config.m - y.size,
        elapsed_s=time.perf_counter() - t0,
    )
    return RunArtifacts(
        report=report,
        signal=grid.signal,
        grid=grid.points,
        signal_values=grid.signal_values,
        recon_values=recon_values,
        y=y,
        q=result.q,
        state=result.u,
        binned=binned,
        system=system,
        measure=measure,
    )


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

    Trial k of every cell is run_detailed at sampling seed config.seed + k
    with the signal held fixed, so all schemes of a trial quantize the same
    draw.  The sweep draws it once per (m, trial) and reads the kernel rows
    of all m points once, m x d floats (17 MB at m = 48 000 and d = 45, as
    much as an msq run holds), which every scheme's frame then gathers from;
    the grid and the signal's and kernel's values on it are made once per
    sweep.  Each scheme still evaluates the signal at its own samples.
    Frame failures and binning shortfalls are counted per cell and excluded
    from the error mean; a cell where every trial fails reports a NaN mean,
    and ``bandquant sweep`` then exits 3 after writing its files.
    An empty list of budgets or schemes or any cell that fails validate
    raises ConfigError before the first trial.
    """
    ms = [config.m] if ms is None else [int(v) for v in ms]
    schemes = [config.scheme] if schemes is None else list(schemes)
    for name, values in (("sample budget", ms), ("scheme", schemes)):
        if not values:
            raise ConfigError(f"sweep needs at least one {name}")
    cells = {(s, m): dataclasses.replace(config, scheme=s, m=m) for s in schemes for m in ms}
    for cell in cells.values():
        validate(cell)
    signal = synth_test_signal(config.signal_seed, config.k_range, config.target_sup)
    grid = _Grid.of(config, _generator(config), signal)
    sups = {key: [] for key in cells}
    failures = dict.fromkeys(cells, 0)
    for m in dict.fromkeys(ms):
        for trial in range(config.trials):
            points = draw_samples(m, config.R, config.eps, config.seed + trial)
            rows = grid.ctx.kernel_coefficients(points)
            for scheme in dict.fromkeys(schemes):
                trial_config = dataclasses.replace(cells[scheme, m], seed=config.seed + trial)
                t0 = time.perf_counter()
                try:
                    report = _run_stages(trial_config, grid, t0, points, rows).report
                except (FrameFailure, BinningError):
                    failures[scheme, m] += 1
                else:
                    sups[scheme, m].append(report.sup_error)
    return [
        SweepRow(
            scheme=s,
            m=m,
            p=_scheme(cells[s, m])[0],
            mean_sup_error=float(np.mean(sups[s, m])) if sups[s, m] else math.nan,
            failures=failures[s, m],
        )
        for s in schemes
        for m in ms
    ]


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

    Checks shift orthonormality, the level at which the table cuts g (run
    and sweep reject one above TAIL_TOLERANCE) and the kernel diagonal bound
    for the generator, the condensation operator-norm bound for the
    configured scheme, the projection truncation bound for the configured
    signal, and the concentration band for one assembled frame.  When that
    frame cannot be formed, its failing line compares LAMBDA_MIN_FLOOR *
    lam_max with lam_min for a singular frame operator, or the block length
    with the short bin's sample count for a binning failure.
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
    lines.append(
        BoundReport(
            label=f"generator tail max |g| on {_TAIL_SPAN}",
            lhs=generator.tail_level,
            rhs=TAIL_TOLERANCE,
        )
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

    _, _, _, _, nu = _scheme(config)
    if config.scheme == "sigma-delta":
        lines.append(verify_condensation_bounds(nu.size, config.p, order=config.order))
    elif config.scheme == "beta":
        lines.append(verify_condensation_bounds(nu.size, config.p, beta=config.beta))

    signal = synth_test_signal(config.signal_seed, config.k_range, config.target_sup)
    pf = project(signal, generator, config.R, config.eps)
    try:
        lines.append(projection_error_report(signal, pf, config.R, r=config.r))
    except ValueError as exc:
        # No certified decay constant, so no bound: the line fails.
        label = f"projection truncation bound (r={config.r}; {exc})"
        lines.append(BoundReport(label=label, lhs=math.nan, rhs=math.nan))

    if nu is not None:
        try:
            coords, binned = _draw(config, nu)
            system, _ = _frame(config, ctx, coords, binned, nu)
        except FrameFailure as exc:
            lines.append(
                BoundReport(
                    label=f"frame spectrum ({exc})",
                    lhs=LAMBDA_MIN_FLOOR * exc.lam_max,
                    rhs=exc.lam_min,
                )
            )
        except BinningError as exc:
            lines.append(
                BoundReport(
                    label=f"frame binning ({exc})",
                    lhs=float(exc.block),
                    rhs=float(exc.samples),
                )
            )
        else:
            lines.extend(frame_bound_report(system, nu, config.gamma, config.t))

    return BoundsReport(lines=tuple(lines))


# --- configuration file handling -------------------------------------------

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

# Annotations are postponed, so each field's type is its name.
_FIELD_TYPE = {
    f.name: {"int": int, "float": float}.get(f.type, str)
    for f in dataclasses.fields(RunConfig)
}


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
    """Read an INI file into the keyword overrides it defines.

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
    overrides = {}
    known = {(section, key) for _, section, key, _, _ in _CONFIG_LAYOUT}
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown configuration key [{section}] {key} in {path}")
    for field, section, key, _, _ in _CONFIG_LAYOUT:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                overrides[field] = _read_value(field, raw, lists)
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
