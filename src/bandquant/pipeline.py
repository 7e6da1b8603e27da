"""End-to-end experiment pipeline: configuration, single runs, sweeps, audits.

A run synthesises (or accepts) a bandlimited signal, draws random samples,
quantizes them under the configured scheme, and reconstructs an element of
the finite generator span from the quantized data; reports compare the
reconstruction against the true signal on an evaluation grid.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .condense import (
    BoundReport,
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
from .sampling import BinningError, draw_samples, geometry_problems, partition_bins, span_window
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


# Annotations are postponed, so each field's type is its name.
_FIELD_TYPE = {
    f.name: {"int": int, "float": float}.get(f.type, str)
    for f in dataclasses.fields(RunConfig)
}


def validate(config: RunConfig):
    """Raise ConfigError listing the inconsistencies in the configuration.

    Every problem with a value all schemes read is listed, starting with
    every float field that is not a real number or is NaN or infinite and
    every int field that is not a whole number; when a numeric field holds
    no real number at all, only these are listed, since no range check can
    read it.  When there is no problem, the first problem with a value the
    configured scheme reads, or else a negative stability margin at
    target_sup and fewer analysis rows (p, or m for msq) than the d shifts
    of the span, which leaves every frame singular.
    """
    problems = []
    unreadable = False
    for name, kind in _FIELD_TYPE.items():
        value = getattr(config, name)
        real = isinstance(value, numbers.Real)
        unreadable |= kind is not str and not real
        if kind is float and not real:
            problems.append(f"{name} must be a real number, got {value!r}")
        elif kind is float and not math.isfinite(value):
            problems.append(f"{name} must be finite, got {value}")
        elif kind is int and not isinstance(value, numbers.Integral):
            problems.append(f"{name} must be a whole number, got {value}")
    if unreadable:
        raise ConfigError("; ".join(problems))
    if config.scheme not in SCHEMES:
        problems.append(f"unknown scheme {config.scheme!r}; expected one of {SCHEMES}")
    if config.lam <= 1:
        problems.append(f"oversampling ratio must exceed 1, got {config.lam}")
    problems += geometry_problems(config.R, config.eps, config.lam)
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
            rows, taps, _, alphabet, _ = _scheme(config)
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
            d = 2 * span_window(config.lam, config.R, config.eps)[0] + 1
            if rows < d:
                count = "m" if config.scheme == "msq" else "p"
                problems.append(
                    f"{count}={rows} gives at most {rows} analysis rows for the d={d} "
                    f"shifts of lambda={config.lam:g}, R={config.R:g} and "
                    f"eps={config.eps:g}, so every frame is singular; raise {count} "
                    f"to at least {d}"
                )
    if problems:
        # The geometry repeats the message for a non-finite R, eps or lam.
        raise ConfigError("; ".join(dict.fromkeys(problems)))


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


# Sample rows per chunk of the frame, rounded down to whole blocks for a
# shaped frame: 4096 kernel rows of 45 values are 1.5 MB, so a frame holds
# its sums and at most two chunks, the one it reads and the one it read
# before, never the m x d sample matrix or the p x d analysis matrix.
_FRAME_CHUNK_ROWS = 1 << 12


def _frame(ctx: KernelContext, m, binned, nu, rows, signals):
    """Frame of a draw of m samples, and the analysis adjoint of each signal.

    rows(positions) returns the kernel rows of the draw's samples at
    positions, a slice or an index array: a run computes them from its
    points, a sweep trial reads them from the rows of its whole draw (a
    view for a slice, a new array for an index array), and a row reads the
    same bits either way.  signals holds signed samples, m values each (q
    and y for a run, none for an audit); the adjoint B^T v of each is
    formed in the same pass over the rows as the frame operator B^T B, so
    every row is read once.

    Without nu the analysis matrix B is the plain sample matrix G and v is
    the signal itself.  Otherwise B is W V S G, for the signs S and block
    weights W of binned and condensation V = condense(nu, .), so one row per
    weight, and v = W V s for each signal s; condensation sums within a
    block and the rest is elementwise, so a chunk of whole blocks of G gives
    its rows of B.  Either way the rows are read _FRAME_CHUNK_ROWS at a
    time, and each chunk's B^T B (one BLAS syrk) and B^T v are added up, so
    these sums group their terms by chunk.  Adjoints are summed by einsum,
    not a threaded BLAS product, so their bits do not depend on the BLAS
    thread count.
    """
    d = ctx.dimension
    S = np.zeros((d, d))
    adjoints = [np.zeros(d) for _ in signals]
    block = 1 if nu is None else nu.size
    if nu is not None:
        signals = [binned.weights * condense(nu, s) for s in signals]
    step = max(1, _FRAME_CHUNK_ROWS // block)
    for lo in range(0, m if nu is None else binned.weights.size, step):
        chunk = slice(lo, lo + step)
        if nu is None:
            B = rows(chunk)
        else:
            samples = slice(lo * block, (lo + step) * block)
            G = rows(binned.positions[samples])
            G *= binned.signs[samples, None]
            B = binned.weights[chunk, None] * condense(nu, G)
        S += B.T @ B
        for adjoint, v in zip(adjoints, signals):
            adjoint += np.einsum("ij,i->j", B, v[chunk])
    return assemble_frame(S, ctx), adjoints


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

    adjoint_y is the analysis adjoint of the unquantized samples y, formed
    in the same pass over the rows as the frame, so reconstruct(system,
    adjoint_y) gives R y without reading a row again.
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
    adjoint_y: np.ndarray


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
    grid = _Grid.of(config, generator, signal)
    spec = _scheme(config)
    points = draw_samples(config.m, config.R, config.eps, config.seed)
    binned, y = _signed_samples(config, points, spec[4], lambda i: grid.signal.eval(points[i]))
    return _run_stages(
        config, spec, grid, t0, binned, y, lambda i: grid.ctx.kernel_coefficients(points[i])
    )


def _signed_samples(config: RunConfig, points, nu, values):
    """The binning of config's drawn points and the quantizer's input y.

    values reads the signal's values at given positions of points,
    slice(None) for all of them or else an index array.  Without nu (msq)
    nothing is binned and y holds every sample's value.  Otherwise the
    points are binned in blocks of nu.size at config.seed, which raises
    BinningError when a bin holds less than one block, and y = signs *
    values(positions).  The binning depends on the points, R, eps, the
    block length and the seed alone, so the shaped schemes of one sweep
    trial share it and y.
    """
    if nu is None:
        return None, values(slice(None))
    binned = partition_bins(points, config.R, config.eps, nu.size, config.seed)
    return binned, binned.signs * values(binned.positions)


def _run_stages(config: RunConfig, spec, grid: _Grid, t0, binned, y, rows):
    """The run of config on its signed samples, from the greedy recursion to
    the error on the grid.

    spec is _scheme(config), and binned and y are _signed_samples of the
    run's draw.  rows reads the kernel rows of the drawn points at given
    positions, a slice or an index array (see _frame).  A single run
    computes every one of these for itself.  A sweep makes spec once per
    cell, binned and y once per (m, trial) for all its shaped schemes, and
    reads rows from the kernel rows of all the trial's points, which it
    builds once for every scheme; only the recursion, the frame, the solve
    and the grid error are a scheme's own.  elapsed_s
    counts from t0.
    """
    p, taps, block, alphabet, nu = spec
    result = greedy_noise_shape(y, taps, alphabet, block)
    system, (adjoint_q, adjoint_y) = _frame(grid.ctx, config.m, binned, nu, rows, (result.q, y))
    coefficients = reconstruct(system, adjoint_q)
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
        adjoint_y=adjoint_y,
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
    draw.  Each step runs once at the level where its inputs change:
    - per sweep, the signal, the grid and the signal's and kernel's values
      on it;
    - per cell, the scheme's taps, restart length, alphabet and nu
      (_scheme);
    - per (m, trial), the draw, the signal's sinc basis and the kernel rows
      of all m points, m x K and m x d floats (9.6 and 17 MB at m = 48 000,
      K = 25 and d = 45), and, for all shaped schemes at once, since they
      all have blocks of m // p, the binning and the signed samples
      (_signed_samples); a BinningError there fails that trial of every
      shaped cell;
    - per scheme and trial, the greedy recursion, the frame, the solve and
      the error on the grid (_run_stages).
    The samples' values are products of the gathered basis rows with the
    coefficients, over exactly the rows a run's evaluation builds, so they
    round as the run's do.  A frame adds up its chunk sums over the trial's
    kernel rows cut at the rows and blocks a run cuts, an msq frame reading
    views of consecutive rows and a shaped one rows gathered by position,
    so its sums match the run's bit for bit, although the trial still holds
    all m x d rows while a run holds at most two chunks of them.
    Frame failures and binning shortfalls are counted per cell and excluded
    from the error mean; a cell where every trial fails reports a NaN mean,
    and ``bandquant sweep`` then exits 3 after writing its files.
    An empty or repeating list of budgets or schemes, or any cell that fails
    validate, raises ConfigError before the first trial.
    """
    ms = [config.m] if ms is None else list(ms)
    schemes = [config.scheme] if schemes is None else list(schemes)
    for name, values in (("sample budget", ms), ("scheme", schemes)):
        if not values:
            raise ConfigError(f"sweep needs at least one {name}")
        for v in values:
            if values.count(v) > 1:
                raise ConfigError(f"sweep lists the {name} {v!r} more than once")
    cells = {(s, m): dataclasses.replace(config, scheme=s, m=m) for s in schemes for m in ms}
    for cell in cells.values():
        validate(cell)
    specs = {key: _scheme(cell) for key, cell in cells.items()}
    signal = synth_test_signal(config.signal_seed, config.k_range, config.target_sup)
    grid = _Grid.of(config, _generator(config), signal)
    sups = {key: [] for key in cells}
    failures = dict.fromkeys(cells, 0)
    # A trial's arrays live until the next trial's replace them.  Freeing
    # them at the end of each trial, in a helper function, let the heap
    # shrink and fault its pages back in on every trial: 2.6 times the page
    # faults of this loop over 150 sweeps of msq, beta and sigma-delta at
    # m = 3000, 4 trials each.
    for m in ms:
        # Every shaped cell at m has blocks of m // p, so all bin alike.
        nu = next((specs[s, m][4] for s in schemes if specs[s, m][4] is not None), None)
        for trial in range(config.trials):
            seed = config.seed + trial
            points = draw_samples(m, config.R, config.eps, seed)
            basis = signal.basis(points)
            values = lambda i: basis[i] @ signal.coeffs
            rows = grid.ctx.kernel_coefficients(points).__getitem__
            shared = None
            if nu is not None:
                try:
                    shared = _signed_samples(
                        dataclasses.replace(config, seed=seed), points, nu, values
                    )
                except BinningError:
                    pass
            for scheme in schemes:
                spec = specs[scheme, m]
                t0 = time.perf_counter()
                samples = shared if spec[4] is not None else (None, values(slice(None)))
                if samples is None:
                    failures[scheme, m] += 1
                    continue
                trial_config = dataclasses.replace(cells[scheme, m], seed=seed)
                try:
                    report = _run_stages(trial_config, spec, grid, t0, *samples, rows).report
                except FrameFailure:
                    failures[scheme, m] += 1
                else:
                    sups[scheme, m].append(report.sup_error)
    return [
        SweepRow(
            scheme=s,
            m=m,
            p=specs[s, m][0],
            mean_sup_error=float(np.mean(sups[s, m])) if sups[s, m] else math.nan,
            failures=failures[s, m],
        )
        for s in schemes
        for m in ms
    ]


def check_bounds(config: RunConfig):
    """Audit the inequalities the reconstruction guarantee rests on.

    Returns a tuple of BoundReport lines.  Checks shift orthonormality, the
    level at which the table cuts g (run and sweep reject one above
    TAIL_TOLERANCE) and the kernel diagonal bound for the generator, the
    condensation operator-norm bound for the configured scheme, the
    projection truncation bound for the configured signal, and one frame
    assembled as run assembles it: a shaped frame against its
    concentration band, an msq frame, which has no band, by comparing
    LAMBDA_MIN_FLOOR * lam_max with lam_min.  When that frame cannot be
    formed, its failing line compares LAMBDA_MIN_FLOOR * lam_max with
    lam_min for a singular frame operator, or the block length with the
    short bin's sample count for a binning failure.
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

    points = draw_samples(config.m, config.R, config.eps, config.seed)
    rows = lambda i: ctx.kernel_coefficients(points[i])
    try:
        binned = None if nu is None else partition_bins(
            points, config.R, config.eps, nu.size, config.seed
        )
        system, _ = _frame(ctx, config.m, binned, nu, rows, ())
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
        if nu is None:
            lines.append(
                BoundReport(
                    label=f"frame spectrum floor ({LAMBDA_MIN_FLOOR:g} lam_max <= lam_min)",
                    lhs=LAMBDA_MIN_FLOOR * system.lam_max,
                    rhs=system.lam_min,
                )
            )
        else:
            lines.extend(frame_bound_report(system, nu, config.gamma, config.t))

    return tuple(lines)
