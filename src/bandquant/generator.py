"""Oversampling generator built from a smooth, compactly supported Fourier window.

The window is flat on the base band, falls off through an infinitely smooth
cosine taper, and vanishes outside a compact interval.  Its inverse Fourier
transform ``g`` has two properties everything downstream leans on: the shifts
``g(. - k/lam)`` are orthonormal (up to a fixed normalisation), and ``g``
decays faster than any polynomial, so finite truncations are quantifiably
accurate.

``g`` and its slope ``g'`` are tabulated once, both by the same trapezoid
rule evaluated with an FFT, and read between the nodes by the Hermite cubic
through the node values and slopes.  The grid step divides the shift 1/lam
into a whole number M of steps, so the intervals that one sample point meets
under all the shifts k/lam lie M nodes apart and share the point's offset
inside them.  The cubics of every interval between -tail_cut and tail_cut
sit in one table ordered by node residue modulo M, where those intervals fill
one contiguous run.  Every read of g goes through that table: a row of the
sample matrix reads its run, and ``Generator.eval`` the run of the single
shift 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

# Safety factor applied on top of the measured grid maximum when estimating
# decay constants, covering values between grid nodes.
DECAY_SAFETY = 0.05

# Period of the trapezoid rule in t, in units of tail_cut.  The rule returns
# g summed over shifts by the period, so on [0, tail_cut] the nearest alias
# image lies at least 1.5 tail_cut away (|g| < 1.4e-13 there at the defaults).
# g itself is cut at the last node: max |g| over the last unit below
# tail_cut = 60 is 5.42e-10 at lam = 1.5, 1.97e-13 at lam = 2 and 5.72e-17 at
# lam = 3, and at lam = 1.5 g is -1.104e-10 at the last node, so it jumps by
# that much to 0 there.
_PERIOD_FACTOR = 2.5

# Largest max |g| over the last unit below tail_cut that a run accepts.
# Past the last node g reads 0, so a larger level is a truncation error in
# every kernel read.  It lies between the levels at lam = 1.5 and 1.4
# (3.97e-9), so lam = 1.5 stays accepted.
TAIL_TOLERANCE = 1e-9

# Points per chunk in Generator.eval, cubic coefficients per row block of
# Generator._shift_rows (4 per entry, so 91 rows of 45 entries), and
# differences per row block of the sinc basis in SignalModel.eval.
# An eval chunk's temporaries take 1.7 MB, so a call's peak memory stays near
# the size of its output.  The size also keeps a 3000-sample trial's
# transient memory (1.7 MB) below glibc's heap trim threshold after the
# generator build (2.4 MB: twice the largest block freed so far, the slope
# FFT's complex spectrum).  Above it some processes give the heap top back
# and fault it in again on every trial: eval chunks of 1 << 15 points
# peaked at 3.3 MB, and lattice blocks of 364 rows at 2.5 MB.
_EVAL_CHUNK = 1 << 14


def _hermite_cubics(nodes, values, slopes):
    """Yield (j, c) for the coefficient c of s^(3 - j) of the Hermite cubic
    on each interval.

    s is the offset from the interval's left node; the cubic takes the
    values and slopes given at both ends.  The coefficients come one at a
    time and each input is dropped once read, so a caller that stores each
    coefficient before taking the next, and keeps no other reference to
    the inputs, never holds the inputs and all four coefficients at once.
    """
    dx = np.diff(nodes)
    del nodes
    yield 3, values[:-1]
    chord = np.diff(values)
    del values
    chord /= dx
    yield 2, slopes[:-1]
    t = slopes[:-1] + slopes[1:]
    t -= 2 * chord
    t /= dx
    chord -= slopes[:-1]
    del slopes
    chord /= dx
    chord -= t
    yield 1, chord
    del chord
    t /= dx
    yield 0, t


def _bump(x):
    """exp(-1/x) for x > 0 and 0 elsewhere, without overflow warnings."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def taper(x):
    """Smooth step: 0 for x <= 0, 1 for x >= 1, C-infinity in between.

    Built from the standard bump ratio w(x) / (w(x) + w(1 - x)); it satisfies
    taper(x) + taper(1 - x) = 1, which is what makes the window below exactly
    orthonormality-preserving.
    """
    x = np.asarray(x, dtype=float)
    wx = _bump(x)
    return wx / (wx + _bump(1.0 - x))


def ghat(xi, lam):
    """Fourier window of the generator.

    Real, even, and supported on ``|xi| <= (2 lam - 1) pi``: equal to
    ``1 / sqrt(2 lam pi)`` for ``|xi| <= pi``, tapered by
    ``cos(pi/2 * taper(...))`` on the transition band, zero beyond.
    """
    if lam <= 1:
        raise ValueError(f"oversampling ratio must exceed 1, got {lam}")
    xi_arr = np.abs(np.asarray(xi, dtype=float))
    scalar = xi_arr.ndim == 0
    xi_arr = np.atleast_1d(xi_arr)
    flat = 1.0 / math.sqrt(2.0 * lam * math.pi)
    out = np.where(xi_arr <= math.pi, flat, 0.0)
    mid = (xi_arr > math.pi) & (xi_arr <= (2.0 * lam - 1.0) * math.pi)
    if np.any(mid):
        s = (xi_arr[mid] - math.pi) / ((2.0 * lam - 2.0) * math.pi)
        out[mid] = flat * np.cos(0.5 * math.pi * taper(s))
    return float(out[0]) if scalar else out


# Largest step of the table's t-grid.
_MAX_GRID_STEP = 1e-3


@dataclass(frozen=True)
class GeneratorParams:
    """Construction parameters of the generator's table: the band lam.

    ``grid_step`` is derived: the largest step at most 1e-3 that divides the
    shift 1/lam, 1/(lam M) for a whole number M of steps.  The table reaches
    ``tail_cut`` on both sides.
    """

    lam: float
    grid_step: float = field(init=False)
    tail_cut: ClassVar[float] = 60.0

    def __post_init__(self):
        if self.lam <= 1:
            raise ValueError(f"oversampling ratio must exceed 1, got {self.lam}")
        # The table's FFT wraps frequencies beyond pi / grid_step onto the band.
        if (2.0 * self.lam - 1.0) * _MAX_GRID_STEP >= 1.0:
            raise ValueError(
                f"grid_step {_MAX_GRID_STEP} cannot resolve the band of lam={self.lam}"
            )
        # The 1e-12 guard keeps a step that divides 1/lam up to rounding, so
        # the step at lam = 2 stays exactly 1e-3 (M = 500).
        steps = math.ceil(1.0 / (self.lam * _MAX_GRID_STEP) * (1.0 - 1e-12))
        object.__setattr__(self, "grid_step", 1.0 / (self.lam * steps))


class Generator:
    """Tabulated evaluator of the generator g.

    The inverse transform is tabulated once on a uniform grid over
    [0, tail_cut] by the trapezoid rule, which converges faster than any power
    of the step because ghat is smooth and compactly supported; one FFT
    evaluates the rule at every grid point, and a second one evaluates its
    derivative.  The last node is the largest one at most tail_cut.  Each
    interval of the signed grid between the last nodes on either side
    carries the Hermite cubic through the values and slopes at its two ends.
    ``_shift_rows`` reads g(x - k/lam) for a window of shifts from that
    table; ``KernelContext`` reads the sample matrix through it, and
    ``eval`` reads |t| with the single shift 0.  Reading |t| makes evenness
    exact, and g is 0 beyond the last node.  Instances are immutable.
    """

    def __init__(self, params: GeneratorParams):
        self.params = params
        self.grid, self.values, slopes = self._build_table(params)
        # Grid steps per shift 1/lam, whole by the choice of grid_step.
        self._shift_steps = residues = round(1.0 / (params.lam * params.grid_step))
        last = self.grid.size - 1
        # Row r * columns + c of the table holds the cubic (coefficients of
        # s^3, s^2, s, 1) of the interval that starts at node
        # r + (zero_column - c) * residues: ascending rows of one residue meet
        # nodes descending by residues.  The intervals start at nodes
        # -last ... last - 1 of the signed grid, g even and g' odd; one zero
        # column at each end and the cells past the ends stay 0.
        self._zero_column = (last - 1) // residues + 1
        self._columns = self._zero_column + -(-last // residues) + 2
        self._cubics = np.zeros((residues * self._columns, 4))
        cells = self._cell(np.arange(-last, last))
        cubics = _hermite_cubics(
            np.concatenate((-self.grid[:0:-1], self.grid)),
            np.concatenate((self.values[:0:-1], self.values)),
            np.concatenate((-slopes[:0:-1], slopes)),
        )
        # Only the signed copies are read from here on.
        del slopes
        for column, coefficient in cubics:
            self._cubics[cells, column] = coefficient

    @staticmethod
    def _build_table(params):
        """g and g' on the grid by the trapezoid rule at xi_j = j h, h = 2 pi / period.

        With the period a whole number n_fft of grid steps, the rule's sum
        g(t) = sum_j c_j cos(xi_j t) at t = n * grid_step is the real part of
        a DFT of length n_fft of the weights c_j, and its exact derivative
        g'(t) = -sum_j c_j xi_j sin(xi_j t) is the imaginary part of the DFT
        of c_j xi_j.
        """
        last = math.floor(params.tail_cut / params.grid_step)
        # The quotient's rounding can land one node off the last node <= tail_cut.
        last += (last + 1) * params.grid_step <= params.tail_cut
        last -= last * params.grid_step > params.tail_cut
        n_grid = last + 1
        n_fft = int(round(_PERIOD_FACTOR * params.tail_cut / params.grid_step))
        h = 2.0 * math.pi / (n_fft * params.grid_step)
        nodes = np.arange(int((2.0 * params.lam - 1.0) * math.pi / h) + 1) * h
        coeff = ghat(nodes, params.lam) * (2.0 * h / math.sqrt(2.0 * math.pi))
        coeff[0] *= 0.5  # trapezoid end weight; the far end has ghat = 0
        grid = np.arange(n_grid) * params.grid_step
        # Copies: a slice would keep the whole complex spectrum of n_fft / 2 + 1
        # entries (1.2 MB at lam = 2) alive.
        values = np.fft.rfft(coeff, n_fft).real[:n_grid].copy()
        return grid, values, np.fft.rfft(coeff * nodes, n_fft).imag[:n_grid].copy()

    @property
    def lam(self):
        return self.params.lam

    def eval(self, t):
        """Evaluate g at scalar or array t (even, 0 beyond the last node).

        Returns a float for scalar t and an array of t's shape otherwise;
        NaN and infinite t give 0, and every grid node gives its table value
        exactly.  The flattened input is read in chunks of at most
        ``_EVAL_CHUNK`` points written straight into the output, so the
        temporaries stay small whatever the input size.
        """
        t_arr = np.asarray(t, dtype=float)
        out = np.empty(t_arr.shape)
        flat_t = t_arr.reshape(-1)
        flat_out = out.reshape(-1)
        for lo in range(0, flat_t.size, _EVAL_CHUNK):
            hi = lo + _EVAL_CHUNK
            flat_out[lo:hi] = self._shift_rows(np.abs(flat_t[lo:hi]), 0)[:, 0]
        return float(out) if out.ndim == 0 else out

    __call__ = eval

    def _cell(self, start):
        """Row of ``self._cubics`` holding the interval that starts at node ``start``."""
        quotient, cell = np.divmod(start, self._shift_steps)
        cell *= self._columns
        cell += self._zero_column
        cell -= quotient
        return cell

    def _shift_rows(self, x, k_max):
        """g(x - k/lam) for |k| <= k_max at every point of x, on the shift lattice.

        With M grid steps per shift 1/lam, each point finds its node
        n <= x / step < n + 1 and offset s = x - n step once; column k then
        lies at offset s in the interval starting at node n - k M, and with
        n = q M + r those intervals fill the contiguous cells of residue r
        from column z - q - k_max on, z being the column of the interval at
        node r.  A block of rows copies its runs of cubics and evaluates them
        at the rows' offsets.  A run that leaves the table is read cell by
        cell, each cell past the table replaced by the zero column at that
        end.
        """
        x = np.asarray(x, dtype=float)
        width = 2 * k_max + 1
        out = np.empty((*x.shape, width))
        flat_out = out.reshape(-1, width)
        step = self.params.grid_step
        shift_steps = self._shift_steps
        last = self.grid.size - 1
        # Beyond this every shift lies off the table; NaN and inf become finite.
        limit = self.params.tail_cut + (k_max + 2) * shift_steps * step
        a = np.fmax(np.fmin(x.reshape(-1), limit), -limit)
        node = np.floor(a / step)
        # On a node the quotient can round one node low.
        node += a >= (node + 1) * step
        offset = a - node * step
        # The rounded node misses n step by up to half an ulp of x, which
        # would shift every column.  Measured from n step itself, each column
        # is off only by its own node's rounding, as in eval; node * high is
        # exact for a 24-bit high part of step.  A point on a rounded node
        # keeps offset 0 and reads the node values.
        high = float(np.float32(step))
        node_error = node * high - node * step + node * (step - high)
        offset -= np.where(offset == 0.0, 0.0, node_error)
        q, r = np.divmod(node.astype(np.intp), shift_steps)
        base = r * self._columns
        column = self._zero_column - k_max - q
        inside = (column >= 0) & (column <= self._columns - width)
        start = np.where(inside, base + column, 0)
        runs = np.lib.stride_tricks.sliding_window_view(self._cubics, width, axis=0)
        runs = runs.transpose(0, 2, 1)
        rows = max(1, _EVAL_CHUNK // (4 * width))
        edges = not inside.all()
        for lo in range(0, a.size, rows):
            hi = lo + rows
            cubic = runs[start[lo:hi]]
            if edges and not inside[lo:hi].all():
                off = np.flatnonzero(~inside[lo:hi])
                cells = np.clip(column[lo:hi][off, None] + np.arange(width), 0, self._columns - 1)
                cubic[off] = self._cubics.take(base[lo:hi][off, None] + cells, axis=0)
            s = offset[lo:hi, None]
            block = flat_out[lo:hi]
            np.multiply(cubic[..., 0], s, out=block)
            block += cubic[..., 1]
            block *= s
            block += cubic[..., 2]
            block *= s
            block += cubic[..., 3]
        # The last node closes the last interval, so |t| on it keeps its
        # value; in the table that node starts a zero cell instead.
        at_last = np.flatnonzero((offset == 0.0) & (r == last % shift_steps))
        col = q[at_last] - last // shift_steps + k_max
        keep = (col >= 0) & (col < width)
        flat_out[at_last[keep], col[keep]] = self.values[-1]
        return out

    @property
    def tail_level(self):
        """max |g| over the table nodes of the last unit below tail_cut."""
        return float(np.abs(self.values[self.grid >= self.params.tail_cut - 1.0]).max())

    def decay_constant(self, r):
        """Smallest certified C with |g(t)| <= C / (1 + |t|)^r on the table grid.

        The grid maximum of (1 + t)^r |g(t)| is inflated by a fixed safety
        factor; the estimate is rejected when the weighted profile is still
        rising at the tail cut, since then no finite grid certifies decay.
        Its message blames the table cut when g is above TAIL_TOLERANCE there,
        and the exponent otherwise.
        """
        r = int(r)
        if r < 2:
            raise ValueError(f"decay exponent must be at least 2, got {r}")
        advice = "use a smaller exponent"
        if self.tail_level > TAIL_TOLERANCE:
            advice = (
                f"max |g| is {self.tail_level:.3g} where the table ends at "
                f"{self.params.tail_cut:g}, so lam {self.lam:g} is too close to 1"
            )
        rising = ValueError(
            f"weighted profile still rising at the tail cut for exponent {r}; {advice}"
        )
        # Where (1 + t)^r overflows near the tail cut (r >= 173 on the default
        # 60-wide table) the profile is infinite there: still rising.
        try:
            with np.errstate(over="raise"):
                weighted = np.abs(self.values) * (1.0 + self.grid) ** r
        except FloatingPointError:
            raise rising from None
        peak = float(weighted.max())
        if peak <= 0.0:
            raise ValueError("generator table is identically zero; cannot certify decay")
        if float(weighted[-1]) >= peak:
            raise rising
        return (1.0 + DECAY_SAFETY) * max(1.0, peak)

    def shift_inner_product(self, k):
        """Inner product of g with its shift by k / lam, via the table grid.

        Returns a value close to 1 for k = 0 and close to 0 otherwise; used to
        audit orthonormality of the lattice shifts.  The shift is |k| M grid
        steps, so the product g(t) g(t - shift) is read at the signed nodes
        from the table values alone.  Their sum times the step, the trapezoid
        rule, is exact up to rounding: the product is smooth, band-limited far
        below the grid's 2 pi / step and negligible at both table ends.
        """
        lag = abs(int(k)) * self._shift_steps
        signed = np.concatenate((self.values[:0:-1], self.values))
        # Past the table the slice bound below would turn negative.
        if lag >= signed.size:
            return 0.0
        product = signed[lag:] * signed[: signed.size - lag]
        return float(np.sum(product)) * self.params.grid_step


@dataclass(frozen=True)
class KernelContext:
    """A generator together with the finite shift window spanning the model space."""

    generator: Generator
    k_max: int
    half_width: float

    @classmethod
    def from_box(cls, generator, R, eps):
        """Window large enough to reconstruct on [-R, R] with margin eps."""
        if R <= 0 or eps <= 0:
            raise ValueError(f"need positive R and eps, got R={R}, eps={eps}")
        half_width = (1.0 + 2.5 * eps) * R
        # The 1e-9 guard keeps exact boundary products (e.g. 22.5) stable
        # against floating-point representation of the factors.
        k_max = int(math.floor(generator.lam * half_width + 1e-9))
        return cls(generator=generator, k_max=k_max, half_width=half_width)

    @property
    def index_set(self):
        return np.arange(-self.k_max, self.k_max + 1)

    @property
    def dimension(self):
        return 2 * self.k_max + 1

    @property
    def shift_points(self):
        """Lattice points k / lam for k in the window."""
        return self.index_set / self.generator.lam

    def kernel_coefficients(self, x):
        """Vector (or stack of vectors) g(x - k/lam) over the index window.

        Each row reads its cubics from one run of the generator's table.
        """
        return self.generator._shift_rows(x, self.k_max)
