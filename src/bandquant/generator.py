"""Oversampling generator built from a smooth, compactly supported Fourier window.

The window is flat on the base band, falls off through an infinitely smooth
cosine taper, and vanishes outside a compact interval.  Its inverse Fourier
transform ``g`` has two properties everything downstream leans on: the shifts
``g(. - k/lam)`` are orthonormal (up to a fixed normalisation), and ``g``
decays faster than any polynomial, so finite truncations are quantifiably
accurate.

``g`` is tabulated once and read between the nodes by a cubic spline whose
coefficients are ``scipy.interpolate.CubicSpline``'s own, rebuilt here
through ``scipy.linalg.solve_banded``: evaluation is bit-identical to
``CubicSpline.__call__`` without importing ``scipy.interpolate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

# Safety factor applied on top of the measured grid maximum when estimating
# decay constants, covering values between grid nodes.
DECAY_SAFETY = 0.05

# Period of the trapezoid rule in t, in units of tail_cut.  The rule returns
# g summed over shifts by the period, so on [0, tail_cut] the nearest alias
# image lies at least 1.5 tail_cut away (|g| < 1.4e-13 there at the defaults).
_PERIOD_FACTOR = 2.5

# Points per chunk in Generator.eval and per row block in _eval_differences.
# A chunk's temporaries take under 1 MB, so a call's peak memory stays near
# the size of its output.  The size also keeps a 3000-sample trial's
# transient memory (2.3 MB) below glibc's heap trim threshold after the
# generator build (2.9 MB: twice the largest block freed so far).  At 1 << 15
# a trial peaked at 3.3 MB, and some processes gave the heap top back and
# faulted it in again on every trial.
_EVAL_CHUNK = 1 << 14


def _eval_differences(fn, x, columns):
    """fn(x[..., None] - columns) for an elementwise fn, in blocks of rows.

    Returns an array of shape x.shape + (columns.size,).  Each block holds at
    most _EVAL_CHUNK differences and is written straight into the output, so
    no full-size difference array or temporary of fn is ever built; the
    result is bit-identical to the one-shot expression.  Private, so that a
    traced run counts its time toward the layer that calls it.
    """
    x = np.asarray(x, dtype=float)
    columns = np.asarray(columns)
    out = np.empty((*x.shape, columns.size))
    flat_x = x.reshape(-1)
    flat_out = out.reshape(flat_x.size, columns.size)
    rows = max(1, _EVAL_CHUNK // max(1, columns.size))
    for lo in range(0, flat_x.size, rows):
        hi = lo + rows
        flat_out[lo:hi] = fn(flat_x[lo:hi, None] - columns)
    return out


def _spline_coefficients(x, y):
    """Piecewise coefficients of the cubic spline through (x, y), shape (4, n-1).

    The spline has s'(x[0]) = 0 and a not-a-knot right end.  The slopes solve
    ``CubicSpline``'s tridiagonal system, filled in the same banded layout and
    passed to the same ``solve_banded`` call, and the Hermite coefficients are
    formed by its formulas in its order, so the table equals
    ``CubicSpline(x, y, bc_type=((1, 0.0), "not-a-knot")).c`` bit for bit.
    """
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b = np.empty(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    ab[1, 0], ab[0, 1], b[0] = 1, 0, 0.0  # s'(x[0]) = 0
    d = x[-1] - x[-3]  # not-a-knot: one cubic on the last two intervals
    ab[1, -1], ab[-1, -2] = dx[-2], d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = linalg.solve_banded(
        (1, 1), ab, b.reshape(n, 1), overwrite_ab=True, overwrite_b=True, check_finite=False
    ).reshape(n)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


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


@dataclass(frozen=True)
class GeneratorParams:
    """Construction parameters of the generator's table: band and t-grid."""

    lam: float
    grid_step: float = 1e-3
    tail_cut: float = 60.0

    def __post_init__(self):
        if self.lam <= 1:
            raise ValueError(f"oversampling ratio must exceed 1, got {self.lam}")
        if not 0 < self.grid_step <= 0.1:
            raise ValueError(f"grid_step out of range: {self.grid_step}")
        # The table's FFT wraps frequencies beyond pi / grid_step onto the band.
        if (2.0 * self.lam - 1.0) * self.grid_step >= 1.0:
            raise ValueError(
                f"grid_step {self.grid_step} cannot resolve the band of lam={self.lam}"
            )
        if self.tail_cut < 10.0:
            raise ValueError(f"tail_cut too small to certify decay: {self.tail_cut}")


class Generator:
    """Tabulated evaluator of the generator g.

    The inverse transform is tabulated once on a uniform grid over
    [0, tail_cut] by the trapezoid rule, which converges faster than any power
    of the step because ghat is smooth and compactly supported; one FFT
    evaluates the rule at every grid point.  The table's cubic spline
    coefficients are computed once by ``_spline_coefficients``: they are
    ``CubicSpline``'s own, rebuilt through ``solve_banded``.  ``eval`` finds
    the interval of |t| by direct index on the uniform grid and evaluates
    that interval's cubic, in bounded chunks, bit-identically to
    ``CubicSpline.__call__``.  Reading |t| makes evenness exact, and g is 0
    beyond the tail cut.  Instances are immutable.
    """

    def __init__(self, params: GeneratorParams):
        self.params = params
        self.grid, self.values = self._build_table(params)
        # Clamping the derivative at t = 0 encodes that g is even.
        self._coefficients = _spline_coefficients(self.grid, self.values)

    @staticmethod
    def _build_table(params):
        """g on the grid by the trapezoid rule at xi_j = j h, h = 2 pi / period.

        With the period a whole number n_fft of grid steps, the rule's sum of
        ghat(xi_j) cos(xi_j t) at t = n * grid_step is the real part of a DFT
        of length n_fft.
        """
        n_grid = int(round(params.tail_cut / params.grid_step)) + 1
        n_fft = int(round(_PERIOD_FACTOR * params.tail_cut / params.grid_step))
        h = 2.0 * math.pi / (n_fft * params.grid_step)
        nodes = np.arange(int((2.0 * params.lam - 1.0) * math.pi / h) + 1) * h
        coeff = np.zeros(n_fft)
        coeff[: nodes.size] = ghat(nodes, params.lam) * (2.0 * h / math.sqrt(2.0 * math.pi))
        coeff[0] *= 0.5  # trapezoid end weight; the far end has ghat = 0
        grid = np.arange(n_grid) * params.grid_step
        return grid, np.fft.rfft(coeff).real[:n_grid]

    @property
    def lam(self):
        return self.params.lam

    def eval(self, t):
        """Evaluate g at scalar or array t (even, 0 beyond the tail cut).

        Returns a float for scalar t and an array of t's shape otherwise;
        NaN and infinite t give 0.  The interval of |t| is its index on the
        uniform grid, corrected against the grid nodes to the one
        ``CubicSpline`` picks, and the value is that interval's cubic in
        ``CubicSpline``'s coefficients (rebuilt through ``solve_banded``) and
        summation order, so the result is bit-identical to
        ``CubicSpline.__call__``.  The flattened input is read in chunks of at
        most ``_EVAL_CHUNK`` points written straight into the output, so the
        temporaries stay small whatever the input size.
        """
        t_arr = np.asarray(t, dtype=float)
        out = np.empty(t_arr.shape)
        flat_t = t_arr.reshape(-1)
        flat_out = out.reshape(-1)
        for lo in range(0, flat_t.size, _EVAL_CHUNK):
            hi = lo + _EVAL_CHUNK
            self._eval_chunk(flat_t[lo:hi], flat_out[lo:hi])
        return float(out) if out.ndim == 0 else out

    def _eval_chunk(self, t, out):
        """g at the 1-D points t into out, as ``CubicSpline.__call__`` computes it.

        The nodes are ``self.grid`` and the cubics ``self._coefficients``,
        equal to the spline's ``x`` and ``c``.  The interval is
        x[i] <= |t| < x[i+1], with the last one closed and extended to the
        tail cut; with s = |t| - x[i] the terms are summed from the constant
        up, the powers of s built by multiplication.
        """
        x = self.grid
        c0, c1, c2, c3 = self._coefficients
        last = x.size - 2
        tail_cut = self.params.tail_cut
        a = np.abs(t)
        beyond = ~(a <= tail_cut)
        # NaN, inf and far points are evaluated at the tail cut, then zeroed.
        np.fmin(a, tail_cut, out=a)
        # The quotient's rounding can land one interval off at a node.
        i = (a / self.params.grid_step).astype(np.intp)
        np.minimum(i, last, out=i)
        i -= a < x.take(i)
        i += a >= x[1:].take(i)
        np.minimum(i, last, out=i)
        s = a - x.take(i)
        np.multiply(c2.take(i), s, out=out)
        out += c3.take(i)
        power = s * s
        out += c1.take(i) * power
        power *= s
        out += c0.take(i) * power
        out[beyond] = 0.0

    __call__ = eval

    def decay_constant(self, r):
        """Smallest certified C with |g(t)| <= C / (1 + |t|)^r on the table grid.

        The grid maximum of (1 + t)^r |g(t)| is inflated by a fixed safety
        factor; the estimate is rejected when the weighted profile is still
        rising at the tail cut, since then no finite grid certifies decay.
        """
        r = int(r)
        if r < 2:
            raise ValueError(f"decay exponent must be at least 2, got {r}")
        rising = ValueError(
            f"weighted profile still rising at the tail cut for exponent {r}; "
            "increase tail_cut"
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
        audit orthonormality of the lattice shifts.
        """
        k = int(k)
        shift = abs(k) / self.params.lam
        # g is supported (numerically) on [-tail_cut, tail_cut]; the product
        # g(t) g(t - shift) lives on [shift - tail_cut, tail_cut].
        lo = shift - self.params.tail_cut
        hi = self.params.tail_cut
        if lo >= hi:
            return 0.0
        n = int(math.ceil((hi - lo) / self.params.grid_step)) + 1
        t = np.linspace(lo, hi, n)
        from scipy.integrate import simpson  # only the bound audits need quadrature

        return float(simpson(self.eval(t) * self.eval(t - shift), x=t))


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

        Filled one block of rows at a time by ``_eval_differences``, each
        block through ``Generator.eval``.
        """
        return _eval_differences(self.generator.eval, x, self.shift_points)
