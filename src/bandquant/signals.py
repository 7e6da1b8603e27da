"""Bandlimited test signals and their projection onto the finite generator span."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import table
from .condense import BoundReport
from .generator import _EVAL_CHUNK, Generator, KernelContext

# Normalisation grid used when scaling test signals to a target sup norm:
# node density per unit, margin beyond the coefficient block, and the
# head-room factor absorbing the (provably smaller) amount by which a grid
# maximum can undershoot the true sup between nodes or beyond the margin.
_NORM_GRID_PER_UNIT = 40
_NORM_GRID_MARGIN = 30.0
_NORM_HEADROOM = 1.005


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


@dataclass(frozen=True)
class SignalModel:
    """Bandlimited signal written as a finite combination of unit-spaced sincs.

    ``eval`` computes sum_k coeffs[k] * sinc(t - ks[k]) with the normalised
    sinc; the result is bandlimited to the base band regardless of the
    coefficients.
    """

    ks: np.ndarray
    coeffs: np.ndarray
    seed: int | None = None
    target_sup: float | None = None

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=int)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if ks.ndim != 1 or coeffs.shape != ks.shape:
            raise ValueError("ks and coeffs must be 1-d arrays of equal length")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "coeffs", coeffs)

    def eval(self, t):
        """Evaluate at scalar or array t.

        The sinc basis is filled in blocks of rows by ``_eval_differences``;
        the product with the coefficients stays one call over all rows,
        because a threaded BLAS rounds rows near its split points by where
        the split falls, so a product per block could move values by an ulp.
        """
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        out = _eval_differences(np.sinc, np.atleast_1d(t_arr), self.ks) @ self.coeffs
        return float(out[0]) if scalar else out

    __call__ = eval

    def to_csv(self, path):
        """Write one (k, coefficient) row per term, seed recorded in the header."""
        meta = table.meta_line("signal", seed=self.seed, target_sup=self.target_sup)
        row_format = table.row_format_for(int, float)
        table.write_columns(path, [meta, "k,coefficient"], [self.ks, self.coeffs], row_format)


def synth_test_signal(seed, k_range, target_sup):
    """Random sinc train with integer nodes in [-k_range, k_range].

    Coefficients are drawn uniformly from [-1, 1] (dedicated stream of the
    seed) and the whole signal is rescaled so its sup norm is slightly below
    target_sup, which must lie in (0, 1] so the signal stays in the amplitude
    range the quantizers cover.
    """
    if not 0 < target_sup <= 1:
        raise ValueError(f"target_sup must lie in (0, 1], got {target_sup}")
    k_range = int(k_range)
    if k_range < 0:
        raise ValueError(f"k_range must be non-negative, got {k_range}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 2)))
    ks = np.arange(-k_range, k_range + 1)
    coeffs = rng.uniform(-1.0, 1.0, size=ks.size)
    model = SignalModel(ks=ks, coeffs=coeffs)
    half = k_range + _NORM_GRID_MARGIN
    grid = np.linspace(-half, half, int(2 * half * _NORM_GRID_PER_UNIT) + 1)
    sup = float(np.max(np.abs(model.eval(grid))))
    scale = target_sup / (_NORM_HEADROOM * sup)
    return SignalModel(
        ks=ks, coeffs=coeffs * scale, seed=int(seed), target_sup=float(target_sup)
    )


@dataclass(frozen=True)
class CoefficientVector:
    """Element of the finite generator span, stored by its shift coefficients."""

    values: np.ndarray
    context: KernelContext

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.context.dimension,):
            raise ValueError(
                f"expected {self.context.dimension} coefficients, got {values.shape}"
            )
        object.__setattr__(self, "values", values)

    def eval(self, t):
        """Evaluate sum_k values[k] g(t - k/lam) at scalar or array t."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        out = np.atleast_1d(self.context.kernel_coefficients(t_arr)) @ self.values
        return float(out) if scalar else out

    __call__ = eval


def project(f, generator: Generator, R, eps):
    """Project onto the finite generator span covering [-R, R] with margin eps.

    For a bandlimited SignalModel the projection coefficients are the lattice
    samples f(k/lam) / sqrt(lam) over the index window.  A CoefficientVector
    is already in a generator span, so it is projected by restricting (or
    zero-padding) its coefficients to the target window.
    """
    if eps * R < 1.0:
        raise ValueError(
            f"shell width eps*R must be at least 1 for the projection window "
            f"to extend usefully beyond [-R, R], got {eps * R}"
        )
    ctx = KernelContext.from_box(generator, R, eps)
    if isinstance(f, CoefficientVector):
        if f.context.generator.params != generator.params:
            raise ValueError("cannot project between spans of different generators")
        src = f.context.index_set
        values = np.zeros(ctx.dimension)
        keep = np.abs(src) <= ctx.k_max
        values[src[keep] + ctx.k_max] = f.values[keep]
        return CoefficientVector(values=values, context=ctx)
    values = np.asarray(f.eval(ctx.shift_points), dtype=float) / math.sqrt(
        generator.lam
    )
    return CoefficientVector(values=values, context=ctx)


def projection_error_report(f, pf: CoefficientVector, R1, r=11):
    """Compare the L2([-R1, R1]) projection error with the decay-based bound.

    The bound uses the generator decay constant for exponent r and is only
    meaningful when the span window extends beyond R1; the line is flagged
    vacuous when the bound is at least ||f||_L2([-R1, R1]), since a bound
    that large says nothing about how close Pf comes to f there.
    """
    ctx = pf.context
    gen = ctx.generator
    if R1 >= ctx.half_width:
        raise ValueError(
            f"evaluation half-width {R1} must be smaller than the span "
            f"half-width {ctx.half_width}"
        )
    if R1 <= 0:
        raise ValueError(f"R1 must be positive, got {R1}")
    c_r = gen.decay_constant(r)
    lam = gen.lam
    gap = ctx.half_width - R1
    bound = (
        2.0
        * c_r
        * math.sqrt(lam)
        / (math.sqrt(2.0 * r - 1.0) * (r - 1.5) * gap ** (r - 1.5))
    )
    n = 2001
    t = np.linspace(-R1, R1, n)
    fv = np.asarray(f.eval(t), dtype=float)
    diff = fv - pf.eval(t)
    from scipy.integrate import simpson  # only the bound audits need quadrature

    measured = math.sqrt(max(float(simpson(diff * diff, x=t)), 0.0))
    norm = math.sqrt(max(float(simpson(fv * fv, x=t)), 0.0))
    return BoundReport(
        label=f"projection truncation bound (r={r})",
        lhs=measured,
        rhs=bound,
        vacuous=bound >= norm,
    )
