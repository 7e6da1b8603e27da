"""Bandlimited test signals and their projection onto the finite generator span."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .condense import BoundReport
from .generator import _EVAL_CHUNK, Generator, KernelContext

# Normalisation grid used when scaling test signals to a target sup norm:
# node density per unit, margin beyond the coefficient block, and the
# head-room factor absorbing the (provably smaller) amount by which a grid
# maximum can undershoot the true sup between nodes or beyond the margin.
_NORM_GRID_PER_UNIT = 40
_NORM_GRID_MARGIN = 30.0
_NORM_HEADROOM = 1.005

# A zero argument of the sinc is replaced, as np.sinc does, by a tiny value,
# where sin(y) / y is exactly 1.
_SINC_ZERO = np.finfo(float).eps


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

    def basis(self, x):
        """The sincs sinc(x - ks[k]), of shape x.shape + (ks.size,), for array x.

        The block is filled in place, at most _EVAL_CHUNK entries at a time,
        by np.sinc's own steps, so no full-size difference array or temporary
        is ever built.  Every step is elementwise, so a row holds the same
        bits whichever points share the block with it: rows gathered from
        the basis of a draw are the basis of the gathered points.
        """
        x = np.asarray(x, dtype=float)
        flat_x = x.reshape(-1)
        basis = np.empty((flat_x.size, self.ks.size))
        rows = max(1, _EVAL_CHUNK // max(1, self.ks.size))
        for lo in range(0, flat_x.size, rows):
            block = basis[lo : lo + rows]
            np.subtract(flat_x[lo : lo + rows, None], self.ks, out=block)
            block *= np.pi
            block[block == 0] = _SINC_ZERO
            np.divide(np.sin(block), block, out=block)
        return basis.reshape(*x.shape, self.ks.size)

    def eval(self, t):
        """Evaluate at scalar or array t: basis(t) @ coeffs.

        The product with the coefficients is one call over all rows, because
        a threaded BLAS rounds rows near its split points by where the split
        falls, so a product per block could move values by an ulp.  A caller
        holding the basis of a superset of points gets the same bits from
        basis[i] @ coeffs, one product over exactly the gathered rows.
        """
        t_arr = np.asarray(t, dtype=float)
        out = self.basis(np.atleast_1d(t_arr)) @ self.coeffs
        return float(out[0]) if t_arr.ndim == 0 else out


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


def project(f, generator: Generator, R, eps):
    """Project onto the finite generator span covering [-R, R] with margin eps.

    For a bandlimited SignalModel the projection coefficients are the lattice
    samples f(k/lam) / sqrt(lam) over the index window.  That formula holds
    only for a pi-bandlimited f, so a CoefficientVector, which is bandlimited
    to (2 lam - 1) pi, raises ValueError, as does a geometry from_box rejects.
    """
    ctx = KernelContext.from_box(generator, R, eps)
    if isinstance(f, CoefficientVector):
        raise ValueError(
            "a generator-span element is not pi-bandlimited, so its lattice "
            "samples are not its projection"
        )
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
    # Composite Simpson rule on an odd number of nodes; its weights are positive.
    t, h = np.linspace(-R1, R1, 2001, retstep=True)
    fv = np.asarray(f.eval(t), dtype=float)
    diff = fv - pf.eval(t)
    measured, norm = (
        math.sqrt(h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))
        for y in (diff * diff, fv * fv)
    )
    return BoundReport(
        label=f"projection truncation bound (r={r})",
        lhs=measured,
        rhs=bound,
        vacuous=bound >= norm,
    )
