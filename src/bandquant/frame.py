"""Random frame assembly, canonical dual reconstruction and spectrum diagnostics.

The rows of the condensed, weighted, sign-flipped sample matrix act as a
random frame for the finite generator span: with enough samples the frame
operator concentrates around a multiple of the identity, and reconstruction
is a single symmetric solve against the frame operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .condense import BlockCondensation
from .generator import KernelContext

# Smallest ratio of the frame operator's bottom to top eigenvalue considered
# invertible; relative, because lambda scales with the weights and the rows.
LAMBDA_MIN_FLOOR = 1e-10


class FrameFailure(RuntimeError):
    """Raised when the assembled frame operator is numerically singular."""


def sample_matrix(points, ctx: KernelContext):
    """Rows of generator translates evaluated at the sample points.

    Entry (i, k) is g(points[i] - k/lam) over the context's index window, so
    row i applied to a coefficient vector evaluates that span element at
    points[i].
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    return ctx.kernel_coefficients(points)


@dataclass(frozen=True)
class FrameSystem:
    """Assembled frame: the analysis matrix, the frame operator's Cholesky
    factor (as returned by scipy.linalg.cho_factor) and its spectrum.

    condenser and weight are the block condensation and the weight diagonal
    the analysis matrix was assembled with (None on the plain per-sample
    path); reconstruct applies the same measurement map to the samples.
    """

    analysis: np.ndarray
    factor: tuple
    lam_min: float
    lam_max: float
    context: KernelContext
    condenser: BlockCondensation | None = None
    weight: np.ndarray | None = None

    @property
    def rows(self):
        return self.analysis.shape[0]


def assemble_frame(G, ctx: KernelContext, weight=None, condenser=None, signs=None):
    """Form the analysis matrix W V diag(signs) G and its frame operator.

    weight (the diagonal of W), condenser (V) and signs default to
    identities, which is the plain per-sample (memoryless) path.  Raises
    FrameFailure when the frame operator's smallest eigenvalue is at most
    LAMBDA_MIN_FLOOR times its largest.
    """
    B = np.asarray(G, dtype=float)
    if B.ndim != 2 or B.shape[1] != ctx.dimension:
        raise ValueError(
            f"sample matrix must have {ctx.dimension} columns, got shape {B.shape}"
        )
    if signs is not None:
        signs = np.asarray(signs, dtype=float)
        if signs.shape != (B.shape[0],):
            raise ValueError(
                f"expected {B.shape[0]} signs, got shape {signs.shape}"
            )
        B = signs[:, None] * B
    if condenser is not None:
        B = condenser.apply(B)
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        if weight.shape != (B.shape[0],):
            raise ValueError(
                f"weight diagonal of shape {weight.shape} does not "
                f"match {B.shape[0]} condensed rows"
            )
        B = weight[:, None] * B
    S = B.T @ B
    eigvals = linalg.eigvalsh(S)
    lam_min = float(eigvals[0])
    lam_max = float(eigvals[-1])
    if lam_min <= LAMBDA_MIN_FLOOR * lam_max:
        raise FrameFailure(
            f"frame operator is numerically singular: eigenvalues {lam_min:.3e} "
            f"to {lam_max:.3e} (rows={B.shape[0]}, dim={ctx.dimension})"
        )
    return FrameSystem(
        analysis=B,
        factor=linalg.cho_factor(S),
        lam_min=lam_min,
        lam_max=lam_max,
        context=ctx,
        condenser=condenser,
        weight=weight,
    )


def reconstruct(system: FrameSystem, q):
    """Canonical-dual coefficients from (possibly quantized) signed samples q.

    Applies the frame's own condensation and weighting, then solves the frame
    operator against the analysis adjoint: c = S^{-1} B^T (W V q).
    """
    v = np.asarray(q, dtype=float)
    if system.condenser is not None:
        v = system.condenser.apply(v)
    if system.weight is not None:
        v = system.weight * v
    if v.shape != (system.rows,):
        raise ValueError(
            f"expected {system.rows} condensed measurements, got shape {v.shape}"
        )
    rhs = system.analysis.T @ v
    return linalg.cho_solve(system.factor, rhs)


@dataclass(frozen=True)
class FrameBandReport:
    """Observed frame-operator spectrum against the concentration band."""

    lam_min: float
    lam_max: float
    lower: float
    upper: float

    @property
    def lower_ok(self):
        return self.lam_min >= self.lower

    @property
    def upper_ok(self):
        return self.lam_max <= self.upper


def frame_bound_report(system: FrameSystem, gamma, t):
    """Concentration band for a condensed frame's spectrum at confidence parameters.

    The band is (||nu||_2 / ||nu||_1)^2 * [1 - gamma - 3t, 1 + 3t] for the
    frame's condensation row nu; the report records whether the observed
    extreme eigenvalues respect it.
    """
    if system.condenser is None:
        raise ValueError("the concentration band needs a condensed frame")
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    nu = system.condenser.nu
    ratio = (nu.l2 / nu.l1) ** 2
    return FrameBandReport(
        lam_min=system.lam_min,
        lam_max=system.lam_max,
        lower=ratio * (1.0 - gamma - 3.0 * t),
        upper=ratio * (1.0 + 3.0 * t),
    )
