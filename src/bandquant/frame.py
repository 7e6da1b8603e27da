"""Random frame assembly, canonical dual reconstruction and spectrum diagnostics.

The rows of the analysis matrix (the condensed, weighted, sign-flipped
sample matrix, or the plain one) act as a random frame for the finite
generator span: with enough samples the frame operator concentrates around a
multiple of the identity.  Each row takes one measurement of a span element,
and reconstruction maps the measurements back to coefficients.  The frame
operator is decomposed once, by a symmetric eigendecomposition: its two ends
are the reported spectrum, and reconstruction is a solve in its eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condense import BoundReport
from .generator import KernelContext

# Smallest ratio of the frame operator's bottom to top eigenvalue considered
# invertible; relative, because lambda scales with the weights and the rows.
LAMBDA_MIN_FLOOR = 1e-10


class FrameFailure(RuntimeError):
    """Raised when the assembled frame operator is numerically singular.

    lam_min and lam_max are the frame operator's extreme eigenvalues, or None
    when the failure was raised without forming one.
    """

    def __init__(self, message, lam_min=None, lam_max=None):
        super().__init__(message)
        self.lam_min = lam_min
        self.lam_max = lam_max


@dataclass(frozen=True)
class FrameSystem:
    """Assembled frame: the analysis matrix, one row per measurement, and the
    frame operator's eigendecomposition, eigenvalues ascending with
    eigenvectors as columns.
    """

    analysis: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray

    @property
    def lam_min(self):
        return float(self.eigvals[0])

    @property
    def lam_max(self):
        return float(self.eigvals[-1])


def assemble_frame(B, ctx: KernelContext):
    """Decompose the frame operator B^T B of the analysis matrix B.

    Raises FrameFailure when the frame operator's smallest eigenvalue is at
    most LAMBDA_MIN_FLOOR times its largest.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != ctx.dimension:
        raise ValueError(
            f"analysis matrix must have {ctx.dimension} columns, got shape {B.shape}"
        )
    eigvals, eigvecs = np.linalg.eigh(B.T @ B)
    system = FrameSystem(B, eigvals, eigvecs)
    if system.lam_min <= LAMBDA_MIN_FLOOR * system.lam_max:
        raise FrameFailure(
            f"frame operator is numerically singular: eigenvalues {system.lam_min:.3e} "
            f"to {system.lam_max:.3e} (rows={B.shape[0]}, dim={ctx.dimension})",
            lam_min=system.lam_min,
            lam_max=system.lam_max,
        )
    return system


def reconstruct(system: FrameSystem, v):
    """Canonical-dual coefficients from measurements v, one per analysis row.

    Solves the frame operator S = U diag(lam) U^T against the analysis
    adjoint in its eigenbasis: c = U (U^T B^T v / lam).  B^T v is summed by
    einsum, not a threaded BLAS product, so its bits do not depend on the
    BLAS thread count.
    """
    v = np.asarray(v, dtype=float)
    rows = system.analysis.shape[0]
    if v.shape != (rows,):
        raise ValueError(f"expected {rows} measurements, got shape {v.shape}")
    rhs = np.einsum("ij,i->j", system.analysis, v)
    return system.eigvecs @ ((system.eigvecs.T @ rhs) / system.eigvals)


def frame_bound_report(system: FrameSystem, nu, gamma, t):
    """Concentration band for a condensed frame's spectrum at confidence parameters.

    The band is (||nu||_2 / ||nu||_1)^2 * [1 - gamma - 3t, 1 + 3t] for the
    condensation row nu the frame was assembled with; returns the lower edge
    and the upper edge as lines against the observed extreme eigenvalues.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    ratio = (nu.l2 / nu.l1) ** 2
    lower = ratio * (1.0 - gamma - 3.0 * t)
    return (
        BoundReport(
            label="frame spectrum lower edge",
            lhs=lower,
            rhs=system.lam_min,
            # The frame operator is positive semidefinite.
            vacuous=lower <= 0.0,
        ),
        BoundReport(
            label="frame spectrum upper edge",
            lhs=system.lam_max,
            rhs=ratio * (1.0 + 3.0 * t),
        ),
    )
