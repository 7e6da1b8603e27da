"""Random frame assembly, canonical dual reconstruction and spectrum diagnostics.

The rows of the condensed, weighted, sign-flipped sample matrix act as a
random frame for the finite generator span: with enough samples the frame
operator concentrates around a multiple of the identity.  The frame
operator is decomposed once, by a symmetric eigendecomposition: its two ends
are the reported spectrum, and reconstruction is a solve in its eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condense import BlockCondensation, BoundReport
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
    """Assembled frame: the analysis matrix and the frame operator's
    eigendecomposition, eigenvalues ascending with eigenvectors as columns.

    condenser and weight are the block condensation and the weight diagonal
    the analysis matrix was assembled with (None on the plain per-sample
    path); reconstruct applies the same measurement map to the samples.
    """

    analysis: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    condenser: BlockCondensation | None = None
    weight: np.ndarray | None = None

    @property
    def rows(self):
        return self.analysis.shape[0]

    @property
    def lam_min(self):
        return float(self.eigvals[0])

    @property
    def lam_max(self):
        return float(self.eigvals[-1])


def assemble_frame(G, ctx: KernelContext, weight=None, condenser=None):
    """Form the analysis matrix W V G and its frame operator.

    G is the (possibly sign-flipped) sample matrix; weight (the diagonal of
    W) and condenser (V) default to identities, which is the plain
    per-sample (memoryless) path.  Raises FrameFailure when the frame
    operator's smallest eigenvalue is at most LAMBDA_MIN_FLOOR times its
    largest.
    """
    B = np.asarray(G, dtype=float)
    if B.ndim != 2 or B.shape[1] != ctx.dimension:
        raise ValueError(
            f"sample matrix must have {ctx.dimension} columns, got shape {B.shape}"
        )
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
    eigvals, eigvecs = np.linalg.eigh(B.T @ B)
    system = FrameSystem(B, eigvals, eigvecs, condenser=condenser, weight=weight)
    if system.lam_min <= LAMBDA_MIN_FLOOR * system.lam_max:
        raise FrameFailure(
            f"frame operator is numerically singular: eigenvalues {system.lam_min:.3e} "
            f"to {system.lam_max:.3e} (rows={B.shape[0]}, dim={ctx.dimension})",
            lam_min=system.lam_min,
            lam_max=system.lam_max,
        )
    return system


def reconstruct(system: FrameSystem, q):
    """Canonical-dual coefficients from (possibly quantized) signed samples q.

    Applies the frame's own condensation and weighting, then solves the frame
    operator S = U diag(lam) U^T against the analysis adjoint in its
    eigenbasis: c = U (U^T B^T (W V q) / lam).  B^T v is summed by einsum,
    not a threaded BLAS product, so its bits do not depend on the BLAS
    thread count.
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
    rhs = np.einsum("ij,i->j", system.analysis, v)
    return system.eigvecs @ ((system.eigvecs.T @ rhs) / system.eigvals)


def frame_bound_report(system: FrameSystem, gamma, t):
    """Concentration band for a condensed frame's spectrum at confidence parameters.

    The band is (||nu||_2 / ||nu||_1)^2 * [1 - gamma - 3t, 1 + 3t] for the
    frame's condensation row nu; returns the lower edge and the upper edge
    as lines against the observed extreme eigenvalues.
    """
    if system.condenser is None:
        raise ValueError("the concentration band needs a condensed frame")
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    nu = system.condenser.nu
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
