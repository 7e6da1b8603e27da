"""Condensation operators: block-averaging rows matched to a noise-shaping scheme.

Condensation compresses each block of quantized samples into one number with
a row vector chosen so that the composition with the transfer operator has a
small sup-to-L2 operator norm — exponentially small in the block length for
the geometric scheme, polynomially small of high order for the difference
scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class CondensationVector:
    """One block row nu, before L1 normalisation."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 1 or entries.size < 1:
            raise ValueError("condensation vector must be a non-empty 1-d array")
        object.__setattr__(self, "entries", entries)

    @property
    def block_len(self):
        return self.entries.size

    @property
    def l1(self):
        return float(np.abs(self.entries).sum())

    @property
    def l2(self):
        return float(np.sqrt((self.entries**2).sum()))


def nu_sigma_delta(order, block_len):
    """Polynomial condensation row for the order-n difference scheme.

    Coefficients of (1 + x + ... + x^(rep-1))^n, which requires the block
    length to equal rep*n - n + 1 for an integer repetition factor rep >= 1;
    otherwise the compatible nearby block lengths are suggested.
    """
    order = int(order)
    block_len = int(block_len)
    if order < 1:
        raise ValueError(f"difference order must be at least 1, got {order}")
    if block_len < 1:
        raise ValueError(f"block length must be positive, got {block_len}")
    rep, rem = divmod(block_len - 1, order)
    rep += 1
    if rem != 0:
        lo = (rep - 1) * order + 1 if rep >= 2 else order + 1
        hi = rep * order + 1
        raise ValueError(
            f"block length {block_len} is incompatible with difference order "
            f"{order}; nearest compatible lengths are {lo} and {hi}"
        )
    if rep**order > 2**62:
        raise ValueError(
            f"condensation coefficients overflow for repetition {rep} and "
            f"order {order}"
        )
    coeffs = np.array([1], dtype=np.int64)
    base = np.ones(rep, dtype=np.int64)
    for _ in range(order):
        coeffs = np.convolve(coeffs, base)
    return CondensationVector(entries=coeffs.astype(float))


def nu_beta(beta, block_len):
    """Geometric condensation row (beta^-1, ..., beta^-block_len)."""
    beta = float(beta)
    block_len = int(block_len)
    if beta <= 1:
        raise ValueError(f"geometric weight must exceed 1, got {beta}")
    if block_len < 1:
        raise ValueError(f"block length must be positive, got {block_len}")
    entries = beta ** -np.arange(1.0, block_len + 1.0)
    return CondensationVector(entries=entries)


@dataclass(frozen=True)
class BlockCondensation:
    """Block-diagonal stack of one L1-normalised condensation row per block."""

    nu: CondensationVector
    blocks: int

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError(f"need at least one block, got {self.blocks}")

    @property
    def row(self):
        return self.nu.entries / self.nu.l1

    @property
    def shape(self):
        return (self.blocks, self.blocks * self.nu.block_len)

    def matrix(self):
        """Dense block-diagonal matrix (a reference for tests and audits)."""
        return np.kron(np.eye(self.blocks), self.row)

    def apply(self, v):
        """Condense blocks * block_len stacked samples: a vector, or a matrix's rows.

        Row i of the result is the row-weighted sum over block i, accumulated
        from zero in in-block order, so a vector and each column of a matrix
        condense to the same bits.
        """
        v = np.asarray(v, dtype=float)
        expected = self.blocks * self.nu.block_len
        if v.ndim not in (1, 2) or v.shape[0] != expected:
            raise ValueError(
                f"expected {expected} stacked samples along axis 0, got shape {v.shape}"
            )
        stacked = v.reshape(self.blocks, self.nu.block_len, *v.shape[1:])
        out = np.zeros((self.blocks, *v.shape[1:]))
        for j, w in enumerate(self.row):
            out += w * stacked[:, j]
        return out


def build_weight(block_counts, R, eps):
    """Diagonal of the weight matrix for cumulative block counts (p1, p2, p3).

    Each bin's blocks share one weight, the square root of (bin length) /
    (blocks in bin); together with the sign flips this makes the condensed
    rows behave like a Monte-Carlo quadrature of inner products against the
    reproducing kernel.  Bin 1 covers an interval of length 2(1+eps)R split
    over p1 blocks; bins 2 and 3 each cover shells of total length 2*eps*R
    split over their own blocks.
    """
    p1, p2, p3 = (int(c) for c in block_counts)
    if not 0 < p1 <= p2 <= p3:
        raise ValueError(f"block counts must be positive and cumulative, got {block_counts}")
    if p2 == p1 or p3 == p2:
        raise ValueError(
            f"every bin needs at least one block, got cumulative counts {block_counts}"
        )
    lengths = [2.0 * (1.0 + eps) * R, 2.0 * eps * R, 2.0 * eps * R]
    counts = [p1, p2 - p1, p3 - p2]
    return np.concatenate(
        [np.full(c, math.sqrt(ln / c)) for ln, c in zip(lengths, counts)]
    )


def inf_to_two_bound(mat):
    """Upper bound sqrt(sum_rows ||row||_1^2) on the sup-to-L2 operator norm."""
    row_l1 = np.abs(np.asarray(mat, dtype=float)).sum(axis=1)
    return float(np.sqrt((row_l1**2).sum()))


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: computed left side against its closed form.

    ``vacuous`` marks an inequality that holds whatever was computed, such as
    a lower bound that is not positive on a quantity that cannot be negative.
    """

    label: str
    lhs: float
    rhs: float
    vacuous: bool = False

    @property
    def passed(self):
        return self.lhs <= self.rhs


def _difference_product_row_l1s(order, block_len, blocks):
    """Exact row L1 norms of (I_p (x) nu^T) D^order, relative to nu's L1 norm.

    All quantities are integers, so int64 convolution is exact.  Each row of
    the product reaches `order` entries into the previous block; row 0 is
    clipped at the start of the vector and interior rows share one pattern.
    """
    nu = nu_sigma_delta(order, block_len).entries.astype(np.int64)
    dn = np.array(
        [(-1) ** j * math.comb(order, j) for j in range(order + 1)], dtype=np.int64
    )
    # pattern[s + order] = sum_j nu[j] * dn[j - s] for s = -order .. block_len-1.
    pattern = np.convolve(nu, dn[::-1])
    interior = int(np.abs(pattern).sum())
    first = int(np.abs(pattern[order:]).sum())
    l1 = int(nu.sum())
    norms = [first] + [interior] * (blocks - 1)
    return [Fraction(n, l1) for n in norms]


def _geometric_product_row_l1(beta, block_len):
    """Exact row L1 norm of nu^T H for one geometric block, relative to |nu|_1.

    Computed in rational arithmetic on the exact values of the float beta, so
    the telescoping cancellation inside the product is exact rather than
    floating-point noise.
    """
    b = Fraction(beta)
    nu = [b ** -(j + 1) for j in range(block_len)]
    l1 = sum(nu)
    prod = [nu[i] - b * nu[i + 1] for i in range(block_len - 1)] + [nu[-1]]
    return sum(abs(x) for x in prod) / l1


def verify_condensation_bounds(block_len, blocks, order=None, beta=None):
    """Check the closed-form norm bound for condensation-after-noise-shaping.

    Exactly one of order (difference scheme) or beta (geometric scheme) must
    be given.  Computes the sup-to-L2 bound of V H in exact arithmetic (the
    product entries cancel to values near the precision floor, so a floating
    product would measure rounding noise instead of the operators) and
    compares with the a-priori estimate: sqrt(p) (8n)^(n+1) / block_len^n for
    differences, sqrt(p) beta^(1 - block_len) for geometric.
    """
    if (order is None) == (beta is None):
        raise ValueError("specify exactly one of order and beta")
    block_len = int(block_len)
    blocks = int(blocks)
    if blocks < 1:
        raise ValueError(f"need at least one block, got {blocks}")
    if order is not None:
        row_l1s = _difference_product_row_l1s(int(order), block_len, blocks)
        rhs = (
            math.sqrt(blocks)
            * (8.0 * order) ** (order + 1)
            * float(block_len) ** (-order)
        )
        label = f"difference order {order}"
    else:
        if beta <= 1:
            raise ValueError(f"geometric weight must exceed 1, got {beta}")
        row = _geometric_product_row_l1(float(beta), block_len)
        row_l1s = [row] * blocks
        rhs = math.sqrt(blocks) * float(beta) ** (1 - block_len)
        label = f"geometric weight {beta:g}"
    lhs = math.sqrt(float(sum(r * r for r in row_l1s)))
    return BoundReport(label=label, lhs=lhs, rhs=rhs)
