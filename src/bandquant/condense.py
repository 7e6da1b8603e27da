"""Condensation operators: block-averaging rows matched to a noise-shaping scheme.

Condensation compresses each block of quantized samples into one number with
a row vector chosen so that the composition with the transfer operator has a
small sup-to-L2 operator norm — exponentially small in the block length for
the geometric scheme, polynomially small of high order for the difference
scheme.  A row nu is a plain array whose size is the block length, and
condense(nu, v) applies the block-diagonal stack of nu / ||nu||_1, one copy
per block.

Relative to ||nu||_1, the rows of V H have closed-form L1 norms: the
geometric row nu^T H telescopes to its last entry, which leaves
(beta - 1) / (beta^L - 1) for a block of length L; the difference row
nu^T D^n is +-(1 - x^rep)^n, which leaves 2^n / rep^n for every row that
does not reach before the vector's start (verify_condensation_bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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
    return coeffs.astype(float)


def nu_beta(beta, block_len):
    """Geometric condensation row (beta^-1, ..., beta^-block_len)."""
    beta = float(beta)
    block_len = int(block_len)
    if beta <= 1:
        raise ValueError(f"geometric weight beta must exceed 1, got {beta}")
    if block_len < 1:
        raise ValueError(f"block length must be positive, got {block_len}")
    return beta ** -np.arange(1.0, block_len + 1.0)


def condense(nu, v):
    """Condense stacked blocks of nu.size samples: a vector, or a matrix's rows.

    Applies the block-diagonal V with one row nu / ||nu||_1 per block: row i
    of the result is the weighted sum over block i, accumulated from zero in
    in-block order, so a vector and each column of a matrix condense to the
    same bits.
    """
    nu = np.asarray(nu, dtype=float)
    v = np.asarray(v, dtype=float)
    if nu.ndim != 1 or nu.size < 1:
        raise ValueError("condensation row must be a non-empty 1-d array")
    if v.ndim not in (1, 2) or v.shape[0] == 0 or v.shape[0] % nu.size:
        raise ValueError(
            f"expected whole blocks of {nu.size} stacked samples along axis 0, "
            f"got shape {v.shape}"
        )
    stacked = v.reshape(-1, nu.size, *v.shape[1:])
    out = np.zeros((stacked.shape[0], *v.shape[1:]))
    for j, w in enumerate(nu / np.abs(nu).sum()):
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


# log(2^-1075): a positive rational whose log is at most this rounds to 0.0.
_LOG_UNDERFLOW = -1075 * math.log(2.0)


def verify_condensation_bounds(block_len, blocks, order=None, beta=None):
    """Check the closed-form norm bound for condensation-after-noise-shaping.

    Exactly one of order (difference scheme) or beta (geometric scheme) must
    be given.  The sup-to-L2 norm of V H is sqrt(sum_rows ||row||_1^2) over
    the rows of V H, taken in exact rationals (the product's entries cancel
    to values near the precision floor, so a floating product would measure
    rounding noise instead of the operators) from closed forms:

    - geometric: nu^T H telescopes to its last entry beta^-L, so every row
      has L1 norm (b - 1) / (b^L - 1), where b is the exact value of the
      float beta;
    - difference: nu^T D^n = +-(1 - x^rep)^n with ||nu||_1 = rep^n, so an
      interior row has L1 norm 2^n / rep^n, and row i, clipped at the
      start of the vector, keeps only the terms C(n, j) with
      j rep >= n - i L; that is the first row, and for rep = 1 the first n.

    It is compared with the a-priori estimate: sqrt(p) (8n)^(n+1) /
    block_len^n for differences, sqrt(p) beta^(1 - block_len) for geometric.
    The line is vacuous when the left side underflows to 0, since 0 <= rhs
    then holds whatever the operators are.
    """
    if (order is None) == (beta is None):
        raise ValueError("specify exactly one of order and beta")
    block_len = int(block_len)
    blocks = int(blocks)
    if blocks < 1:
        raise ValueError(f"need at least one block, got {blocks}")
    if order is not None:
        # Rejects an order below 1 and a block length that no rep fits.
        nu_sigma_delta(order, block_len)
        n = int(order)
        rep = (block_len - 1) // n + 1
        # Row i keeps the terms that do not reach before the vector's start:
        # C(n, j) at j rep >= n - i block_len, all of them from row n on.
        rows = [
            sum(math.comb(n, j) for j in range(n + 1) if j * rep >= n - i * block_len)
            for i in range(min(blocks, n))
        ]
        squares = Fraction(
            sum(r * r for r in rows) + (blocks - len(rows)) * 4**n, rep ** (2 * n)
        )
        rhs = (
            math.sqrt(blocks)
            * (8.0 * order) ** (order + 1)
            * float(block_len) ** (-order)
        )
        label = f"condensation norm bound (difference order {order})"
    else:
        nu_beta(beta, block_len)  # rejects beta <= 1 and block_len < 1
        beta = float(beta)
        # The log of the squared left side p (b - 1)^2 / (b^L - 1)^2 in
        # floats, with log(b^L - 1) = L log b + log(1 - b^-L).
        log_power = block_len * math.log(beta)
        log_squares = math.log(blocks) + 2.0 * (
            math.log(beta - 1.0) - log_power - math.log(-math.expm1(-log_power))
        )
        if log_squares < _LOG_UNDERFLOW - 1.0:
            # Clearly below the smallest float: skip the exact b^L, whose
            # 53 L bits take all the time of a long block.
            squares = 0
        else:
            b = Fraction(beta)
            squares = blocks * ((b - 1) / (b**block_len - 1)) ** 2
        rhs = math.sqrt(blocks) * beta ** (1 - block_len)
        label = f"condensation norm bound (geometric weight {beta:g})"
    lhs = math.sqrt(float(squares))
    # The exact left side is positive: 0.0 is an underflow.
    return BoundReport(label=label, lhs=lhs, rhs=rhs, vacuous=lhs == 0.0)
