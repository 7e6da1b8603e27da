"""The quantizer alphabet, transfer operators and the greedy noise-shaping loop.

Every scheme is one greedy recursion: step s rounds w_s = y_s + sum_j
taps[j-1] u[s-j] to the nearest element of a midrise alphabet and keeps the
state u_s = w_s - q_s, so y - q = H u with H = I - H-tilde (in exact
arithmetic).  The feedback restarts every `block` steps.  The n-th order
difference scheme (sigma-delta) has binomial taps and never restarts; the
geometric scheme (beta) has the single tap beta and restarts at every
condensation block.  Plain rounding (MSQ) is the recursion without feedback
(no taps, block 1) at half-step 1/(2 levels), so its state is the rounding
error y - q.  When the alphabet is wide enough
relative to the feedback gain, the state stays within the alphabet half-step.

The recursion runs on one of two paths.  With block < size the blocks are
independent recursions of length block, so all of them advance together in
block numpy steps; with block == size it runs step by step on Python floats.
Each step performs the same double-precision operations in the same order on
both paths, so their output is bit-identical to a scalar loop.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

# Samples converted to Python floats at a time by the unblocked recursion.
_SEQUENCE_CHUNK = 1 << 12


@dataclass(frozen=True)
class MidriseAlphabet:
    """Symmetric midrise alphabet {±(2l - 1) delta : l = 1..levels}.

    2 * levels values, no zero, spacing 2 * delta; delta is the rounding
    half-step.
    """

    levels: int
    delta: float

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def max_element(self):
        return (2.0 * self.levels - 1.0) * self.delta

    def elements(self):
        l = np.arange(1, self.levels + 1)
        pos = (2 * l - 1) * self.delta
        return np.concatenate([-pos[::-1], pos])

    def nearest(self, w):
        """Closest alphabet element; exact ties resolve toward the larger value."""
        w_arr = np.asarray(w, dtype=float)
        scalar = w_arr.ndim == 0
        q = (2.0 * np.floor(w_arr / (2.0 * self.delta)) + 1.0) * self.delta
        q = np.clip(q, -self.max_element, self.max_element)
        return float(q) if scalar else q


@dataclass(frozen=True)
class TransferOperator:
    """Lower-triangular H = I - H-tilde on state vectors of a fixed size.

    taps[j-1] is the weight of u[s-j] in the feedback at step s; the feedback
    reaches back at most to the start of the current block of length block,
    which divides size.
    """

    taps: tuple
    size: int
    block: int

    @classmethod
    def sigma_delta(cls, order, size):
        """n-fold difference operator of the given order over the whole vector."""
        order = int(order)
        if order < 1:
            raise ValueError(f"difference order must be at least 1, got {order}")
        taps = tuple(
            float((-1) ** (j + 1) * math.comb(order, j)) for j in range(1, order + 1)
        )
        return cls(taps=taps, size=int(size), block=int(size))

    @classmethod
    def beta_block(cls, beta, size, block):
        """Geometric feedback of weight beta inside blocks of the given length."""
        beta = float(beta)
        if beta <= 1:
            raise ValueError(f"geometric weight must exceed 1, got {beta}")
        return cls(taps=(beta,), size=int(size), block=int(block))

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be positive, got {self.size}")
        if self.block < 1 or self.size % self.block != 0:
            raise ValueError(
                f"state size {self.size} must be a positive multiple of block {self.block}"
            )

    def htilde_inf_norm(self):
        """Feedback gain sum(|taps|) (2^n - 1 for differences, beta)."""
        return float(sum(abs(tap) for tap in self.taps))


def stability_margin(op: TransferOperator, mu, alphabet: MidriseAlphabet):
    """Slack in the boundedness condition, in units of delta.

    Non-negative means inputs with sup norm at most mu keep the greedy state
    within the alphabet half-step: 2*levels - feedback gain - mu/delta >= 0.
    """
    return 2.0 * alphabet.levels - op.htilde_inf_norm() - mu / alphabet.delta


@dataclass(frozen=True)
class QuantizationResult:
    """Greedy quantizer output: codes q, state u, and the largest |u| seen."""

    q: np.ndarray
    u: np.ndarray
    max_state: float


def greedy_noise_shape(y, op: TransferOperator, alphabet: MidriseAlphabet):
    """Run the greedy noise-shaping recursion on input y.

    Step s rounds w_s = y_s + (feedback from past state in its block) to the
    nearest alphabet element q_s and stores u_s = w_s - q_s; by construction
    y - q = H u.  The state is zero-initialised.  Raises ValueError when y
    has a non-finite entry, or when the stability margin for mu = sup|y| is
    negative, since the bounded-state guarantee is then void.

    A blocked operator (block < size, the geometric scheme) restarts its
    feedback at every block, so its size/block recursions are independent
    and advance together, one in-block position per numpy step.  An
    unblocked operator (block == size, the difference scheme) runs one step
    at a time on Python floats.  Either way each w_s, q_s and u_s comes from
    the same double-precision operations in the same order as in the scalar
    recursion (feedback added newest state first, then floor, scale and
    clip), and numpy and Python floats round those alike, so both paths agree
    bit for bit with a step-by-step loop.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (op.size,):
        raise ValueError(f"expected input of shape ({op.size},), got {y.shape}")
    mu = float(np.max(np.abs(y), initial=0.0))
    if not math.isfinite(mu):
        raise ValueError("input must be finite, got a NaN or infinite sample")
    margin = stability_margin(op, mu, alphabet)
    if margin < 0:
        raise ValueError(
            f"stability margin {margin:.6g} at the input's sup {mu:.6g} is "
            "negative, so the greedy state may leave the alphabet half-step "
            f"{alphabet.delta:.6g}"
        )
    if op.block < op.size:
        q, u = _shape_blocks(y, op, alphabet)
    else:
        q, u = _shape_sequence(y, op, alphabet)
    return QuantizationResult(q=q, u=u, max_state=float(np.max(np.abs(u))))


def _shape_blocks(y, op, alphabet):
    """All blocks at once, one numpy step per in-block position."""
    ys = y.reshape(-1, op.block)
    qs = np.empty_like(ys)
    us = np.empty_like(ys)
    for t in range(op.block):
        w = ys[:, t].copy()
        # The slice keeps the taps that reach back within the block.
        for j, tap in enumerate(op.taps[:t], start=1):
            w += tap * us[:, t - j]
        qs[:, t] = alphabet.nearest(w)
        us[:, t] = w - qs[:, t]
    return qs.ravel(), us.ravel()


def _shape_sequence(y, op, alphabet):
    """One recursion in order, on Python floats read _SEQUENCE_CHUNK at a time."""
    delta = alphabet.delta
    two_delta = 2.0 * delta
    max_elem = alphabet.max_element
    taps = op.taps
    # Newest state first.  Over the first steps it holds fewer values than
    # there are taps, so zip stops at taps[:s] as the scalar recursion does.
    past = collections.deque(maxlen=len(taps))
    q = np.empty(op.size)
    u = np.empty(op.size)
    for lo in range(0, op.size, _SEQUENCE_CHUNK):
        hi = lo + _SEQUENCE_CHUNK
        q_chunk = []
        u_chunk = []
        for w in y[lo:hi].tolist():
            for tap, v in zip(taps, past):
                w += tap * v
            # alphabet.nearest inline: a numpy call per step would cost more
            # than the step.
            qs = (2.0 * math.floor(w / two_delta) + 1.0) * delta
            if qs > max_elem:
                qs = max_elem
            elif qs < -max_elem:
                qs = -max_elem
            us = w - qs
            q_chunk.append(qs)
            u_chunk.append(us)
            past.appendleft(us)
        q[lo:hi] = q_chunk
        u[lo:hi] = u_chunk
    return q, u
