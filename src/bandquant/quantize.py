"""The quantizer alphabet and the greedy noise-shaping loop.

Every scheme is one greedy recursion, fixed by its feedback taps and its
restart length: step s rounds w_s = y_s + sum_j taps[j-1] u[s-j] to the
nearest element of a midrise alphabet and keeps the state u_s = w_s - q_s,
so y - q = H u with H = I - H-tilde (in exact arithmetic).  The feedback
restarts every `block` steps.  The n-th order difference scheme
(sigma-delta) has binomial taps and never restarts; the geometric scheme
(beta) has the single tap beta and restarts at every condensation block.
Plain rounding (MSQ) is the recursion without feedback (no taps, block 1) at
half-step 1/(2 levels), so its state is the rounding error y - q.  When the
alphabet is wide enough relative to the feedback gain, the state stays
within the alphabet half-step.

The recursion runs on one of two paths.  With block < y.size the blocks are
independent recursions of length block, so all of them advance together in
block numpy steps; with one recursion over all of y it runs step by step on
Python floats, with the past padded by the zero state from the first step
on (and, up to three taps, the taps by 0.0).  Each step performs the same
double-precision operations in the same order on both paths; the padding
only adds +-0 terms, which can change the sign of a zero w and nothing
else, and +0 and -0 round alike.  So q and u are bit-identical to a scalar
loop's.
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

    def nearest(self, w):
        """Closest alphabet element; exact ties resolve toward the larger value."""
        w_arr = np.asarray(w, dtype=float)
        scalar = w_arr.ndim == 0
        q = (2.0 * np.floor(w_arr / (2.0 * self.delta)) + 1.0) * self.delta
        q = np.clip(q, -self.max_element, self.max_element)
        return float(q) if scalar else q


def difference_taps(order):
    """Feedback taps of the n-fold difference scheme: -(-1)^j C(n, j), j = 1..n."""
    order = int(order)
    if order < 1:
        raise ValueError(f"difference order must be at least 1, got {order}")
    try:
        return tuple(
            float((-1) ** (j + 1) * math.comb(order, j)) for j in range(1, order + 1)
        )
    except OverflowError:
        raise ValueError(
            f"difference order {order} has binomial taps beyond the float range"
        ) from None


def stability_margin(taps, mu, alphabet: MidriseAlphabet):
    """Slack in the boundedness condition, in units of delta.

    Non-negative means inputs with sup norm at most mu keep the greedy state
    within the alphabet half-step: 2*levels - sum(|taps|) - mu/delta >= 0,
    where sum(|taps|) is the feedback gain (2^n - 1 for differences, beta).
    """
    return 2.0 * alphabet.levels - sum(abs(tap) for tap in taps) - mu / alphabet.delta


@dataclass(frozen=True)
class QuantizationResult:
    """Greedy quantizer output: codes q, state u, and the largest |u| seen."""

    q: np.ndarray
    u: np.ndarray
    max_state: float


def greedy_noise_shape(y, taps, alphabet: MidriseAlphabet, block=None):
    """Run the greedy noise-shaping recursion with the given taps on input y.

    Step s rounds w_s = y_s + sum_j taps[j-1] u[s-j] to the nearest alphabet
    element q_s and stores u_s = w_s - q_s, so y - q = H u.  The state is
    zero-initialised and the feedback restarts every block steps; block=None
    runs one recursion over all of y.  Raises ValueError when y is not a
    non-empty 1-d array, block does not divide y.size, y has a non-finite
    entry, or the stability margin for mu = sup|y| is negative, since the
    bounded-state guarantee is then void.

    With block < y.size (the geometric scheme, MSQ) the y.size/block
    recursions are independent and advance together, one in-block position
    per numpy step.  One recursion (the difference scheme) runs a step at a
    time on Python floats.  Either way each q_s and u_s comes from the same
    double-precision operations in the same order as in the scalar
    recursion (feedback added newest state first, then floor, scale and
    clip), and numpy and Python floats round those alike, so both paths agree
    bit for bit with a step-by-step loop.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"expected a non-empty 1-d input, got shape {y.shape}")
    block = y.size if block is None else int(block)
    if block < 1 or y.size % block != 0:
        raise ValueError(
            f"input size {y.size} must be a positive multiple of block {block}"
        )
    mu = float(np.max(np.abs(y)))
    if not math.isfinite(mu):
        raise ValueError("input must be finite, got a NaN or infinite sample")
    margin = stability_margin(taps, mu, alphabet)
    if margin < 0:
        raise ValueError(
            f"stability margin {margin:.6g} at the input's sup {mu:.6g} is "
            "negative, so the greedy state may leave the alphabet half-step "
            f"{alphabet.delta:.6g}"
        )
    if block < y.size:
        q, u = _shape_blocks(y, taps, block, alphabet)
    else:
        q, u = _shape_sequence(y, taps, alphabet)
    return QuantizationResult(q=q, u=u, max_state=float(np.max(np.abs(u))))


def _shape_blocks(y, taps, block, alphabet):
    """All blocks at once, one numpy step per in-block position."""
    ys = y.reshape(-1, block)
    qs = np.empty_like(ys)
    us = np.empty_like(ys)
    for t in range(block):
        w = ys[:, t].copy()
        # The slice keeps the taps that reach back within the block.
        for j, tap in enumerate(taps[:t], start=1):
            w += tap * us[:, t - j]
        qs[:, t] = alphabet.nearest(w)
        us[:, t] = w - qs[:, t]
    return qs.ravel(), us.ravel()


def _shape_sequence(y, taps, alphabet):
    """One recursion in order, on Python floats read _SEQUENCE_CHUNK at a time.

    The past starts as the zero state instead of growing over the first
    steps, so every step adds every tap's term; up to three taps run in one
    loop on local variables, padded with 0.0 taps.  Each padded term is
    tap * 0.0 = +-0, added last, which can flip the sign of a zero w only;
    +0 and -0 both round to +delta with state -delta, since the midrise
    alphabet has no 0, so q and u keep the scalar recursion's bits.  The
    loop records w only: q and u of a chunk follow from it by
    alphabet.nearest and w - q, the operations that the loop rounds with.
    """
    delta = alphabet.delta
    two_delta = 2.0 * delta
    max_elem = alphabet.max_element
    floor = math.floor
    t1, t2, t3 = (*taps, 0.0, 0.0, 0.0)[:3]
    u1 = u2 = u3 = 0.0
    # Newest state first, for more than three taps.
    past = collections.deque([0.0] * len(taps), maxlen=len(taps))
    q = np.empty(y.size)
    u = np.empty(y.size)
    for lo in range(0, y.size, _SEQUENCE_CHUNK):
        ws = []
        push = ws.append
        if len(taps) <= 3:
            for w in y[lo : lo + _SEQUENCE_CHUNK].tolist():
                w = ((w + t1 * u1) + t2 * u2) + t3 * u3
                # alphabet.nearest inline: a numpy call per step would cost
                # more than the step.
                qs = (2.0 * floor(w / two_delta) + 1.0) * delta
                if qs > max_elem:
                    qs = max_elem
                elif qs < -max_elem:
                    qs = -max_elem
                u1, u2, u3 = w - qs, u1, u2
                push(w)
        else:
            for w in y[lo : lo + _SEQUENCE_CHUNK].tolist():
                for tap, v in zip(taps, past):
                    w += tap * v
                qs = (2.0 * floor(w / two_delta) + 1.0) * delta
                if qs > max_elem:
                    qs = max_elem
                elif qs < -max_elem:
                    qs = -max_elem
                past.appendleft(w - qs)
                push(w)
        # u holds the chunk's w until its q is known.
        chunk = u[lo : lo + _SEQUENCE_CHUNK]
        chunk[:] = ws
        q[lo : lo + _SEQUENCE_CHUNK] = alphabet.nearest(chunk)
        chunk -= q[lo : lo + _SEQUENCE_CHUNK]
    return q, u
