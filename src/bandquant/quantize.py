"""Quantization alphabets, transfer operators and the greedy noise-shaping loop.

A transfer operator H is a lower-triangular perturbation of the identity;
the greedy quantizer rounds, at each step, the current input plus feedback
from past state entries, producing q and a state u with y - q = H u exactly
(in exact arithmetic).  When the alphabet is wide enough relative to the
feedback gain, the state stays uniformly bounded by the alphabet half-step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


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
class MsqAlphabet:
    """Uniform alphabet {-1 + (2n + 1) / (2L) : n = 0..2L-1} covering [-1, 1].

    Used for direct per-sample rounding; spacing 1/L, half-step 1/(2L).
    """

    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")

    @property
    def half_step(self):
        return 1.0 / (2.0 * self.levels)

    def elements(self):
        n = np.arange(2 * self.levels)
        return -1.0 + (2.0 * n + 1.0) / (2.0 * self.levels)

    def nearest(self, w):
        """Closest alphabet element; exact ties resolve toward the larger value."""
        w_arr = np.asarray(w, dtype=float)
        scalar = w_arr.ndim == 0
        n = np.clip(
            np.floor((w_arr + 1.0) * self.levels), 0, 2 * self.levels - 1
        )
        q = -1.0 + (2.0 * n + 1.0) / (2.0 * self.levels)
        return float(q) if scalar else q


def msq(y, alphabet: MsqAlphabet):
    """Memoryless per-sample rounding of y."""
    return alphabet.nearest(np.asarray(y, dtype=float))


@dataclass(frozen=True)
class TransferOperator:
    """Lower-triangular transfer operator acting on state vectors of a fixed size.

    Two kinds: "difference" (n-fold backward difference, feedback reaching n
    steps into the past) and "geometric" (single feedback tap of weight beta,
    restarted at every block boundary so state never crosses condensation
    blocks).
    """

    kind: str
    size: int
    order: int = 0
    beta: float = 0.0
    block: int = 0

    @classmethod
    def sigma_delta(cls, order, size):
        """n-fold difference operator of the given order over the whole vector."""
        order = int(order)
        if order < 1:
            raise ValueError(f"difference order must be at least 1, got {order}")
        return cls(kind="difference", size=int(size), order=order)

    @classmethod
    def beta_block(cls, beta, size, block):
        """Geometric feedback of weight beta inside blocks of the given length."""
        beta = float(beta)
        if beta <= 1:
            raise ValueError(f"geometric weight must exceed 1, got {beta}")
        size = int(size)
        block = int(block)
        if block < 1 or size % block != 0:
            raise ValueError(
                f"state size {size} must be a positive multiple of block {block}"
            )
        return cls(kind="geometric", size=size, beta=beta, block=block)

    def __post_init__(self):
        if self.kind not in ("difference", "geometric"):
            raise ValueError(f"unknown transfer operator kind: {self.kind}")
        if self.size < 1:
            raise ValueError(f"size must be positive, got {self.size}")

    def feedback_taps(self):
        """Coefficients of H-tilde = I - H: tap[j-1] multiplies u[s-j]."""
        if self.kind == "difference":
            j = np.arange(1, self.order + 1)
            signs = np.where(j % 2 == 1, 1.0, -1.0)
            return signs * np.array(
                [math.comb(self.order, int(jj)) for jj in j], dtype=float
            )
        return np.array([self.beta])

    def htilde_inf_norm(self):
        """Row-sum norm of the feedback part (2^n - 1 for differences, beta)."""
        if self.kind == "difference":
            return 2.0**self.order - 1.0
        return self.beta

    def apply(self, u):
        """Compute H u without forming the matrix."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.size,):
            raise ValueError(f"expected state of shape ({self.size},), got {u.shape}")
        if self.kind == "difference":
            v = u.copy()
            for _ in range(self.order):
                v = np.diff(v, prepend=0.0)
            return v
        blocks = u.reshape(-1, self.block)
        out = blocks.copy()
        out[:, 1:] -= self.beta * blocks[:, :-1]
        return out.ravel()

    def matrix(self):
        """Dense H (a reference for tests and audits)."""
        if self.kind == "difference":
            step = np.eye(self.size) - np.eye(self.size, k=-1)
            return np.linalg.matrix_power(step, self.order)
        block = np.eye(self.block) - self.beta * np.eye(self.block, k=-1)
        return np.kron(np.eye(self.size // self.block), block)


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

    def to_csv(self, path, y):
        y = np.asarray(y, dtype=float)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# bandquant-quantized v1 max_state={self.max_state:.17g}\n")
            fh.write("index,input,code,state\n")
            for i, (yi, qi, ui) in enumerate(zip(y, self.q, self.u)):
                fh.write(f"{i},{yi:.17g},{qi:.17g},{ui:.17g}\n")


def greedy_noise_shape(y, op: TransferOperator, alphabet: MidriseAlphabet):
    """Run the greedy noise-shaping recursion on input y.

    Step s rounds w_s = y_s + (feedback from past state) to the nearest
    alphabet element q_s and stores u_s = w_s - q_s; by construction
    y - q = H u.  The state is zero-initialised, and the geometric kind
    restarts its feedback at block boundaries.  A warning is emitted when the
    stability margin for mu = sup|y| is negative, since the bounded-state
    guarantee is then void.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (op.size,):
        raise ValueError(f"expected input of shape ({op.size},), got {y.shape}")
    margin = stability_margin(op, float(np.max(np.abs(y), initial=0.0)), alphabet)
    if margin < 0:
        warnings.warn(
            f"stability margin {margin:.3g} is negative; the greedy state may "
            "exceed the alphabet half-step",
            RuntimeWarning,
            stacklevel=2,
        )
    delta = alphabet.delta
    max_elem = alphabet.max_element
    taps = op.feedback_taps()
    u = np.zeros(op.size)
    q = np.empty(op.size)
    block = op.block if op.kind == "geometric" else 0
    for s in range(op.size):
        w = y[s]
        if op.kind == "difference":
            reach = min(len(taps), s)
            for j in range(1, reach + 1):
                w += taps[j - 1] * u[s - j]
        elif op.kind == "geometric" and s % block != 0:
            w += op.beta * u[s - 1]
        qs = (2.0 * math.floor(w / (2.0 * delta)) + 1.0) * delta
        if qs > max_elem:
            qs = max_elem
        elif qs < -max_elem:
            qs = -max_elem
        q[s] = qs
        u[s] = w - qs
    return QuantizationResult(q=q, u=u, max_state=float(np.max(np.abs(u))))
