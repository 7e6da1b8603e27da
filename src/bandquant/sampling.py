"""Random sample draws, three-interval binning and Bernoulli sign streams.

The sampling is fixed by plain values: m points drawn i.i.d. uniformly from
[-(1+3 eps) R, (1+3 eps) R] on stream 0 of the seed.  That interval splits
into a centre region and two concentric shells, and each bin is truncated to
a multiple of the condensation block length its caller passes, so that the
per-bin counts stay compatible with the block structure of the condensation
operator.  The retained samples and their signs (stream 1 of the seed) are
flat arrays, bin 1 then 2 then 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BinningError(ValueError):
    """Raised when a bin receives fewer samples than one condensation block.

    samples is the short bin's sample count and block the block length.
    """

    def __init__(self, message, samples, block):
        super().__init__(message)
        self.samples = samples
        self.block = block


def _stream(seed, channel):
    """Independent RNG stream for a (seed, channel) pair."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(channel))))


def draw_samples(m, R, eps, seed):
    """Draw m sample coordinates uniformly from [-(1+3 eps) R, (1+3 eps) R].

    The draw reads dedicated stream 0 of the seed.  eps * R, the width of
    each shell, must be at least 1.
    """
    if m < 1:
        raise ValueError(f"sample budget m must be positive, got {m}")
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if eps * R < 1.0:
        raise ValueError(f"shell width eps*R must be at least 1, got {eps * R}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    half = (1.0 + 3.0 * eps) * R
    return _stream(seed, 0).uniform(-half, half, size=m)


def bin_index(x, R, eps):
    """Bin labels (1, 2, 3) by distance from the origin.

    The centre bin is open at its boundary, shells own their inner edge:
    |x| < (1+eps)R -> 1, (1+eps)R <= |x| < (1+2eps)R -> 2, and
    (1+2eps)R <= |x| <= (1+3eps)R -> 3.  Values beyond the outer interval
    are rejected.
    """
    x_arr = np.abs(np.asarray(x, dtype=float))
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(x_arr > (1.0 + 3.0 * eps) * R):
        raise ValueError("sample outside the outer sampling interval")
    out = np.ones(x_arr.shape, dtype=int)
    out[x_arr >= (1.0 + eps) * R] = 2
    out[x_arr >= (1.0 + 2.0 * eps) * R] = 3
    return int(out[0]) if scalar else out


@dataclass(frozen=True)
class BinnedSamples:
    """Retained sample coordinates after truncation, bin 1 then 2 then 3, and
    one sign per coordinate.

    Within a bin the coordinates keep their appearance order; block_counts
    are the cumulative block totals (p1 <= p2 <= p3 = blocks actually used)
    of the block length block; discarded counts the samples dropped to reach
    block-multiple bin sizes; positions holds each coordinate's index in the
    samples it was taken from.
    """

    coordinates: np.ndarray
    signs: np.ndarray
    block_counts: tuple
    discarded: int
    block: int
    positions: np.ndarray

    @property
    def truncated_counts(self):
        """Retained samples per bin."""
        starts = (0, *self.block_counts[:-1])
        return tuple(self.block * (hi - lo) for lo, hi in zip(starts, self.block_counts))


def partition_bins(samples, R, eps, block, seed):
    """Split samples into the three bins and truncate to multiples of block.

    Retains, per bin, the first floor(m_i / block) * block samples in
    appearance order, so each bin contributes a whole number of condensation
    blocks, and draws their signs from the seed.  Raises BinningError when a
    bin has fewer samples than one block, since then no block structure fits.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError(f"expected a 1-d array of samples, got shape {samples.shape}")
    if block < 1:
        raise ValueError(f"block length must be positive, got {block}")
    labels = bin_index(samples, R, eps)
    bins = []
    for b in (1, 2, 3):
        where = np.flatnonzero(labels == b)
        kept = (where.size // block) * block
        if kept == 0:
            raise BinningError(
                f"bin {b} received {where.size} samples, fewer than one "
                f"block of {block}; draw more samples or reduce p",
                samples=where.size,
                block=block,
            )
        bins.append(where[:kept])
    positions = np.concatenate(bins)
    return BinnedSamples(
        coordinates=samples[positions],
        signs=draw_signs(seed, positions.size),
        block_counts=tuple(np.cumsum([len(c) // block for c in bins]).tolist()),
        discarded=samples.size - positions.size,
        block=block,
        positions=positions,
    )


def draw_signs(seed, n):
    """n Bernoulli +/-1 signs (dedicated stream 1 of the seed)."""
    return _stream(seed, 1).integers(0, 2, size=int(n)) * 2 - 1
