"""Random sample draws, three-interval binning and Bernoulli sign streams.

Samples are drawn uniformly from the widest interval, split into a centre
region and two concentric shells, and each bin is truncated to a multiple of
the condensation block length so that the per-bin counts stay compatible with
the block structure of the condensation operator.
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


@dataclass(frozen=True)
class SampleConfig:
    """Sampling geometry and budget.

    m samples are drawn uniformly from [-(1+3*eps)*R, (1+3*eps)*R]; p is the
    total number of condensation blocks, so m must be a positive multiple of
    p and m // p is the block length.
    """

    m: int
    p: int
    R: float
    eps: float
    seed: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"need at least one block, got p={self.p}")
        if self.m < 1 or self.m % self.p != 0:
            raise ValueError(
                f"sample budget m={self.m} must be a positive multiple of p={self.p}"
            )
        if self.R <= 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.eps * self.R < 1.0:
            raise ValueError(
                f"shell width eps*R must be at least 1, got {self.eps * self.R}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def block(self):
        return self.m // self.p

    @property
    def outer_half_width(self):
        return (1.0 + 3.0 * self.eps) * self.R


def draw_samples(config: SampleConfig):
    """Draw the m sample coordinates (dedicated stream 0 of the seed)."""
    rng = _stream(config.seed, 0)
    half = config.outer_half_width
    return rng.uniform(-half, half, size=config.m)


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
    """Per-bin sample coordinates after truncation, with their sign streams.

    bins holds the retained coordinates in appearance order; block_counts
    are the cumulative block totals (p1 <= p2 <= p3 = blocks actually used);
    discarded counts the samples dropped to reach block-multiple bin sizes.
    """

    bins: tuple
    signs: tuple
    block_counts: tuple
    discarded: int
    block: int

    @property
    def truncated_counts(self):
        return tuple(len(b) for b in self.bins)

    def coordinates(self):
        """All retained coordinates, bin 1 then 2 then 3."""
        return np.concatenate(self.bins)

    def sign_vector(self):
        """Signs aligned with :meth:`coordinates`."""
        return np.concatenate(self.signs)


def partition_bins(samples, config: SampleConfig):
    """Split samples into the three bins and truncate to block multiples.

    Retains, per bin, the first floor(m_i / block) * block samples in
    appearance order, so each bin contributes a whole number of condensation
    blocks.  Raises BinningError when a bin has fewer samples than one block,
    since then no block structure fits.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (config.m,):
        raise ValueError(
            f"expected {config.m} samples, got array of shape {samples.shape}"
        )
    labels = bin_index(samples, config.R, config.eps)
    block = config.block
    bins = []
    for b in (1, 2, 3):
        coords = samples[labels == b]
        kept = (len(coords) // block) * block
        if kept == 0:
            raise BinningError(
                f"bin {b} received {len(coords)} samples, fewer than one "
                f"block of {block}; draw more samples or reduce p",
                samples=len(coords),
                block=block,
            )
        bins.append(coords[:kept])
    signs = draw_signs(config.seed, tuple(len(b) for b in bins))
    blocks_per_bin = [len(b) // block for b in bins]
    block_counts = tuple(np.cumsum(blocks_per_bin).tolist())
    discarded = config.m - sum(len(b) for b in bins)
    return BinnedSamples(
        bins=tuple(bins),
        signs=signs,
        block_counts=block_counts,
        discarded=discarded,
        block=block,
    )


def draw_signs(seed, lengths):
    """Bernoulli +/-1 signs for each bin (dedicated stream 1 of the seed).

    All signs come from a single draw split across bins, so the stream is
    reproducible for a given seed and set of bin lengths.
    """
    rng = _stream(seed, 1)
    total = int(sum(lengths))
    flat = rng.integers(0, 2, size=total) * 2 - 1
    out = []
    start = 0
    for n in lengths:
        out.append(flat[start : start + int(n)])
        start += int(n)
    return tuple(out)
