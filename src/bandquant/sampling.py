"""Sampling geometry, random draws, three-interval binning and sign streams.

For a reconstruction on [-R, R] with shell parameter eps, m points are drawn
i.i.d. uniformly from [-(1+3 eps) R, (1+3 eps) R] on stream 0 of the seed,
and the span's shifts cover [-(1+2.5 eps) R, (1+2.5 eps) R]; every module
reads this geometry from here.  The sampling interval splits into a centre
region and two concentric shells, and each bin is truncated to a multiple of
the condensation block length its caller passes, so that the per-bin counts
stay compatible with the block structure of the condensation operator.  The
retained samples and their signs (stream 1 of the seed) are flat arrays, bin
1 then 2 then 3, and each block carries the quadrature weight sqrt(bin
length / blocks in the bin), at bin lengths 2(1+eps)R for the centre and
2 eps R for each shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Radii (1 + c eps) R: the shells start at c = 1 and 2, the samples reach
# c = 3 and the span's shifts c = 2.5, the middle of the outer shell.  2.5 is
# not a measured choice: the outer shell's samples beyond it carry f - Pf
# into the data, and which factor serves best is open (ROADMAP.md).
SAMPLING_FACTOR = 3.0
SPAN_FACTOR = 2.5


def radius(R, eps, c):
    """(1 + c eps) R, the geometry's radius at factor c."""
    return (1.0 + c * eps) * R


def span_window(lam, R, eps):
    """(k_max, half_width) of the span that reconstructs on [-R, R]: its
    2 k_max + 1 shifts k / lam cover [-half_width, half_width]."""
    half_width = radius(R, eps, SPAN_FACTOR)
    # The 1e-9 guard keeps exact boundary products (e.g. 22.5) stable
    # against floating-point representation of the factors.
    return int(math.floor(lam * half_width + 1e-9)), half_width


def geometry_problems(R, eps, lam=1.0):
    """Every problem with R and eps on a lattice of density lam: all three
    finite, R and eps positive, the shell width eps R at least 1, and the
    sampling interval 2(1+3 eps) R and the lattice extent lam (1+2.5 eps) R
    finite floats.  The default lam = 1 checks the sampling interval alone."""
    named = {"R": R, "eps": eps, "lam": lam}
    problems = [f"{k} must be finite, got {v}" for k, v in named.items() if not math.isfinite(v)]
    length, extent = 2.0 * radius(R, eps, SAMPLING_FACTOR), lam * radius(R, eps, SPAN_FACTOR)
    if R <= 0:
        problems.append(f"R must be positive, got {R}")
    if eps <= 0:
        problems.append(f"eps must be positive, got {eps}")
    elif eps * R < 1.0:
        problems.append(f"shell width eps*R must be at least 1, got {eps * R}")
    elif not problems and math.inf in (length, extent):
        problems.append(
            f"R={R:g} and eps={eps:g} give a sampling interval of length {length:g} and, "
            f"at lam={lam:g}, a lattice extent of {extent:g}; both must be finite"
        )
    return problems


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

    The draw reads dedicated stream 0 of the seed.  Raises ValueError with
    the first of geometry_problems(R, eps).
    """
    if m < 1:
        raise ValueError(f"sample budget m must be positive, got {m}")
    if problems := geometry_problems(R, eps):
        raise ValueError(problems[0])
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    half = radius(R, eps, SAMPLING_FACTOR)
    return _stream(seed, 0).uniform(-half, half, size=m)


def bin_index(x, R, eps):
    """Bin labels (1, 2, 3) by distance from the origin.

    The label is 1 plus the number of shell edges (1+eps)R and (1+2eps)R at
    or below |x|, so the centre bin is open at its boundary and each shell
    owns its inner edge; bin 3 ends at (1+3eps)R (SAMPLING_FACTOR), and
    values beyond it are rejected.
    """
    x_arr = np.abs(np.asarray(x, dtype=float))
    if np.any(x_arr > radius(R, eps, SAMPLING_FACTOR)):
        raise ValueError("sample outside the outer sampling interval")
    out = 1 + (x_arr >= radius(R, eps, 1.0)) + (x_arr >= radius(R, eps, 2.0))
    return int(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BinnedSamples:
    """Retained sample coordinates after truncation, bin 1 then 2 then 3, and
    one sign per coordinate.

    Within a bin the coordinates keep their appearance order;
    truncated_counts are the retained samples per bin, each a multiple of
    the block length block; weights holds one quadrature weight per block,
    sqrt(bin length / blocks in the bin), which together with the sign flips
    makes the condensed rows behave like a Monte-Carlo quadrature of inner
    products against the reproducing kernel; discarded counts the samples
    dropped to reach block-multiple bin sizes; positions holds each
    coordinate's index in the samples it was taken from.
    """

    coordinates: np.ndarray
    signs: np.ndarray
    truncated_counts: tuple
    weights: np.ndarray
    discarded: int
    block: int
    positions: np.ndarray


def partition_bins(samples, R, eps, block, seed):
    """Split samples into the three bins and truncate to multiples of block.

    Retains, per bin, the first floor(m_i / block) * block samples in
    appearance order, so each bin contributes a whole number of condensation
    blocks, draws their signs from the seed and weights each block by
    sqrt(bin length / blocks in the bin).  Raises BinningError when a bin
    has fewer samples than one block, since then no block structure fits.
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
    lengths = (2.0 * radius(R, eps, 1.0), 2.0 * eps * R, 2.0 * eps * R)
    blocks = [c.size // block for c in bins]
    return BinnedSamples(
        coordinates=samples[positions],
        signs=draw_signs(seed, positions.size),
        truncated_counts=tuple(c.size for c in bins),
        weights=np.repeat([math.sqrt(ln / n) for ln, n in zip(lengths, blocks)], blocks),
        discarded=samples.size - positions.size,
        block=block,
        positions=positions,
    )


def draw_signs(seed, n):
    """n Bernoulli +/-1 signs (dedicated stream 1 of the seed)."""
    return _stream(seed, 1).integers(0, 2, size=int(n)) * 2 - 1
