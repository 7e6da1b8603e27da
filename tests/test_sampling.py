"""Sampling, binning and sign-stream tests (geometry R=5, eps=1/2 unless a
test says otherwise: bin edges at 7.5, 10 and 12.5)."""

import dataclasses
import math
import re

import numpy as np
import pytest

import bandquant as bq


R, EPS = 5.0, 0.5


# --- draws -------------------------------------------------------------------


def test_draw_deterministic_and_in_range():
    a = bq.draw_samples(1000, R, EPS, 3)
    b = bq.draw_samples(1000, R, EPS, 3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1000,)
    assert np.all(np.abs(a) <= 12.5)
    c = bq.draw_samples(1000, R, EPS, 4)
    assert not np.array_equal(a, c)


def test_draw_samples_validation():
    with pytest.raises(ValueError, match="sample budget m must be positive"):
        bq.draw_samples(0, R, EPS, 0)
    with pytest.raises(ValueError, match="shell width"):
        bq.draw_samples(100, 5.0, 0.1, 0)  # eps*R < 1
    with pytest.raises(ValueError, match="R must be positive"):
        bq.draw_samples(100, -5.0, 0.5, 0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        bq.draw_samples(100, 5.0, 0.5, -1)


_GEOMETRIES = [
    (5.0, 0.5, None),
    (2.0, 0.5, None),  # shell width exactly 1
    (7.0, 0.3, None),
    (5.0, 0.1, "shell width eps*R must be at least 1, got 0.5"),
    (0.0, 0.5, "R must be positive, got 0.0"),
    (-5.0, 0.5, "R must be positive, got -5.0"),
    (5.0, 0.0, "eps must be positive, got 0.0"),
    (5.0, -0.5, "eps must be positive, got -0.5"),
    (1e308, 0.5, "R=1e+308 and eps=0.5 give a sampling interval of length inf"),
    (10.0, 1e308, "R=10 and eps=1e+308 give a sampling interval of length inf"),
    (math.inf, 0.5, "R must be finite, got inf"),
    (5.0, math.nan, "eps must be finite, got nan"),
]


@pytest.mark.parametrize(
    "R, eps, problem", _GEOMETRIES, ids=[f"R={R:g},eps={eps:g}" for R, eps, _ in _GEOMETRIES]
)
def test_every_entry_point_takes_the_same_geometry(gen, R, eps, problem):
    # validate lists the problem, the library functions raise it.  At the
    # overflowing and non-finite geometries they raised OverflowError or
    # drew from an infinite interval.
    model = bq.synth_test_signal(1, 12, 0.9)
    calls = (
        lambda: bq.validate(dataclasses.replace(bq.RunConfig(), R=R, eps=eps)),
        lambda: bq.draw_samples(100, R, eps, 1),
        lambda: bq.project(model, gen, R, eps),
        lambda: bq.KernelContext.from_box(gen, R, eps),
    )
    for call in calls:
        if problem is None:
            call()
            continue
        with pytest.raises(ValueError, match=re.escape(problem)):
            call()


# --- bin labels --------------------------------------------------------------


def test_bin_index_cases():
    below = lambda v: float(np.nextafter(v, 0.0))
    for R, eps in ((5.0, 0.5), (7.0, 0.3)):
        # The edges are the float expressions the bins were first written
        # with, to the last bit: at (7, 0.3) the outer edge (1 + 2 eps) R is
        # 11.200000000000001, where R + 2 eps R would be 11.2.
        inner, outer, half = (1.0 + eps) * R, (1.0 + 2.0 * eps) * R, (1.0 + 3.0 * eps) * R
        xs = np.array([-below(inner), inner, below(outer), -outer, half, 0.5])
        np.testing.assert_array_equal(bq.bin_index(xs, R, eps), [1, 2, 2, 3, 3, 1])
        # Shells own their inner edge; bin 3 owns the outer endpoint.
        assert bq.bin_index(inner, R, eps) == 2
        assert bq.bin_index(-inner, R, eps) == 2
        assert bq.bin_index(outer, R, eps) == 3
        assert bq.bin_index(-half, R, eps) == 3
        assert bq.bin_index(below(inner), R, eps) == 1
        with pytest.raises(ValueError, match="outside"):
            bq.bin_index(np.nextafter(half, np.inf), R, eps)


# --- partition ---------------------------------------------------------------


def _raw_counts(samples):
    """Samples per bin before truncation."""
    return tuple(np.bincount(bq.bin_index(samples, R, EPS), minlength=4)[1:].tolist())


def _bins(values, binned):
    """values (coordinates or signs) of each bin, sliced by its retained count."""
    return np.split(values, np.cumsum(binned.truncated_counts)[:-1])


def test_partition_trace():
    samples = np.array([-12.0, 3.0, 8.0, -9.0, 0.5, 11.0])
    binned = bq.partition_bins(samples, R, EPS, 2, 0)
    assert binned.block == 2
    assert binned.truncated_counts == (2, 2, 2)
    assert _raw_counts(samples) == (2, 2, 2)
    np.testing.assert_array_equal(binned.weights, np.sqrt([15.0, 5.0, 5.0]))
    assert binned.discarded == 0
    np.testing.assert_array_equal(
        binned.coordinates, [3.0, 0.5, 8.0, -9.0, -12.0, 11.0]
    )
    assert binned.signs.shape == (6,)
    assert set(np.unique(binned.signs)) <= {-1, 1}


def test_partition_truncates_to_block_multiples():
    # 5 / 4 / 3 samples per bin with block length 2 -> keep 4 / 4 / 2.
    samples = np.array(
        [1.0, -2.0, 3.0, 0.5, 6.0,  # bin 1 (5 samples)
         8.0, -9.0, 9.5, -8.2,      # bin 2 (4 samples)
         11.0, -12.0, 12.4]         # bin 3 (3 samples)
    )
    binned = bq.partition_bins(samples, R, EPS, 2, 0)
    assert _raw_counts(samples) == (5, 4, 3)
    assert binned.truncated_counts == (4, 4, 2)
    assert binned.discarded == 2
    # Each block weighs sqrt(bin length / blocks in the bin): lengths
    # 2(1+eps)R = 15 and 2 eps R = 5 over 2, 2 and 1 blocks.
    np.testing.assert_array_equal(
        binned.weights, [math.sqrt(7.5)] * 2 + [math.sqrt(2.5)] * 2 + [math.sqrt(5.0)]
    )
    lengths = (2.0 * (1.0 + EPS) * R, 2.0 * EPS * R, 2.0 * EPS * R)
    blocks = (2, 2, 1)
    for w, ln, n in zip(np.split(binned.weights, np.cumsum(blocks)[:-1]), lengths, blocks):
        assert w.tolist() == [math.sqrt(ln / n)] * n
    bins = _bins(binned.coordinates, binned)
    np.testing.assert_array_equal(bins[0], [1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(bins[2], [11.0, -12.0])
    # Each kept coordinate's index in the draw.
    np.testing.assert_array_equal(binned.positions, [0, 1, 2, 3, 5, 6, 7, 8, 9, 10])
    np.testing.assert_array_equal(samples[binned.positions], binned.coordinates)
    assert sum(binned.truncated_counts) == 10
    assert binned.coordinates.shape == binned.signs.shape == (10,)


def test_partition_keeps_appearance_order_across_interleaving():
    samples = np.array([8.0, 1.0, -9.0, 11.0, 2.0, -8.5, -12.0, 3.0])
    binned = bq.partition_bins(samples, R, EPS, 2, 0)
    bins = _bins(binned.coordinates, binned)
    np.testing.assert_array_equal(bins[0], [1.0, 2.0])  # 3.0 truncated
    np.testing.assert_array_equal(bins[1], [8.0, -9.0])
    np.testing.assert_array_equal(bins[2], [11.0, -12.0])


def test_partition_raises_when_bin_underfills():
    samples = np.array([1.0, 2.0, 3.0, 4.0])  # everything in bin 1
    with pytest.raises(bq.BinningError, match="bin 2"):
        bq.partition_bins(samples, R, EPS, 2, 0)


def test_partition_shape_check():
    with pytest.raises(ValueError, match="expected a 1-d array of samples"):
        bq.partition_bins(np.zeros((2, 3)), R, EPS, 2, 0)
    for block in (0, -2):
        with pytest.raises(ValueError, match="block length must be positive"):
            bq.partition_bins(np.zeros(6), R, EPS, block, 0)


def test_bin_concentration_single_seed():
    samples = bq.draw_samples(10000, R, EPS, 42)
    binned = bq.partition_bins(samples, R, EPS, 100, 42)
    m1 = _raw_counts(samples)[0]
    # Centre bin covers fraction (1+eps)/(1+3eps) = 0.6 of the interval.
    assert abs(m1 - 6000) <= 3000
    assert binned.discarded < 3 * binned.block


# --- signs -------------------------------------------------------------------


def test_signs_deterministic_and_balanced():
    a = bq.draw_signs(21, 175)
    b = bq.draw_signs(21, 175)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (175,)
    assert set(np.unique(a)) == {-1, 1}
    # One stream per seed: a shorter draw is a prefix of a longer one.
    np.testing.assert_array_equal(bq.draw_signs(21, 100), a[:100])
    d = bq.draw_signs(22, 175)
    assert not np.array_equal(a, d)


def test_binned_csv(beta_run):
    # samples.csv as written by ``bandquant run`` (block 1200/80), against
    # the same run.
    out, artifacts = beta_run
    binned = artifacts.binned
    lines = (out / "samples.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# bandquant-binned-samples v1 block=15")
    assert lines[1] == "bin,index,coordinate,sign"
    assert len(lines) == 2 + sum(binned.truncated_counts)
    first = lines[2].split(",")
    assert first[0] == "1" and first[3] in ("-1", "1")
    assert float(first[2]) == binned.coordinates[0]
