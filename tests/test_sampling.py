"""Sampling, binning and sign-stream tests (geometry R=5, eps=1/2 throughout:
bin edges at 7.5, 10 and 12.5)."""

import numpy as np
import pytest

import bandquant as bq


def _config(m, p, seed=0):
    return bq.SampleConfig(m=m, p=p, R=5.0, eps=0.5, seed=seed)


# --- draws -------------------------------------------------------------------


def test_draw_deterministic_and_in_range():
    cfg = _config(1000, 50, seed=3)
    a = bq.draw_samples(cfg)
    b = bq.draw_samples(cfg)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1000,)
    assert np.all(np.abs(a) <= 12.5)
    c = bq.draw_samples(_config(1000, 50, seed=4))
    assert not np.array_equal(a, c)


def test_sample_config_validation():
    with pytest.raises(ValueError, match="multiple"):
        _config(100, 3)
    with pytest.raises(ValueError):
        _config(0, 1)
    with pytest.raises(ValueError):
        bq.SampleConfig(m=100, p=10, R=5.0, eps=0.1, seed=0)  # eps*R < 1
    with pytest.raises(ValueError):
        bq.SampleConfig(m=100, p=10, R=-5.0, eps=0.5, seed=0)
    with pytest.raises(ValueError):
        bq.SampleConfig(m=100, p=10, R=5.0, eps=0.5, seed=-1)


# --- bin labels --------------------------------------------------------------


def test_bin_index_cases():
    xs = np.array([-12.0, 3.0, 8.0, -9.0, 0.5, 11.0])
    np.testing.assert_array_equal(bq.bin_index(xs, 5.0, 0.5), [3, 1, 2, 2, 1, 3])
    # Shells own their inner edge; bin 3 owns the outer endpoint.
    assert bq.bin_index(7.5, 5.0, 0.5) == 2
    assert bq.bin_index(-7.5, 5.0, 0.5) == 2
    assert bq.bin_index(10.0, 5.0, 0.5) == 3
    assert bq.bin_index(12.5, 5.0, 0.5) == 3
    assert bq.bin_index(7.4999, 5.0, 0.5) == 1
    with pytest.raises(ValueError, match="outside"):
        bq.bin_index(12.6, 5.0, 0.5)


# --- partition ---------------------------------------------------------------


def test_partition_trace():
    samples = np.array([-12.0, 3.0, 8.0, -9.0, 0.5, 11.0])
    cfg = _config(6, 3)
    binned = bq.partition_bins(samples, cfg)
    assert binned.block == 2
    np.testing.assert_array_equal(binned.bins[0], [3.0, 0.5])
    np.testing.assert_array_equal(binned.bins[1], [8.0, -9.0])
    np.testing.assert_array_equal(binned.bins[2], [-12.0, 11.0])
    assert binned.raw_counts == (2, 2, 2)
    assert binned.block_counts == (1, 2, 3)
    assert binned.discarded == 0
    np.testing.assert_array_equal(
        binned.coordinates(), [3.0, 0.5, 8.0, -9.0, -12.0, 11.0]
    )
    assert set(np.unique(binned.sign_vector())) <= {-1, 1}


def test_partition_truncates_to_block_multiples():
    # 5 / 4 / 3 samples per bin with block length 2 -> keep 4 / 4 / 2.
    samples = np.array(
        [1.0, -2.0, 3.0, 0.5, 6.0,  # bin 1 (5 samples)
         8.0, -9.0, 9.5, -8.2,      # bin 2 (4 samples)
         11.0, -12.0, 12.4]         # bin 3 (3 samples)
    )
    cfg = _config(12, 6)
    binned = bq.partition_bins(samples, cfg)
    assert binned.raw_counts == (5, 4, 3)
    assert binned.truncated_counts == (4, 4, 2)
    assert binned.discarded == 2
    assert binned.block_counts == (2, 4, 5)
    np.testing.assert_array_equal(binned.bins[0], [1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(binned.bins[2], [11.0, -12.0])
    assert binned.total == 10
    assert [len(s) for s in binned.signs] == [4, 4, 2]


def test_partition_keeps_appearance_order_across_interleaving():
    samples = np.array([8.0, 1.0, -9.0, 11.0, 2.0, -8.5, -12.0, 3.0])
    cfg = _config(8, 4)
    binned = bq.partition_bins(samples, cfg)
    np.testing.assert_array_equal(binned.bins[0], [1.0, 2.0])  # 3.0 truncated
    np.testing.assert_array_equal(binned.bins[1], [8.0, -9.0])
    np.testing.assert_array_equal(binned.bins[2], [11.0, -12.0])


def test_partition_raises_when_bin_underfills():
    samples = np.array([1.0, 2.0, 3.0, 4.0])  # everything in bin 1
    cfg = _config(4, 2)
    with pytest.raises(bq.BinningError, match="bin 2"):
        bq.partition_bins(samples, cfg)


def test_partition_shape_check():
    cfg = _config(6, 3)
    with pytest.raises(ValueError, match="expected 6 samples"):
        bq.partition_bins(np.zeros(5), cfg)


def test_bin_concentration_single_seed():
    cfg = _config(10000, 100, seed=42)
    binned = bq.partition_bins(bq.draw_samples(cfg), cfg)
    m1 = binned.raw_counts[0]
    # Centre bin covers fraction (1+eps)/(1+3eps) = 0.6 of the interval.
    assert abs(m1 - 6000) <= 3000
    assert binned.discarded < 3 * cfg.block


# --- signs -------------------------------------------------------------------


def test_signs_deterministic_and_balanced():
    a = bq.draw_signs(21, (100, 50, 25))
    b = bq.draw_signs(21, (100, 50, 25))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert [len(x) for x in a] == [100, 50, 25]
    flat = np.concatenate(a)
    assert set(np.unique(flat)) == {-1, 1}
    # Same seed, same total: identical underlying stream regardless of split.
    c = bq.draw_signs(21, (175,))
    np.testing.assert_array_equal(np.concatenate(a), c[0])
    d = bq.draw_signs(22, (175,))
    assert not np.array_equal(c[0], d[0])


def test_binned_csv(beta_run):
    # samples.csv as written by ``bandquant run`` (block 1200/80), against
    # the same run.
    out, artifacts = beta_run
    binned = artifacts.binned
    lines = (out / "samples.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# bandquant-binned-samples v1 block=15")
    assert lines[1] == "bin,index,coordinate,sign"
    assert len(lines) == 2 + binned.total
    first = lines[2].split(",")
    assert first[0] == "1" and first[3] in ("-1", "1")
    assert float(first[2]) == binned.bins[0][0]
