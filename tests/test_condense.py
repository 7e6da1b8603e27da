"""Condensation tests: row construction, weights and operator-norm bounds.

The closed-form sup-to-L2 bounds are checked against a product of dense
operators in exact rationals, against a float product where floats are
exact, and at a long geometric block against 50-digit mpmath.
"""

import importlib
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import bandquant as bq


# --- condensation rows -------------------------------------------------------


def test_nu_sigma_delta_frozen():
    nu = bq.nu_sigma_delta(7, 15)
    assert nu.size == 15
    assert nu.sum() == 3.0**7  # repetition factor 3
    np.testing.assert_array_equal(nu, nu[::-1])  # symmetric
    one = bq.nu_sigma_delta(1, 6)
    np.testing.assert_array_equal(one, np.ones(6))
    tiny = bq.nu_sigma_delta(3, 1)
    np.testing.assert_array_equal(tiny, [1.0])


def test_nu_sigma_delta_incompatible_block():
    with pytest.raises(ValueError) as exc_info:
        bq.nu_sigma_delta(7, 14)
    msg = str(exc_info.value)
    assert "8" in msg and "15" in msg  # nearest compatible lengths
    with pytest.raises(ValueError):
        bq.nu_sigma_delta(0, 5)


def test_nu_beta_frozen():
    nu = bq.nu_beta(2.0, 3)
    np.testing.assert_allclose(nu, [0.5, 0.25, 0.125])
    assert np.abs(nu).sum() == pytest.approx((1.0 - 2.0**-3) / (2.0 - 1.0))
    assert np.sqrt((nu**2).sum()) == pytest.approx(math.sqrt(0.25 + 0.0625 + 0.015625))
    with pytest.raises(ValueError):
        bq.nu_beta(1.0, 3)
    with pytest.raises(ValueError):
        bq.nu_beta(2.0, 0)


def test_nu_beta_l1_closed_form():
    for beta, n in ((5.0, 15), (20.0, 15), (1.5, 40)):
        nu = bq.nu_beta(beta, n)
        assert np.abs(nu).sum() == pytest.approx((1.0 - beta**-n) / (beta - 1.0), rel=1e-12)


# --- condense ----------------------------------------------------------------


def test_block_condensation_matrix_and_apply(dense_v):
    nu = bq.nu_beta(2.0, 3)
    mat = dense_v(nu, 2)
    assert mat.shape == (2, 6)
    np.testing.assert_allclose(np.abs(mat).sum(axis=1), [1.0, 1.0])  # L1 rows
    assert mat[0, 3] == 0.0 and mat[1, 0] == 0.0  # block diagonal
    rng = np.random.default_rng(23)
    v = rng.normal(size=6)
    np.testing.assert_allclose(bq.condense(nu, v), mat @ v, atol=1e-14)
    # A matrix condenses along its rows, each column to the vector's bits.
    M = rng.normal(size=(6, 4))
    np.testing.assert_allclose(bq.condense(nu, M), mat @ M, atol=1e-14)
    for k in range(4):
        np.testing.assert_array_equal(bq.condense(nu, M)[:, k], bq.condense(nu, M[:, k]))
    # The block count is read from the length: one block and three blocks.
    assert bq.condense(nu, v[:3]).shape == (1,)
    assert bq.condense(nu, np.ones(9)).shape == (3,)
    # Partial blocks, no block, and 3-d input are rejected.
    for bad in (np.zeros(5), np.zeros(7), np.zeros((5, 2)), np.zeros(0), np.zeros((6, 2, 2))):
        with pytest.raises(ValueError, match="whole blocks of 3"):
            bq.condense(nu, bad)
    with pytest.raises(ValueError, match="non-empty 1-d"):
        bq.condense(np.ones((1, 3)), np.zeros(3))


# --- weights -----------------------------------------------------------------


def test_build_weight_frozen_values():
    w = bq.build_weight((2, 4, 6), 5.0, 0.5)
    np.testing.assert_allclose(
        w,
        [math.sqrt(7.5)] * 2 + [math.sqrt(2.5)] * 4,
    )


def test_build_weight_validation():
    with pytest.raises(ValueError):
        bq.build_weight((0, 2, 4), 5.0, 0.5)
    with pytest.raises(ValueError):
        bq.build_weight((2, 2, 4), 5.0, 0.5)  # empty bin 2
    with pytest.raises(ValueError):
        bq.build_weight((4, 2, 6), 5.0, 0.5)  # not cumulative


# --- operator norm bound -----------------------------------------------------


def _inf_to_two_bound(mat):
    """sqrt(sum_rows ||row||_1^2), the sup-to-L2 bound in float arithmetic."""
    return float(np.sqrt((np.abs(mat).sum(axis=1) ** 2).sum()))


def test_verify_bounds_small_geometric_exact():
    report = bq.verify_condensation_bounds(3, 1, beta=2.0)
    # V H has the single row (0, 0, 1/7): beta^-3 over the L1 norm 7/8 * ...
    assert report.lhs == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert report.rhs == pytest.approx(0.25)
    assert report.passed


def test_verify_bounds_difference_schemes():
    for order, block in ((1, 15), (2, 15), (7, 15)):
        report = bq.verify_condensation_bounds(block, 200, order=order)
        assert report.passed, f"order={order}: {report.lhs} > {report.rhs}"
        assert report.lhs > 0
    small = bq.verify_condensation_bounds(3, 2, order=1)
    # Rows couple one step into the previous block: L1 norms 1/3 and 2/3.
    assert small.lhs == pytest.approx(math.sqrt((1.0 / 9.0 + 4.0 / 9.0)), rel=1e-12)


def test_verify_bounds_geometric_schemes():
    for beta in (2.0, 5.0, 20.0):
        report = bq.verify_condensation_bounds(15, 200, beta=beta)
        assert report.passed, f"beta={beta}: {report.lhs} > {report.rhs}"
        assert report.lhs > 0


def test_verify_bounds_argument_check():
    with pytest.raises(ValueError):
        bq.verify_condensation_bounds(15, 200)
    with pytest.raises(ValueError):
        bq.verify_condensation_bounds(15, 200, order=7, beta=5.0)


def test_verify_bounds_match_float_operators_where_float_is_exact(dense_h, dense_v):
    """The exact-arithmetic norms agree with a brute float product when the
    scheme values are dyadic (beta = 2 and integer difference rows), which
    cross-checks the two computation routes."""
    blocks, block_len = 4, 6
    size = blocks * block_len
    # Geometric, beta = 2: powers of two are exact floats.
    H = dense_h((2.0,), block_len, size)
    float_lhs = _inf_to_two_bound(dense_v(bq.nu_beta(2.0, block_len), blocks) @ H)
    exact = bq.verify_condensation_bounds(block_len, blocks, beta=2.0)
    assert float_lhs == pytest.approx(exact.lhs, rel=1e-12)
    # Difference, order 2 on block length 7: integer arithmetic either way.
    H = dense_h(bq.difference_taps(2), None, 28)
    float_lhs = _inf_to_two_bound(dense_v(bq.nu_sigma_delta(2, 7), blocks) @ H)
    exact = bq.verify_condensation_bounds(7, blocks, order=2)
    assert float_lhs == pytest.approx(exact.lhs, rel=1e-12)


def _exact_lhs(v, h):
    """sqrt(sum_rows ||row||_1^2) of V H, from the exact product of object arrays."""
    rows = np.abs(v @ h).sum(axis=1)
    return math.sqrt(float(sum(r * r for r in rows)))


def _exact_v(nu, blocks):
    """Block-diagonal V of blocks copies of nu / ||nu||_1, in rationals."""
    l1 = sum(abs(x) for x in nu)
    v = np.zeros((blocks, blocks * len(nu)), dtype=object)
    for i in range(blocks):
        v[i, i * len(nu) : (i + 1) * len(nu)] = [Fraction(x) / l1 for x in nu]
    return v


@pytest.mark.parametrize("beta", [1.1, 3.7])
def test_verify_bounds_match_exact_dense_geometric_operators(beta):
    # H restarts every block: 1 on the diagonal, -beta below it inside a block.
    b = Fraction(beta)
    for block_len in range(1, 13):
        nu = [b ** -(j + 1) for j in range(block_len)]
        for blocks in (1, 2, 3):
            size = blocks * block_len
            h = np.zeros((size, size), dtype=object)
            for k in range(size):
                h[k, k] = 1
                if k % block_len:
                    h[k, k - 1] = -b
            report = bq.verify_condensation_bounds(block_len, blocks, beta=beta)
            assert report.lhs == _exact_lhs(_exact_v(nu, blocks), h), (block_len, blocks)


@pytest.mark.parametrize("order", range(1, 8))
def test_verify_bounds_match_exact_dense_difference_operators(order):
    # nu: coefficients of (1 + ... + x^(rep-1))^order; H = D^order over the
    # whole vector, so the rows that reach before its start are clipped: the
    # first, and at rep 1 the first order rows.
    for rep in range(1, 5):
        nu = [1]
        for _ in range(order):
            nu = [
                sum(nu[i - j] for j in range(rep) if 0 <= i - j < len(nu))
                for i in range(len(nu) + rep - 1)
            ]
        for blocks in (1, 2, 3):
            size = blocks * len(nu)
            d = np.eye(size, dtype=np.int64) - np.eye(size, k=-1, dtype=np.int64)
            h = np.linalg.matrix_power(d, order).astype(object)
            report = bq.verify_condensation_bounds(len(nu), blocks, order=order)
            assert report.lhs == _exact_lhs(_exact_v(nu, blocks), h), (rep, blocks)


def test_verify_bounds_long_geometric_block_is_fast_and_matches_mpmath():
    start = time.perf_counter()
    report = bq.verify_condensation_bounds(3000, 16, beta=1.1)
    assert time.perf_counter() - start < 2.0
    # Every row of V H is beta^-L over ||nu||_1, summed here term by term.
    with mpmath.workdps(50):
        b = mpmath.mpf(1.1)
        l1 = mpmath.fsum(b ** -(j + 1) for j in range(3000))
        want = mpmath.sqrt(16) * b**-3000 / l1
    assert report.lhs == pytest.approx(float(want), rel=1e-12)
    assert not report.vacuous


def test_verify_bounds_underflowed_lhs_reads_vacuous():
    # At beta 5 the squared row norm underflows from L of about 233, and the
    # right side too from about 463; 0 <= rhs then holds whatever was computed.
    for block_len, vacuous in ((15, False), (240, True), (3000, True)):
        report = bq.verify_condensation_bounds(block_len, 200, beta=5.0)
        assert report.vacuous is vacuous, block_len
        assert report.passed
        assert (report.lhs == 0.0) is vacuous
    text = bq.BoundsReport((report,)).to_text()
    assert text.endswith(": 0 <= 0 -> vacuous")


def test_verify_bounds_skips_the_exact_rational_far_below_the_float_range(monkeypatch):
    # At beta 1.1 and L = 48 000, b^L has about 2.5 million bits and the
    # squared left side is near e^-9150: it reads 0 without being built.
    def no_rational(*args):
        raise AssertionError("the exact rational was built")

    monkeypatch.setattr(importlib.import_module("bandquant.condense"), "Fraction", no_rational)
    start = time.perf_counter()
    report = bq.verify_condensation_bounds(48000, 1, beta=1.1)
    assert time.perf_counter() - start < 0.1
    assert report == bq.BoundReport(
        label="condensation norm bound (geometric weight 1.1)", lhs=0.0, rhs=0.0, vacuous=True
    )


@pytest.mark.parametrize("beta", [1.1, 5.0, 20.0])
def test_verify_bounds_near_the_underflow_point_match_the_exact_rational(beta):
    # L runs from well above the point where p (b - 1)^2 / (b^L - 1)^2
    # underflows to well below it, at one block and at 10^6.
    b = Fraction(beta)
    crossing = round(745.13 / (2 * math.log(beta)))
    for blocks in (1, 10**6):
        for block_len in range(crossing - 6, crossing + 12):
            want = math.sqrt(float(blocks * ((b - 1) / (b**block_len - 1)) ** 2))
            report = bq.verify_condensation_bounds(block_len, blocks, beta=beta)
            assert report.lhs == want, (blocks, block_len)
            assert report.vacuous is (want == 0.0)


def test_condensation_kills_shaped_noise_end_to_end(dense_h, dense_v):
    """Condensed quantization error: ||V(y - q)||_2 tracks the norm bound."""
    rng = np.random.default_rng(25)
    blocks, block_len = 20, 15
    size = blocks * block_len
    y = rng.uniform(-1.0, 1.0, size)
    alpha = bq.MidriseAlphabet(10, 0.1)
    out = bq.greedy_noise_shape(y, (5.0,), alpha, block_len)
    V = dense_v(bq.nu_beta(5.0, block_len), blocks)
    condensed_error = V @ (y - out.q)
    bound = _inf_to_two_bound(V @ dense_h((5.0,), block_len, size))
    assert np.linalg.norm(condensed_error) <= bound * alpha.delta
    assert np.linalg.norm(condensed_error) < 1e-8  # 5^-14 scale, tiny
