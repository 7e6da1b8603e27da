"""Condensation tests: row construction, weights and operator-norm bounds.

The sup-to-L2 bound is validated against brute-force maximisation over sign
vectors (where it is attained row-wise) and the small geometric case is
checked against its exact closed form.
"""

import math

import numpy as np
import pytest

import bandquant as bq


# --- condensation rows -------------------------------------------------------


def test_nu_sigma_delta_frozen():
    nu = bq.nu_sigma_delta(7, 15)
    assert nu.block_len == 15
    assert nu.entries.sum() == 3.0**7  # repetition factor 3
    np.testing.assert_array_equal(nu.entries, nu.entries[::-1])  # symmetric
    one = bq.nu_sigma_delta(1, 6)
    np.testing.assert_array_equal(one.entries, np.ones(6))
    tiny = bq.nu_sigma_delta(3, 1)
    np.testing.assert_array_equal(tiny.entries, [1.0])


def test_nu_sigma_delta_incompatible_block():
    with pytest.raises(ValueError) as exc_info:
        bq.nu_sigma_delta(7, 14)
    msg = str(exc_info.value)
    assert "8" in msg and "15" in msg  # nearest compatible lengths
    with pytest.raises(ValueError):
        bq.nu_sigma_delta(0, 5)


def test_nu_beta_frozen():
    nu = bq.nu_beta(2.0, 3)
    np.testing.assert_allclose(nu.entries, [0.5, 0.25, 0.125])
    assert nu.l1 == pytest.approx((1.0 - 2.0**-3) / (2.0 - 1.0))
    assert nu.l2 == pytest.approx(math.sqrt(0.25 + 0.0625 + 0.015625))
    with pytest.raises(ValueError):
        bq.nu_beta(1.0, 3)
    with pytest.raises(ValueError):
        bq.nu_beta(2.0, 0)


def test_nu_beta_l1_closed_form():
    for beta, n in ((5.0, 15), (20.0, 15), (1.5, 40)):
        nu = bq.nu_beta(beta, n)
        assert nu.l1 == pytest.approx((1.0 - beta**-n) / (beta - 1.0), rel=1e-12)


# --- block condensation ------------------------------------------------------


def test_block_condensation_matrix_and_apply():
    nu = bq.nu_beta(2.0, 3)
    cond = bq.BlockCondensation(nu=nu, blocks=2)
    assert cond.shape == (2, 6)
    mat = cond.matrix()
    assert mat.shape == (2, 6)
    np.testing.assert_allclose(np.abs(mat).sum(axis=1), [1.0, 1.0])  # L1 rows
    assert mat[0, 3] == 0.0 and mat[1, 0] == 0.0  # block diagonal
    rng = np.random.default_rng(23)
    v = rng.normal(size=6)
    np.testing.assert_allclose(cond.apply(v), mat @ v, atol=1e-14)
    # A matrix condenses along its rows, each column to the vector's bits.
    M = rng.normal(size=(6, 4))
    np.testing.assert_allclose(cond.apply(M), mat @ M, atol=1e-14)
    for k in range(4):
        np.testing.assert_array_equal(cond.apply(M)[:, k], cond.apply(M[:, k]))
    with pytest.raises(ValueError):
        cond.apply(np.zeros(5))
    with pytest.raises(ValueError):
        cond.apply(np.zeros((5, 2)))


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


def test_inf_to_two_bound_formula_and_attainment():
    mat = np.array([[1.0, -2.0], [3.0, 4.0]])
    expected = math.sqrt(3.0**2 + 7.0**2)
    assert bq.inf_to_two_bound(mat) == pytest.approx(expected)
    # For a single row the bound is attained by the matching sign vector.
    row = np.array([[0.3, -1.2, 0.7]])
    x = np.sign(row[0])
    assert abs(float(row[0] @ x)) == pytest.approx(bq.inf_to_two_bound(row))
    # And it genuinely dominates ||M x||_2 over sign vectors.
    rng = np.random.default_rng(24)
    m = rng.normal(size=(4, 8))
    bound = bq.inf_to_two_bound(m)
    for _ in range(100):
        x = rng.choice([-1.0, 1.0], size=8)
        assert np.linalg.norm(m @ x) <= bound + 1e-12


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


def test_verify_bounds_match_float_operators_where_float_is_exact():
    """The exact-arithmetic norms agree with a brute float product when the
    scheme values are dyadic (beta = 2 and integer difference rows), which
    cross-checks the two computation routes."""
    blocks, block_len = 4, 6
    size = blocks * block_len
    # Geometric, beta = 2: powers of two are exact floats.
    cond = bq.BlockCondensation(nu=bq.nu_beta(2.0, block_len), blocks=blocks)
    op = bq.TransferOperator.beta_block(2.0, size, block_len)
    float_lhs = bq.inf_to_two_bound(cond.matrix() @ op.matrix())
    exact = bq.verify_condensation_bounds(block_len, blocks, beta=2.0)
    assert float_lhs == pytest.approx(exact.lhs, rel=1e-12)
    # Difference, order 2 on block length 7: integer arithmetic either way.
    cond = bq.BlockCondensation(nu=bq.nu_sigma_delta(2, 7), blocks=blocks)
    op = bq.TransferOperator.sigma_delta(2, 28)
    float_lhs = bq.inf_to_two_bound(cond.matrix() @ op.matrix())
    exact = bq.verify_condensation_bounds(7, blocks, order=2)
    assert float_lhs == pytest.approx(exact.lhs, rel=1e-12)


def test_condensation_kills_shaped_noise_end_to_end():
    """Condensed quantization error: ||V(y - q)||_2 tracks the norm bound."""
    rng = np.random.default_rng(25)
    blocks, block_len = 20, 15
    size = blocks * block_len
    y = rng.uniform(-1.0, 1.0, size)
    op = bq.TransferOperator.beta_block(5.0, size, block_len)
    alpha = bq.MidriseAlphabet(10, 0.1)
    out = bq.greedy_noise_shape(y, op, alpha)
    cond = bq.BlockCondensation(nu=bq.nu_beta(5.0, block_len), blocks=blocks)
    condensed_error = cond.matrix() @ (y - out.q)
    bound = bq.inf_to_two_bound(cond.matrix() @ op.matrix())
    assert np.linalg.norm(condensed_error) <= bound * alpha.delta
    assert np.linalg.norm(condensed_error) < 1e-8  # 5^-14 scale, tiny
