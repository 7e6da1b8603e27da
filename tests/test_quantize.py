"""Quantizer tests: alphabets, transfer operators, greedy recursion.

The load-bearing check is the algebraic identity y - q = H u, verified
against materialised operator matrices for every scheme, plus hand-computed
traces of the recursion.
"""

import math

import numpy as np
import pytest

import bandquant as bq


# --- alphabets ---------------------------------------------------------------


def test_midrise_elements_and_rounding():
    alpha = bq.MidriseAlphabet(levels=2, delta=0.5)
    np.testing.assert_allclose(alpha.elements(), [-1.5, -0.5, 0.5, 1.5])
    assert alpha.max_element == 1.5
    assert alpha.nearest(0.3) == 0.5
    assert alpha.nearest(-0.3) == -0.5
    assert alpha.nearest(7.0) == 1.5  # saturation
    assert alpha.nearest(-7.0) == -1.5
    # Exact ties resolve toward the larger element.
    assert alpha.nearest(0.0) == 0.5
    assert alpha.nearest(1.0) == 1.5
    assert alpha.nearest(-1.0) == -0.5
    np.testing.assert_allclose(
        alpha.nearest(np.array([0.3, -0.3, 7.0])), [0.5, -0.5, 1.5]
    )


def test_midrise_rounding_is_truly_nearest():
    alpha = bq.MidriseAlphabet(levels=10, delta=0.05)
    elements = alpha.elements()
    rng = np.random.default_rng(17)
    for w in rng.uniform(-1.5, 1.5, 500):
        got = alpha.nearest(float(w))
        best = elements[np.argmin(np.abs(elements - w))]
        assert abs(got - w) <= abs(best - w) + 1e-15


def test_msq_elements_and_rounding():
    alpha = bq.MsqAlphabet(levels=10)
    elements = alpha.elements()
    assert elements.shape == (20,)
    assert elements[0] == pytest.approx(-0.95)
    assert elements[-1] == pytest.approx(0.95)
    assert alpha.nearest(0.12) == pytest.approx(0.15)
    assert alpha.nearest(-0.12) == pytest.approx(-0.15)
    assert alpha.nearest(1.7) == pytest.approx(0.95)
    assert alpha.nearest(-1.7) == pytest.approx(-0.95)
    # Tie at a cell edge resolves toward the larger element.
    assert alpha.nearest(0.1) == pytest.approx(0.15)
    out = bq.msq(np.array([0.12, -0.12, 1.7]), alpha)
    np.testing.assert_allclose(out, [0.15, -0.15, 0.95])


def test_msq_rounding_is_truly_nearest():
    alpha = bq.MsqAlphabet(levels=80)
    elements = alpha.elements()
    rng = np.random.default_rng(18)
    for w in rng.uniform(-1.2, 1.2, 500):
        got = alpha.nearest(float(w))
        best = elements[np.argmin(np.abs(elements - w))]
        assert abs(got - w) <= abs(best - w) + 1e-15


def test_alphabet_validation():
    with pytest.raises(ValueError):
        bq.MidriseAlphabet(levels=0, delta=0.5)
    with pytest.raises(ValueError):
        bq.MidriseAlphabet(levels=2, delta=0.0)
    with pytest.raises(ValueError):
        bq.MsqAlphabet(levels=0)


# --- transfer operators ------------------------------------------------------


def test_difference_operator_matrix_and_apply():
    rng = np.random.default_rng(19)
    for order in (1, 2, 7):
        op = bq.TransferOperator.sigma_delta(order, 30)
        mat = op.matrix()
        assert mat.shape == (30, 30)
        # First column realises the alternating binomial pattern.
        expected = np.zeros(30)
        for j in range(order + 1):
            expected[j] = (-1.0) ** j * math.comb(order, j)
        np.testing.assert_array_equal(mat[:, 0], expected)
        u_rand = rng.normal(size=30)
        np.testing.assert_allclose(op.apply(u_rand), mat @ u_rand, atol=1e-12)
        assert op.htilde_inf_norm() == 2.0**order - 1.0


def test_difference_operator_first_order_matrix():
    op = bq.TransferOperator.sigma_delta(1, 4)
    np.testing.assert_array_equal(
        op.matrix(),
        [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]],
    )
    np.testing.assert_array_equal(op.feedback_taps(), [1.0])
    op2 = bq.TransferOperator.sigma_delta(2, 4)
    np.testing.assert_array_equal(
        op2.matrix(),
        [[1, 0, 0, 0], [-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1]],
    )
    np.testing.assert_array_equal(op2.feedback_taps(), [2.0, -1.0])


def test_geometric_operator_blocks():
    op = bq.TransferOperator.beta_block(2.0, 6, 3)
    mat = op.matrix()
    expected = np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [-2, 1, 0, 0, 0, 0],
            [0, -2, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],  # no coupling across the block boundary
            [0, 0, 0, -2, 1, 0],
            [0, 0, 0, 0, -2, 1],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(mat, expected)
    rng = np.random.default_rng(20)
    u = rng.normal(size=6)
    np.testing.assert_allclose(op.apply(u), mat @ u, atol=1e-14)
    assert op.htilde_inf_norm() == 2.0
    np.testing.assert_array_equal(op.feedback_taps(), [2.0])


def test_transfer_operator_validation():
    with pytest.raises(ValueError):
        bq.TransferOperator.sigma_delta(0, 10)
    with pytest.raises(ValueError):
        bq.TransferOperator.beta_block(1.0, 10, 5)
    with pytest.raises(ValueError):
        bq.TransferOperator.beta_block(2.0, 10, 3)  # 3 does not divide 10
    with pytest.raises(ValueError):
        bq.TransferOperator(kind="bogus", size=4)
    with pytest.raises(ValueError):
        bq.TransferOperator(kind="identity", size=4)
    op = bq.TransferOperator.sigma_delta(1, 4)
    with pytest.raises(ValueError):
        op.apply(np.zeros(5))


# --- stability margin --------------------------------------------------------


def test_stability_margin_benchmark_configs():
    # The three working configurations: margins 13, 5 and 10.
    sd = bq.TransferOperator.sigma_delta(7, 120)
    assert bq.stability_margin(sd, 1.0, bq.MidriseAlphabet(80, 0.05)) == pytest.approx(13.0)
    b5 = bq.TransferOperator.beta_block(5.0, 120, 15)
    assert bq.stability_margin(b5, 1.0, bq.MidriseAlphabet(10, 0.1)) == pytest.approx(5.0)
    b20 = bq.TransferOperator.beta_block(20.0, 120, 15)
    assert bq.stability_margin(b20, 1.0, bq.MidriseAlphabet(80, 1.0 / 130.0)) == pytest.approx(10.0)


# --- greedy recursion --------------------------------------------------------


def test_greedy_trace_first_order_difference():
    # Constant input 0.3 with alphabet {-0.5, +0.5}: w accumulates the state.
    op = bq.TransferOperator.sigma_delta(1, 3)
    alpha = bq.MidriseAlphabet(levels=1, delta=0.5)
    out = bq.greedy_noise_shape(np.array([0.3, 0.3, 0.3]), op, alpha)
    np.testing.assert_allclose(out.q, [0.5, 0.5, -0.5], atol=1e-15)
    np.testing.assert_allclose(out.u, [-0.2, -0.4, 0.4], atol=1e-15)
    assert out.max_state == pytest.approx(0.4)


def test_greedy_trace_geometric_block():
    op = bq.TransferOperator.beta_block(2.0, 2, 2)
    alpha = bq.MidriseAlphabet(levels=2, delta=0.25)
    out = bq.greedy_noise_shape(np.array([0.3, 0.3]), op, alpha)
    np.testing.assert_allclose(out.q, [0.25, 0.25], atol=1e-15)
    np.testing.assert_allclose(out.u, [0.05, 0.15], atol=1e-15)


def test_greedy_geometric_state_resets_at_blocks():
    # Two identical blocks must produce identical per-block traces.
    op = bq.TransferOperator.beta_block(2.0, 4, 2)
    alpha = bq.MidriseAlphabet(levels=2, delta=0.25)
    y = np.array([0.3, 0.3, 0.3, 0.3])
    out = bq.greedy_noise_shape(y, op, alpha)
    np.testing.assert_array_equal(out.u[:2], out.u[2:])
    np.testing.assert_array_equal(out.q[:2], out.q[2:])


def test_greedy_identity_and_stability_all_schemes():
    configs = [
        (bq.TransferOperator.sigma_delta(1, 120), bq.MidriseAlphabet(2, 0.5)),
        (bq.TransferOperator.sigma_delta(2, 120), bq.MidriseAlphabet(8, 0.25)),
        (bq.TransferOperator.sigma_delta(7, 120), bq.MidriseAlphabet(80, 0.05)),
        (bq.TransferOperator.beta_block(2.0, 120, 15), bq.MidriseAlphabet(3, 0.5)),
        (bq.TransferOperator.beta_block(5.0, 120, 15), bq.MidriseAlphabet(10, 0.1)),
        (bq.TransferOperator.beta_block(20.0, 120, 15), bq.MidriseAlphabet(80, 1.0 / 130.0)),
    ]
    rng = np.random.default_rng(21)
    for op, alpha in configs:
        mat = op.matrix()
        assert bq.stability_margin(op, 1.0, alpha) >= 0
        for _ in range(20):
            y = rng.uniform(-1.0, 1.0, op.size)
            out = bq.greedy_noise_shape(y, op, alpha)
            residual = np.max(np.abs((y - out.q) - mat @ out.u))
            assert residual < 1e-12
            assert out.max_state <= alpha.delta


def test_greedy_warns_when_unstable():
    op = bq.TransferOperator.beta_block(2.0, 4, 2)
    alpha = bq.MidriseAlphabet(levels=1, delta=0.25)  # margin 2-2-3.2 < 0
    with pytest.warns(RuntimeWarning, match="stability margin"):
        bq.greedy_noise_shape(np.array([0.8, 0.8, 0.8, 0.8]), op, alpha)


def test_greedy_shape_check():
    op = bq.TransferOperator.sigma_delta(1, 4)
    with pytest.raises(ValueError):
        bq.greedy_noise_shape(np.zeros(3), op, bq.MidriseAlphabet(2, 0.5))


def test_quantized_csv(tmp_path):
    op = bq.TransferOperator.sigma_delta(1, 5)
    alpha = bq.MidriseAlphabet(2, 0.5)
    y = np.array([0.3, -0.2, 0.1, 0.4, -0.4])
    out = bq.greedy_noise_shape(y, op, alpha)
    path = tmp_path / "quantized.csv"
    out.to_csv(path, y)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# bandquant-quantized v1 max_state=")
    assert lines[1] == "index,input,code,state"
    assert len(lines) == 7
    row = lines[2].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) == 0.3
    assert float(row[2]) == out.q[0]
    assert float(row[3]) == out.u[0]
