"""Quantizer tests: alphabets, transfer operators, greedy recursion.

The load-bearing check is the algebraic identity y - q = H u, verified
against materialised operator matrices for every scheme, plus hand-computed
traces of the recursion.
"""

import math

import numpy as np
import pytest

import bandquant as bq
from bandquant.quantize import _SEQUENCE_CHUNK


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


def _msq_alphabet(levels):
    """The plain-rounding (MSQ) alphabet: half-step 1/(2 levels), elements in [-1, 1]."""
    return bq.MidriseAlphabet(levels=levels, delta=1.0 / (2.0 * levels))


def test_msq_elements_and_rounding():
    alpha = _msq_alphabet(10)
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
    out = alpha.nearest(np.array([0.12, -0.12, 1.7]))
    np.testing.assert_allclose(out, [0.15, -0.15, 0.95])


def test_msq_rounding_is_truly_nearest():
    alpha = _msq_alphabet(80)
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


# --- transfer operators ------------------------------------------------------


def _gain(op):
    """Feedback gain read off the stability margin at mu = 0."""
    return 2.0 - bq.stability_margin(op, 0.0, bq.MidriseAlphabet(1, 1.0))


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
        # H applies the n-fold backward difference.
        u_rand = rng.normal(size=30)
        diffed = u_rand
        for _ in range(order):
            diffed = np.diff(diffed, prepend=0.0)
        np.testing.assert_allclose(mat @ u_rand, diffed, atol=1e-12)
        assert _gain(op) == 2.0**order - 1.0


def test_difference_operator_first_order_matrix():
    op = bq.TransferOperator.sigma_delta(1, 4)
    np.testing.assert_array_equal(
        op.matrix(),
        [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]],
    )
    assert op.taps == (1.0,) and op.block == 4
    op2 = bq.TransferOperator.sigma_delta(2, 4)
    np.testing.assert_array_equal(
        op2.matrix(),
        [[1, 0, 0, 0], [-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1]],
    )
    assert op2.taps == (2.0, -1.0)


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
    assert _gain(op) == 2.0
    assert op.taps == (2.0,) and op.block == 3


def test_transfer_operator_validation():
    with pytest.raises(ValueError):
        bq.TransferOperator.sigma_delta(0, 10)
    with pytest.raises(ValueError):
        bq.TransferOperator.beta_block(1.0, 10, 5)
    with pytest.raises(ValueError, match="multiple of block 3"):
        bq.TransferOperator.beta_block(2.0, 10, 3)
    with pytest.raises(ValueError, match="multiple of block 4"):
        bq.TransferOperator(taps=(1.0,), size=10, block=4)
    with pytest.raises(ValueError, match="multiple of block 0"):
        bq.TransferOperator(taps=(1.0,), size=10, block=0)
    with pytest.raises(ValueError, match="size must be positive"):
        bq.TransferOperator.sigma_delta(1, 0)


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


def test_greedy_raises_when_unstable():
    op = bq.TransferOperator.beta_block(2.0, 4, 2)
    alpha = bq.MidriseAlphabet(levels=1, delta=0.25)  # margin 2-2-3.2 < 0
    with pytest.raises(ValueError, match="stability margin -3.2 "):
        bq.greedy_noise_shape(np.array([0.8, 0.8, 0.8, 0.8]), op, alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "op",
    [bq.TransferOperator.beta_block(2.0, 4, 2), bq.TransferOperator.sigma_delta(1, 4)],
    ids=["blocked", "unblocked"],
)
def test_greedy_rejects_non_finite_input(op, bad):
    y = np.array([0.1, bad, 0.2, 0.3])
    with pytest.raises(ValueError, match="finite"):
        bq.greedy_noise_shape(y, op, bq.MidriseAlphabet(2, 0.5))


def _reference_shape(y, op, alphabet):
    """The greedy recursion one scalar step at a time."""
    delta = alphabet.delta
    max_elem = alphabet.max_element
    u = np.zeros(op.size)
    q = np.empty(op.size)
    for s in range(op.size):
        w = y[s]
        for j, tap in enumerate(op.taps[: s % op.block], start=1):
            w += tap * u[s - j]
        qs = (2.0 * math.floor(w / (2.0 * delta)) + 1.0) * delta
        if qs > max_elem:
            qs = max_elem
        elif qs < -max_elem:
            qs = -max_elem
        q[s] = qs
        u[s] = w - qs
    return q, u


_NO_FEEDBACK = bq.MidriseAlphabet(2, 0.25)


@pytest.mark.parametrize(
    "op, alphabet",
    [
        (bq.TransferOperator.beta_block(2.0, 60, 1), bq.MidriseAlphabet(3, 0.5)),
        (bq.TransferOperator.beta_block(2.0, 60, 2), bq.MidriseAlphabet(3, 0.5)),
        (bq.TransferOperator.beta_block(5.0, 120, 15), bq.MidriseAlphabet(10, 0.1)),
        (bq.TransferOperator.beta_block(20.0, 300, 15), bq.MidriseAlphabet(80, 1.0 / 130.0)),
        (bq.TransferOperator.beta_block(5.0, 45, 45), bq.MidriseAlphabet(10, 0.1)),
        (bq.TransferOperator.sigma_delta(1, 120), bq.MidriseAlphabet(2, 0.5)),
        (bq.TransferOperator.sigma_delta(2, 120), bq.MidriseAlphabet(8, 0.25)),
        (bq.TransferOperator.sigma_delta(3, 120), bq.MidriseAlphabet(10, 0.1)),
        (bq.TransferOperator.sigma_delta(7, 120), bq.MidriseAlphabet(80, 0.05)),
        (bq.TransferOperator.sigma_delta(2, 2 * _SEQUENCE_CHUNK + 123), bq.MidriseAlphabet(8, 0.25)),
        (bq.TransferOperator(taps=(), size=60, block=4), _NO_FEEDBACK),
        (bq.TransferOperator(taps=(), size=60, block=60), _NO_FEEDBACK),
    ],
    ids=[
        "beta-block-1", "beta-block-2", "beta-block-15", "beta-20-block-15",
        "beta-one-block", "sd-1", "sd-2", "sd-3", "sd-7", "sd-2-past-chunk",
        "no-feedback-blocked", "no-feedback-unblocked",
    ],
)
def test_greedy_is_bit_identical_to_the_scalar_recursion(op, alphabet):
    # Inputs up to the largest sup with margin 0, with the signed zeros, the
    # extremes and every cell edge k * 2 delta in range spread among them.
    mu = (2.0 * alphabet.levels - op.htilde_inf_norm()) * alphabet.delta
    while bq.stability_margin(op, mu, alphabet) < 0:
        mu = np.nextafter(mu, 0.0)
    k = np.arange(-alphabet.levels, alphabet.levels + 1)
    edges = k[np.abs(k * 2.0 * alphabet.delta) <= mu] * 2.0 * alphabet.delta
    special = np.concatenate([[0.0, -0.0, mu, -mu], edges])
    rng = np.random.default_rng(op.size + op.block + len(op.taps))
    y = rng.uniform(-mu, mu, op.size)
    y[rng.choice(op.size, special.size, replace=False)] = special

    out = bq.greedy_noise_shape(y, op, alphabet)
    q_ref, u_ref = _reference_shape(y, op, alphabet)
    np.testing.assert_array_equal(out.q.view(np.int64), q_ref.view(np.int64))
    np.testing.assert_array_equal(out.u.view(np.int64), u_ref.view(np.int64))
    assert out.max_state == float(np.max(np.abs(u_ref)))
    if not op.taps:
        # Without feedback the sample at +mu = 2 levels delta rounds to
        # (2 levels + 1) delta, which the clip brings back to the top element.
        assert q_ref.max() == alphabet.max_element
        assert q_ref.min() == -alphabet.max_element


def test_greedy_shape_check():
    op = bq.TransferOperator.sigma_delta(1, 4)
    with pytest.raises(ValueError):
        bq.greedy_noise_shape(np.zeros(3), op, bq.MidriseAlphabet(2, 0.5))


def test_quantized_csv(beta_run):
    # quantized.csv as written by ``bandquant run``, against the same run.
    out, artifacts = beta_run
    lines = (out / "quantized.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# bandquant-quantized v1 max_state=")
    assert float(lines[0].rsplit("=", 1)[1]) == artifacts.report.max_state
    assert lines[1] == "index,input,code,state"
    assert len(lines) == 2 + artifacts.q.size
    row = lines[2].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) == artifacts.y[0]
    assert float(row[2]) == artifacts.q[0]
    assert float(row[3]) == artifacts.state[0]
