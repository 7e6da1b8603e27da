"""Quantizer tests: alphabets, feedback taps, greedy recursion.

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
    elements = np.arange(-19, 20, 2) * 0.05
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
    assert alpha.max_element == pytest.approx(0.95)
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
    elements = np.arange(-159, 160, 2) * (1 / 160)
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


def _gain(taps):
    """Feedback gain read off the stability margin at mu = 0."""
    return 2.0 - bq.stability_margin(taps, 0.0, bq.MidriseAlphabet(1, 1.0))


def test_difference_operator_matrix_and_apply(dense_h):
    rng = np.random.default_rng(19)
    for order in (1, 2, 7):
        taps = bq.difference_taps(order)
        mat = dense_h(taps, None, 30)
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
        assert _gain(taps) == 2.0**order - 1.0


def test_difference_operator_first_order_matrix(dense_h):
    taps = bq.difference_taps(1)
    np.testing.assert_array_equal(
        dense_h(taps, None, 4),
        [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]],
    )
    assert taps == (1.0,)
    taps2 = bq.difference_taps(2)
    np.testing.assert_array_equal(
        dense_h(taps2, None, 4),
        [[1, 0, 0, 0], [-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1]],
    )
    assert taps2 == (2.0, -1.0)


def test_geometric_operator_blocks(dense_h):
    mat = dense_h((2.0,), 3, 6)
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
    assert _gain((2.0,)) == 2.0


def test_transfer_operator_validation():
    with pytest.raises(ValueError, match="difference order must be at least 1"):
        bq.difference_taps(0)
    alpha = bq.MidriseAlphabet(2, 0.5)
    with pytest.raises(ValueError, match="multiple of block 3"):
        bq.greedy_noise_shape(np.zeros(10), (2.0,), alpha, 3)
    with pytest.raises(ValueError, match="multiple of block 4"):
        bq.greedy_noise_shape(np.zeros(10), (1.0,), alpha, 4)
    with pytest.raises(ValueError, match="multiple of block 0"):
        bq.greedy_noise_shape(np.zeros(10), (1.0,), alpha, 0)


def test_greedy_one_recursion_is_the_whole_input_block():
    # block=None runs one recursion over y, as block=y.size does.
    y = np.random.default_rng(20).uniform(-0.5, 0.5, 40)
    alpha = bq.MidriseAlphabet(8, 0.25)
    whole = bq.greedy_noise_shape(y, bq.difference_taps(2), alpha)
    sized = bq.greedy_noise_shape(y, bq.difference_taps(2), alpha, y.size)
    np.testing.assert_array_equal(whole.q.view(np.int64), sized.q.view(np.int64))
    np.testing.assert_array_equal(whole.u.view(np.int64), sized.u.view(np.int64))
    assert whole.max_state == sized.max_state


# --- stability margin --------------------------------------------------------


def test_stability_margin_benchmark_configs():
    # The three working configurations: margins 13, 5 and 10.
    sd = bq.difference_taps(7)
    assert bq.stability_margin(sd, 1.0, bq.MidriseAlphabet(80, 0.05)) == pytest.approx(13.0)
    b5 = (5.0,)
    assert bq.stability_margin(b5, 1.0, bq.MidriseAlphabet(10, 0.1)) == pytest.approx(5.0)
    b20 = (20.0,)
    assert bq.stability_margin(b20, 1.0, bq.MidriseAlphabet(80, 1.0 / 130.0)) == pytest.approx(10.0)


# --- greedy recursion --------------------------------------------------------


def test_greedy_trace_first_order_difference():
    # Constant input 0.3 with alphabet {-0.5, +0.5}: w accumulates the state.
    alpha = bq.MidriseAlphabet(levels=1, delta=0.5)
    out = bq.greedy_noise_shape(np.array([0.3, 0.3, 0.3]), bq.difference_taps(1), alpha)
    np.testing.assert_allclose(out.q, [0.5, 0.5, -0.5], atol=1e-15)
    np.testing.assert_allclose(out.u, [-0.2, -0.4, 0.4], atol=1e-15)
    assert out.max_state == pytest.approx(0.4)


def test_greedy_trace_geometric_block():
    alpha = bq.MidriseAlphabet(levels=2, delta=0.25)
    out = bq.greedy_noise_shape(np.array([0.3, 0.3]), (2.0,), alpha, 2)
    np.testing.assert_allclose(out.q, [0.25, 0.25], atol=1e-15)
    np.testing.assert_allclose(out.u, [0.05, 0.15], atol=1e-15)


def test_greedy_geometric_state_resets_at_blocks():
    # Two identical blocks must produce identical per-block traces.
    alpha = bq.MidriseAlphabet(levels=2, delta=0.25)
    y = np.array([0.3, 0.3, 0.3, 0.3])
    out = bq.greedy_noise_shape(y, (2.0,), alpha, 2)
    np.testing.assert_array_equal(out.u[:2], out.u[2:])
    np.testing.assert_array_equal(out.q[:2], out.q[2:])


def test_greedy_identity_and_stability_all_schemes(dense_h):
    # (taps, restart length, alphabet) on 120 samples.
    configs = [
        (bq.difference_taps(1), None, bq.MidriseAlphabet(2, 0.5)),
        (bq.difference_taps(2), None, bq.MidriseAlphabet(8, 0.25)),
        (bq.difference_taps(7), None, bq.MidriseAlphabet(80, 0.05)),
        ((2.0,), 15, bq.MidriseAlphabet(3, 0.5)),
        ((5.0,), 15, bq.MidriseAlphabet(10, 0.1)),
        ((20.0,), 15, bq.MidriseAlphabet(80, 1.0 / 130.0)),
    ]
    rng = np.random.default_rng(21)
    for taps, block, alpha in configs:
        mat = dense_h(taps, block, 120)
        assert bq.stability_margin(taps, 1.0, alpha) >= 0
        for _ in range(20):
            y = rng.uniform(-1.0, 1.0, 120)
            out = bq.greedy_noise_shape(y, taps, alpha, block)
            residual = np.max(np.abs((y - out.q) - mat @ out.u))
            assert residual < 1e-12
            assert out.max_state <= alpha.delta


def test_greedy_raises_when_unstable():
    alpha = bq.MidriseAlphabet(levels=1, delta=0.25)  # margin 2-2-3.2 < 0
    with pytest.raises(ValueError, match="stability margin -3.2 "):
        bq.greedy_noise_shape(np.array([0.8, 0.8, 0.8, 0.8]), (2.0,), alpha, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "taps, block",
    [((2.0,), 2), (bq.difference_taps(1), None)],
    ids=["blocked", "unblocked"],
)
def test_greedy_rejects_non_finite_input(taps, block, bad):
    y = np.array([0.1, bad, 0.2, 0.3])
    with pytest.raises(ValueError, match="finite"):
        bq.greedy_noise_shape(y, taps, bq.MidriseAlphabet(2, 0.5), block)


def _reference_shape(y, taps, block, alphabet):
    """The greedy recursion one scalar step at a time."""
    delta = alphabet.delta
    max_elem = alphabet.max_element
    u = np.zeros(y.size)
    q = np.empty(y.size)
    for s in range(y.size):
        w = y[s]
        for j, tap in enumerate(taps[: s % block], start=1):
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
    "taps, block, size, alphabet",
    [
        ((2.0,), 1, 60, bq.MidriseAlphabet(3, 0.5)),
        ((2.0,), 2, 60, bq.MidriseAlphabet(3, 0.5)),
        ((5.0,), 15, 120, bq.MidriseAlphabet(10, 0.1)),
        ((20.0,), 15, 300, bq.MidriseAlphabet(80, 1.0 / 130.0)),
        ((5.0,), 45, 45, bq.MidriseAlphabet(10, 0.1)),
        (bq.difference_taps(1), None, 120, bq.MidriseAlphabet(2, 0.5)),
        (bq.difference_taps(2), None, 120, bq.MidriseAlphabet(8, 0.25)),
        (bq.difference_taps(3), None, 120, bq.MidriseAlphabet(10, 0.1)),
        (bq.difference_taps(7), None, 120, bq.MidriseAlphabet(80, 0.05)),
        (bq.difference_taps(2), None, 2 * _SEQUENCE_CHUNK + 123, bq.MidriseAlphabet(8, 0.25)),
        (bq.difference_taps(3), None, 2 * _SEQUENCE_CHUNK + 77, bq.MidriseAlphabet(10, 0.1)),
        ((), 4, 60, _NO_FEEDBACK),
        ((), None, 60, _NO_FEEDBACK),
    ],
    ids=[
        "beta-block-1", "beta-block-2", "beta-block-15", "beta-20-block-15",
        "beta-one-block", "sd-1", "sd-2", "sd-3", "sd-7", "sd-2-past-chunk", "sd-3-past-chunk",
        "no-feedback-blocked", "no-feedback-unblocked",
    ],
)
def test_greedy_is_bit_identical_to_the_scalar_recursion(taps, block, size, alphabet):
    # Inputs up to the largest sup with margin 0, with the signed zeros, the
    # extremes and every cell edge k * 2 delta in range spread among them.
    restart = size if block is None else block
    mu = (2.0 * alphabet.levels - float(sum(abs(tap) for tap in taps))) * alphabet.delta
    while bq.stability_margin(taps, mu, alphabet) < 0:
        mu = np.nextafter(mu, 0.0)
    k = np.arange(-alphabet.levels, alphabet.levels + 1)
    edges = k[np.abs(k * 2.0 * alphabet.delta) <= mu] * 2.0 * alphabet.delta
    special = np.concatenate([[0.0, -0.0, mu, -mu], edges])
    rng = np.random.default_rng(size + restart + len(taps))
    y = rng.uniform(-mu, mu, size)
    y[rng.choice(size, special.size, replace=False)] = special

    out = bq.greedy_noise_shape(y, taps, alphabet, block)
    q_ref, u_ref = _reference_shape(y, taps, restart, alphabet)
    np.testing.assert_array_equal(out.q.view(np.int64), q_ref.view(np.int64))
    np.testing.assert_array_equal(out.u.view(np.int64), u_ref.view(np.int64))
    assert out.max_state == float(np.max(np.abs(u_ref)))
    if not taps:
        # Without feedback the sample at +mu = 2 levels delta rounds to
        # (2 levels + 1) delta, which the clip brings back to the top element.
        assert q_ref.max() == alphabet.max_element
        assert q_ref.min() == -alphabet.max_element


@pytest.mark.parametrize("order", [1, 2, 3, 7])
def test_greedy_signed_zeros_match_the_scalar_recursion(order):
    # The unblocked recursion pads the taps (up to three) and the past with
    # zeros, which can flip the sign of a zero w.  Signed zeros at each of
    # the first `order` inputs, where the scalar recursion has fewer taps,
    # and a signed zero after `order` inputs of delta, which keep the whole
    # past at +0 so that w is exactly zero with every tap, keep their bits.
    taps = bq.difference_taps(order)
    alphabet = bq.MidriseAlphabet(80, 0.05)
    delta = alphabet.delta
    rng = np.random.default_rng(order)
    heads = [np.copysign(0.0, signs) for signs in
             ([1.0] * order, [-1.0] * order, [(-1.0) ** s for s in range(order)])]
    heads += [[delta] * order + [zero] for zero in (0.0, -0.0)]
    for head in heads:
        y = rng.uniform(-delta, delta, 40)
        y[: len(head)] = head
        out = bq.greedy_noise_shape(y, taps, alphabet)
        q_ref, u_ref = _reference_shape(y, taps, y.size, alphabet)
        np.testing.assert_array_equal(out.q.view(np.int64), q_ref.view(np.int64))
        np.testing.assert_array_equal(out.u.view(np.int64), u_ref.view(np.int64))
        # The zero w (the first step, or the one after the deltas) rounds to
        # +delta with state -delta, whatever its sign.
        zero_w = len(head) - 1 if len(head) > order else 0
        assert np.all(u_ref[:zero_w] == 0.0)
        assert (q_ref[zero_w], u_ref[zero_w]) == (delta, -delta)


def test_greedy_shape_check():
    alpha = bq.MidriseAlphabet(2, 0.5)
    for y in (np.zeros((2, 5)), np.zeros(0), np.float64(0.1)):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            bq.greedy_noise_shape(y, bq.difference_taps(1), alpha)


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
