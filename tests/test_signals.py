"""Signal synthesis and projection tests.

Two oracles: sinc trains are re-evaluated term by term in 50-digit mpmath
arithmetic, and projections of span elements are recovered through numerical
inner products against the generator shifts (which is the defining property
of an orthogonal projection, independent of the sampling shortcut the
implementation uses).
"""

import math
import types

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson, trapezoid

import bandquant as bq
from bandquant.cli import main
from bandquant.generator import _EVAL_CHUNK


def _oracle_sinc_train(model, t):
    """Sum of coeff * sinc(t - k) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for k, a in zip(model.ks, model.coeffs):
            total += mpmath.mpf(a) * mpmath.sincpi(mpmath.mpf(t) - int(k))
        return float(total)


def _oracle_projection_coeff(fv, j, gen):
    """<f, g(. - j/lam)> by quadrature; the honest projection coefficient."""
    lam = gen.lam
    lo = j / lam - gen.params.tail_cut
    hi = gen.params.tail_cut + abs(float(fv.context.index_set[-1])) / lam
    t = np.linspace(lo, hi, int((hi - lo) / 5e-3) + 1)
    return float(simpson(fv.eval(t) * gen.eval(t - j / lam), x=t))


# --- synthesis ---------------------------------------------------------------


def test_synth_deterministic():
    a = bq.synth_test_signal(7, 12, 0.9)
    b = bq.synth_test_signal(7, 12, 0.9)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    c = bq.synth_test_signal(8, 12, 0.9)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert a.seed == 7 and a.target_sup == 0.9
    assert a.ks[0] == -12 and a.ks[-1] == 12


def test_synth_sup_norm_below_target():
    model = bq.synth_test_signal(1, 12, 0.9)
    grid = np.linspace(-20.0, 20.0, 100001)
    sup = float(np.max(np.abs(model.eval(grid))))
    assert sup <= 0.9 + 1e-9
    assert sup >= 0.85  # scaled to sit just under the target, not far below


def test_synth_validation():
    with pytest.raises(ValueError):
        bq.synth_test_signal(1, 12, 0.0)
    with pytest.raises(ValueError):
        bq.synth_test_signal(1, 12, 1.5)
    with pytest.raises(ValueError):
        bq.synth_test_signal(1, -2, 0.9)


def test_eval_at_integer_nodes_recovers_coefficients():
    model = bq.synth_test_signal(3, 10, 0.9)
    np.testing.assert_allclose(
        model.eval(model.ks.astype(float)), model.coeffs, atol=1e-14
    )


def test_eval_matches_high_precision_oracle():
    model = bq.synth_test_signal(5, 12, 0.9)
    rng = np.random.default_rng(11)
    for t in rng.uniform(-15.0, 15.0, 20):
        assert model.eval(float(t)) == pytest.approx(
            _oracle_sinc_train(model, float(t)), abs=1e-12
        )


def test_eval_blocks_are_bit_identical():
    model = bq.synth_test_signal(1, 12, 0.9)

    # The one-shot expression the row blocks replace.
    def one_shot(t):
        return np.sinc(np.atleast_1d(t)[..., None] - model.ks) @ model.coeffs

    rows = _EVAL_CHUNK // model.ks.size
    rng = np.random.default_rng(13)
    for n in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 3, 48000):
        t = rng.uniform(-13.0, 13.0, n)
        got = model.eval(t)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got.view(np.int64), one_shot(t).view(np.int64))
    t = rng.uniform(-13.0, 13.0, (3, rows - 1))
    got = model.eval(t)
    assert got.shape == t.shape
    np.testing.assert_array_equal(got.view(np.int64), one_shot(t).view(np.int64))
    value = model.eval(0.3)
    assert type(value) is float
    assert np.float64(value).view(np.int64) == one_shot(0.3)[0].view(np.int64)


def test_eval_is_np_sinc_at_integer_and_half_integer_points():
    # The basis repeats np.sinc's own steps in place, its stand-in for a zero
    # argument included: integer points (t - k exactly 0 for the k = t term),
    # half-integers and their neighbours, 1-d and 2-d, over several blocks.
    ks = np.arange(-12, 13)
    model = bq.SignalModel(ks=ks, coeffs=np.random.default_rng(2).uniform(-1, 1, ks.size))
    rows = _EVAL_CHUNK // model.ks.size
    points = np.arange(-20.0, 20.5, 0.5)
    points = np.concatenate([points, np.nextafter(points, np.inf), -0.0 * points[:3]])
    t = np.resize(points, 3 * rows + 5)
    for shape in ((t.size,), (5, -1), (t.size, 1)):
        shaped = t.reshape(shape)
        expected = np.sinc(shaped[..., None] - model.ks) @ model.coeffs
        got = model.eval(shaped)
        assert got.shape == shaped.shape and np.isfinite(got).all()
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_gathered_basis_rows_are_eval_at_the_gathered_points():
    # A sweep trial builds the basis of its whole draw once and gathers each
    # scheme's rows from it; the product over the gathered rows must be eval
    # at those points, bit for bit, integer nodes (the _SINC_ZERO stand-in)
    # and several blocks included.
    model = bq.synth_test_signal(4, 12, 0.9)
    rows = _EVAL_CHUNK // model.ks.size
    rng = np.random.default_rng(17)
    x = rng.uniform(-15.0, 15.0, 4 * rows + 7)
    x[::9] = rng.integers(-12, 13, x[::9].size)
    basis = model.basis(x)
    assert basis.shape == (x.size, model.ks.size)
    picks = np.sort(rng.choice(x.size, x.size // 2, replace=False))
    for i in (slice(None), slice(5, 2 * rows + 1), picks, picks[::-1], np.arange(0, x.size, 9)):
        got = basis[i] @ model.coeffs
        np.testing.assert_array_equal(got.view(np.int64), model.eval(x[i]).view(np.int64))
    square = x[: 4 * rows].reshape(4, rows)
    assert model.basis(square).shape == (4, rows, model.ks.size)
    assert model.eval(square).shape == (4, rows)
    node = model.eval(x[9])
    assert x[9] == round(x[9]) and type(node) is float
    assert np.float64(node).view(np.int64) == (basis[[9]] @ model.coeffs)[0].view(np.int64)


def test_single_sinc_model():
    model = bq.SignalModel(ks=np.array([4]), coeffs=np.array([0.5]))
    assert model.eval(4.0) == pytest.approx(0.5, abs=1e-15)
    assert model.eval(4.5) == pytest.approx(0.5 * math.sin(0.5 * math.pi) / (0.5 * math.pi))
    out = model.eval(np.array([3.0, 4.0, 5.0]))
    np.testing.assert_allclose(out, [0.0, 0.5, 0.0], atol=1e-15)


def test_signal_csv_roundtrip(tmp_path):
    model = bq.synth_test_signal(9, 8, 0.7)
    argv = ["run", "--scheme", "msq", "--signal-seed", "9", "--k-range", "8",
            "--target-sup", "0.7", "--out", str(tmp_path)]
    assert main(argv) == 0
    path = tmp_path / "signal.csv"
    header = path.read_text(encoding="utf-8").splitlines()[:2]
    assert header == ["# bandquant-signal v1 seed=9 target_sup=0.69999999999999996", "k,coefficient"]
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    np.testing.assert_array_equal(data[:, 0], model.ks)
    np.testing.assert_array_equal(data[:, 1], model.coeffs)


def test_signal_model_validation():
    with pytest.raises(ValueError):
        bq.SignalModel(ks=np.array([1, 2]), coeffs=np.array([1.0]))


# --- projection --------------------------------------------------------------


def test_projection_values_are_scaled_lattice_samples(gen):
    model = bq.synth_test_signal(1, 12, 0.9)
    pf = bq.project(model, gen, 5.0, 0.5)
    assert pf.context.k_max == 22
    expected = model.eval(pf.context.shift_points) / math.sqrt(2.0)
    np.testing.assert_array_equal(pf.values, expected)


def test_projection_matches_inner_product_oracle(gen, ctx):
    rng = np.random.default_rng(13)
    c = rng.normal(size=ctx.dimension)
    fv = bq.CoefficientVector(values=c, context=ctx)
    for j in (-22, -5, 0, 7, 22):
        coeff = _oracle_projection_coeff(fv, j, gen)
        assert coeff == pytest.approx(c[j + ctx.k_max], abs=2e-7), f"j={j}"


def test_project_rejects_narrow_shell(gen):
    model = bq.synth_test_signal(1, 12, 0.9)
    with pytest.raises(ValueError, match="eps"):
        bq.project(model, gen, 5.0, 0.1)


def test_project_rejects_a_span_element(gen, ctx):
    # A span element is bandlimited to (2 lam - 1) pi, so its lattice samples
    # f(k / lam) / sqrt(lam) are not its projection.
    fv = bq.CoefficientVector(values=np.ones(ctx.dimension), context=ctx)
    with pytest.raises(ValueError, match="bandlimited"):
        bq.project(fv, gen, 5.0, 0.5)


def test_projection_error_report_bandlimited(gen):
    model = bq.synth_test_signal(1, 12, 0.9)
    pf = bq.project(model, gen, 5.0, 0.5)
    report = bq.projection_error_report(model, pf, 5.0, r=11)
    assert report.label == "projection truncation bound (r=11)"
    assert report.passed
    assert not report.vacuous
    assert report.lhs < 1e-2
    assert report.rhs < 1.0


def test_projection_error_report_quadrature(gen, ctx):
    # Composite Simpson on 2001 nodes: scipy's rule on the same nodes, and
    # within 1e-6 of 40 001 nodes, where the trapezoid rule misses by 10x more.
    for seed in (1, 2, 3):
        model = bq.synth_test_signal(seed, 12, 0.9)
        pf = bq.project(model, gen, 5.0, 0.5)
        lhs = bq.projection_error_report(model, pf, 5.0, r=11).lhs

        def l2(rule, n):
            t = np.linspace(-5.0, 5.0, n)
            return math.sqrt(rule((model.eval(t) - pf.eval(t)) ** 2, x=t))

        fine = l2(simpson, 40001)
        assert lhs == pytest.approx(l2(simpson, 2001), rel=1e-12, abs=0.0)
        assert abs(lhs - fine) <= 1e-6 * fine
        assert abs(l2(trapezoid, 2001) - fine) >= 10 * abs(lhs - fine)
    # It integrates a cubic exactly: (t + 5)^3 over [-5, 5] is 2500.
    cubic_root = types.SimpleNamespace(eval=lambda t: (t + 5.0) ** 1.5)
    zero = bq.CoefficientVector(values=np.zeros(ctx.dimension), context=ctx)
    report = bq.projection_error_report(cubic_root, zero, 5.0, r=11)
    assert report.lhs == pytest.approx(50.0, rel=1e-14, abs=0.0)


def test_projection_error_report_validation(gen):
    model = bq.synth_test_signal(1, 12, 0.9)
    pf = bq.project(model, gen, 5.0, 0.5)
    with pytest.raises(ValueError, match="half-width"):
        bq.projection_error_report(model, pf, 11.25, r=11)
    with pytest.raises(ValueError):
        bq.projection_error_report(model, pf, -1.0, r=11)
