"""Generator tests, checked against independently coded oracles.

The oracle below re-derives g(t) from the window definition with its own
composite Gauss-Legendre quadrature, sharing no code with the FFT-built table,
so agreement validates both the window formulas and the tabulation and
interpolation machinery.
"""

import math
import tracemalloc

import numpy as np
import pytest

import bandquant as bq
from bandquant.generator import _EVAL_CHUNK

LAM = 2.0
FLAT = 1.0 / math.sqrt(2.0 * LAM * math.pi)


# --- independent oracle ------------------------------------------------------


def _oracle_window(xi, lam=LAM):
    """Scalar re-implementation of the Fourier window, straight from its defn."""
    xi = abs(xi)
    if xi <= math.pi:
        return 1.0 / math.sqrt(2.0 * lam * math.pi)
    if xi >= (2.0 * lam - 1.0) * math.pi:
        return 0.0
    s = (xi - math.pi) / ((2.0 * lam - 2.0) * math.pi)

    def w(u):
        return math.exp(-1.0 / u) if u > 0 else 0.0

    nu = w(s) / (w(s) + w(1.0 - s))
    return math.cos(0.5 * math.pi * nu) / math.sqrt(2.0 * lam * math.pi)


def _oracle_g(t, lam=LAM, panels=320, degree=64):
    """g(t) by composite Gauss-Legendre quadrature, 20480 nodes."""
    base_x, base_w = np.polynomial.legendre.leggauss(degree)
    edges = np.linspace(0.0, (2.0 * lam - 1.0) * math.pi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (a + b) + 0.5 * (b - a) * base_x
        fx = np.array([_oracle_window(xi, lam) * math.cos(t * xi) for xi in x])
        total += 0.5 * (b - a) * float(base_w @ fx)
    return total * 2.0 / math.sqrt(2.0 * math.pi)


# --- window ------------------------------------------------------------------


def test_taper_is_smooth_partition():
    rng = np.random.default_rng(1)
    s = rng.uniform(0.0, 1.0, 200)
    np.testing.assert_allclose(bq.taper(s) + bq.taper(1.0 - s), 1.0, atol=1e-15)
    assert bq.taper(-0.3) == 0.0
    assert bq.taper(0.0) == 0.0
    assert bq.taper(1.0) == 1.0
    assert bq.taper(1.7) == 1.0
    assert abs(bq.taper(0.5) - 0.5) < 1e-15


def test_window_frozen_values():
    assert bq.ghat(0.0, LAM) == pytest.approx(FLAT, rel=1e-15)
    assert bq.ghat(math.pi, LAM) == pytest.approx(FLAT, rel=1e-15)
    # Mid-transition: taper(1/2) = 1/2 exactly, so the value is FLAT/sqrt(2).
    assert bq.ghat(2.0 * math.pi, LAM) == pytest.approx(FLAT / math.sqrt(2.0), rel=1e-14)
    assert abs(bq.ghat(3.0 * math.pi, LAM)) < 1e-16
    assert bq.ghat(3.0 * math.pi + 0.1, LAM) == 0.0
    assert bq.ghat(100.0, LAM) == 0.0
    # Evenness.
    assert bq.ghat(-2.0 * math.pi, LAM) == bq.ghat(2.0 * math.pi, LAM)
    with pytest.raises(ValueError):
        bq.ghat(0.0, 1.0)


def test_window_periodized_square_sum_is_constant():
    """The defining property: sum_k |ghat(xi + 2 lam pi k)|^2 = 1/(2 pi lam)."""
    rng = np.random.default_rng(2)
    xi = rng.uniform(-3.0 * math.pi, 3.0 * math.pi, 500)
    total = np.zeros_like(xi)
    for k in range(-3, 4):
        total += np.asarray(bq.ghat(xi + 2.0 * LAM * math.pi * k, LAM)) ** 2
    np.testing.assert_allclose(total, 1.0 / (2.0 * math.pi * LAM), rtol=1e-12)


# --- tabulated evaluation ----------------------------------------------------


def test_table_matches_independent_quadrature_at_grid_nodes(gen):
    # The table at its own nodes carries no spline error, unlike the check below.
    for t in (0.0, 1.0, 5.2, 17.3, 31.4, 45.0, 59.0, 60.0):
        node = int(round(t / gen.params.grid_step))
        assert gen.grid[node] == pytest.approx(t, abs=1e-12)
        expected = _oracle_g(gen.grid[node])
        assert gen.values[node] == pytest.approx(expected, abs=1e-14), f"t={t}"


def test_eval_matches_independent_quadrature(gen):
    for t in (0.0, 0.37, 1.0, 2.5, 5.2, 8.9, 17.3, 31.4):
        assert gen.eval(t) == pytest.approx(_oracle_g(t), abs=1e-10), f"t={t}"


def test_eval_is_exactly_even(gen):
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 59.0, 1000)
    np.testing.assert_array_equal(gen.eval(t), gen.eval(-t))


def test_eval_vanishes_beyond_tail_cut(gen):
    assert gen.eval(60.0001) == 0.0
    assert gen.eval(-1e6) == 0.0
    out = gen.eval(np.array([0.0, 100.0, -70.0]))
    assert out[1] == 0.0 and out[2] == 0.0 and out[0] != 0.0


def test_eval_handles_array_shapes(gen):
    t = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    out = gen.eval(t)
    assert out.shape == (3, 4)
    assert out[0, 0] == gen.eval(t[0, 0])


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
def test_eval_is_bitwise_the_spline(lam):
    gen = bq.Generator(bq.GeneratorParams(lam=lam))
    cut = gen.params.tail_cut
    nodes = gen.grid
    pos = np.concatenate(
        [nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, np.inf), [cut]]
    )
    rng = np.random.default_rng(7)
    # Several chunks, the last one partial.
    many = rng.uniform(-1.1 * cut, 1.1 * cut, 2 * _EVAL_CHUNK + 123)
    t = np.concatenate([pos, -pos, [-0.0], many])
    inside = np.abs(t) <= cut
    expected = np.where(inside, gen._spline(np.where(inside, np.abs(t), 0.0)), 0.0)
    np.testing.assert_array_equal(gen.eval(t), expected)
    beyond = [np.nextafter(cut, np.inf), -np.nextafter(cut, np.inf), np.inf, -np.inf, np.nan]
    np.testing.assert_array_equal(gen.eval(np.array(beyond)), 0.0)
    assert type(gen.eval(0.3)) is float
    assert gen.eval(0.3) == gen._spline(0.3)
    grid_2d = many[: 6 * 45].reshape(6, 45)
    np.testing.assert_array_equal(gen.eval(grid_2d), gen.eval(many[: 6 * 45]).reshape(6, 45))
    assert gen.eval(np.empty(0)).shape == (0,)


def test_eval_memory_stays_near_its_output(gen):
    t = np.random.default_rng(8).uniform(-13.0, 13.0, (20000, 45))
    tracemalloc.start()
    try:
        out = gen.eval(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


def test_shift_orthonormality(gen):
    assert gen.shift_inner_product(0) == pytest.approx(1.0, abs=1e-10)
    for k in range(1, 21):
        assert abs(gen.shift_inner_product(k)) < 1e-10, f"k={k}"
    assert gen.shift_inner_product(-3) == gen.shift_inner_product(3)


# --- decay constants ---------------------------------------------------------


def test_decay_constant_certified_on_finer_grid(gen):
    c11 = gen.decay_constant(11)
    assert c11 > 1.0
    assert gen.c_r_table[11] == c11
    # 10x finer uniform grid over the whole cached range.
    t = np.arange(0.0, 60.0, 1e-4)
    weighted = np.abs(gen.eval(t)) * (1.0 + t) ** 11
    assert float(weighted.max()) <= c11


def test_decay_constant_bounds_independent_quadrature(gen):
    c11 = gen.decay_constant(11)
    rng = np.random.default_rng(4)
    for t in rng.uniform(0.0, 45.0, 25):
        assert abs(_oracle_g(float(t))) * (1.0 + t) ** 11 <= c11


def test_decay_constant_caches_and_validates(gen):
    assert gen.decay_constant(11) == gen.decay_constant(11)
    with pytest.raises(ValueError):
        gen.decay_constant(1)


def test_decay_constant_rejects_zero_cache():
    doctored = bq.Generator(bq.GeneratorParams(lam=2.0))
    doctored.values = np.zeros_like(doctored.values)
    with pytest.raises(ValueError, match="zero"):
        doctored.decay_constant(11)


def test_decay_constant_rejects_rising_tail():
    doctored = bq.Generator(bq.GeneratorParams(lam=2.0))
    doctored.values = np.full_like(doctored.values, 0.5)
    with pytest.raises(ValueError, match="tail"):
        doctored.decay_constant(11)


# --- lattice sum bound -------------------------------------------------------


def test_gamma_r_frozen_values():
    assert bq.gamma_r(2, 2.0) == pytest.approx(7.0, rel=1e-14)
    assert bq.gamma_r(11, 2.0) == pytest.approx(206.0, rel=1e-12)
    with pytest.raises(ValueError):
        bq.gamma_r(1, 2.0)
    with pytest.raises(ValueError):
        bq.gamma_r(3, 1.0)


def test_gamma_r_dominates_lattice_sums():
    rng = np.random.default_rng(5)
    ks = np.arange(-4000, 4001)
    for r in (2, 5, 11):
        bound = bq.gamma_r(r, LAM)
        for x in rng.uniform(-10.0, 10.0, 20):
            total = float(np.sum((1.0 + np.abs(x - ks / LAM)) ** (-float(r))))
            assert total <= bound, f"r={r}, x={x}"


# --- kernel ------------------------------------------------------------------


def test_kernel_context_window(gen, ctx):
    assert ctx.k_max == 22
    assert ctx.dimension == 45
    assert ctx.index_set[0] == -22 and ctx.index_set[-1] == 22
    assert ctx.half_width == pytest.approx(11.25)
    small = bq.KernelContext.from_box(gen, 2.0, 0.5)
    assert small.k_max == math.floor(2.0 * 2.25 * 2.0)


def test_kernel_diagonal_bounded(ctx):
    xs = np.linspace(-13.0, 13.0, 10001)
    diag = np.sum(ctx.kernel_coefficients(xs) ** 2, axis=1)
    assert float(diag.max()) <= (2.0 * LAM - 1.0) * (1.0 + 1e-6)
    assert float(diag.min()) >= 0.0


def test_kernel_eval_symmetric_and_consistent(ctx):
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, y = rng.uniform(-11.0, 11.0, 2)
        kxy = ctx.kernel_eval(x, y)
        assert kxy == ctx.kernel_eval(y, x)
        direct = sum(
            ctx.generator.eval(x - k / LAM) * ctx.generator.eval(y - k / LAM)
            for k in ctx.index_set
        )
        assert kxy == pytest.approx(direct, abs=1e-12)


# --- parameters --------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        bq.GeneratorParams(lam=1.0)
    with pytest.raises(ValueError):
        bq.GeneratorParams(lam=2.0, grid_step=0.5)
    with pytest.raises(ValueError):
        bq.GeneratorParams(lam=2.0, tail_cut=5.0)
    # The band (2 lam - 1) pi must lie below the grid's Nyquist frequency.
    with pytest.raises(ValueError, match="band"):
        bq.GeneratorParams(lam=6.0, grid_step=0.1)
    bq.GeneratorParams(lam=5.4, grid_step=0.1)
