"""Generator tests, checked against independently coded oracles.

The oracle below re-derives g(t) from the window definition with its own
composite Gauss-Legendre quadrature, sharing no code with the FFT-built table,
so agreement validates both the window formulas and the tabulation and
interpolation machinery.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

import bandquant as bq
from bandquant import generator, pipeline
from bandquant.cli import main
from bandquant.generator import _EVAL_CHUNK, _PERIOD_FACTOR

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


@pytest.mark.parametrize(
    "lam, level, last",
    [(1.5, 5.42e-10, 1.104e-10), (2.0, 1.97e-13, 1.43e-13), (3.0, 5.72e-17, 1.99e-17)],
)
def test_truncation_levels_below_the_tail_cut(lam, level, last):
    # The levels _PERIOD_FACTOR's comment states: max |g| over the last unit
    # below the tail cut (also as tail_level, read at the nodes), and |g| at
    # the last node, past which g is 0.
    gen = bq.Generator(bq.GeneratorParams(lam=lam))
    cut = gen.params.tail_cut
    tail = np.abs(gen.eval(np.linspace(cut - 1.0, cut, 20001))).max()
    assert 0.5 * level < tail < 2.0 * level
    assert 0.5 * level < gen.tail_level < 2.0 * level
    assert abs(gen.eval(gen.grid[-1])) <= 2.0 * last
    assert gen.eval(gen.grid[-1] + 0.5 * gen.params.grid_step) == 0.0


def test_eval_handles_array_shapes(gen):
    t = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    out = gen.eval(t)
    assert out.shape == (3, 4)
    assert out[0, 0] == gen.eval(t[0, 0])


def _trapezoid_series(params):
    """Weights c_j and frequencies xi_j of the rule g(t) = sum_j c_j cos(xi_j t)."""
    n_fft = int(round(_PERIOD_FACTOR * params.tail_cut / params.grid_step))
    h = 2.0 * math.pi / (n_fft * params.grid_step)
    xi = np.arange(int((2.0 * params.lam - 1.0) * math.pi / h) + 1) * h
    c = bq.ghat(xi, params.lam) * (2.0 * h / math.sqrt(2.0 * math.pi))
    c[0] *= 0.5
    return c, xi


@pytest.mark.parametrize(
    "params",
    [
        bq.GeneratorParams(lam=1.5),
        bq.GeneratorParams(lam=2.0),
        bq.GeneratorParams(lam=3.0),
        # 60 / step is 60 058.8: the last node falls short of the tail cut.
        bq.GeneratorParams(lam=2.01),
    ],
    ids=["1.5", "2.0", "3.0", "2.01"],
)
def test_eval_is_a_hermite_cubic_of_the_trapezoid_series(params):
    gen = bq.Generator(params)
    cut = gen.params.tail_cut
    nodes = gen.grid
    # Every node but the last starts its interval, so its cubic gives the
    # value; the last one closes the last interval.
    assert nodes[-1] <= cut < nodes[-1] + gen.params.grid_step
    np.testing.assert_array_equal(gen.eval(nodes), gen.values)
    rng = np.random.default_rng(7)
    # Several chunks, the last one partial.
    many = rng.uniform(-1.1 * cut, 1.1 * cut, 2 * _EVAL_CHUNK + 123)
    # The Hermite cubic through exact values and slopes is within
    # h^4 / 384 * max|g^(4)| of g, and |g^(4)| <= sum_j |c_j| xi_j^4.  The
    # error peaks at the interval midpoints.
    c, xi = _trapezoid_series(params)
    bound = gen.params.grid_step**4 / 384 * np.sum(np.abs(c) * xi**4) + 1e-14
    inside = np.concatenate([nodes[:-1] + 0.5 * np.diff(nodes), many[np.abs(many) <= cut]])
    for x in np.array_split(inside, 64):
        assert np.max(np.abs(gen.eval(x) - np.cos(np.multiply.outer(x, xi)) @ c)) <= bound
    pos = np.concatenate(
        [nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, np.inf), [cut], np.abs(many)]
    )
    np.testing.assert_array_equal(gen.eval(-pos), gen.eval(pos))
    assert gen.eval(-0.0) == gen.eval(0.0) == gen.values[0]
    got = gen.eval(many)
    np.testing.assert_array_equal(got[np.abs(many) > cut], 0.0)
    pieces = [gen.eval(x) for x in np.array_split(many, 7)]
    np.testing.assert_array_equal(got, np.concatenate(pieces))
    beyond = [np.nextafter(cut, np.inf), -np.nextafter(cut, np.inf), np.inf, -np.inf, np.nan]
    np.testing.assert_array_equal(gen.eval(np.array(beyond)), 0.0)
    assert type(gen.eval(0.3)) is float
    assert gen.eval(0.3) == gen.eval(np.array([0.3]))[0]
    grid_2d = many[: 6 * 45].reshape(6, 45)
    np.testing.assert_array_equal(gen.eval(grid_2d), got[: 6 * 45].reshape(6, 45))
    assert gen.eval(np.empty(0)).shape == (0,)


def test_every_command_runs_without_scipy(tmp_path):
    # A fresh interpreter in which importing scipy fails: bandquant needs
    # numpy alone.  The test extra installs scipy only as a reference.
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from bandquant.cli import main\n"
        "for argv in (\n"
        "    ['run'],\n"
        "    ['sweep', '--trials', '1', '--order', '2', '--scheme', 'msq,beta,sigma-delta'],\n"
        "    ['check-bounds'],\n"
        "    ['check-bounds', '--scheme', 'sigma-delta', '--order', '1'],\n"
        "):\n"
        "    assert main([*argv, '--out', sys.argv[1]]) == 0, argv\n"
    )
    paths = [str(Path(bq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def _traced_peak(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_eval_memory_stays_near_its_output(gen):
    t = np.random.default_rng(8).uniform(-13.0, 13.0, (20000, 45))
    out, peak = _traced_peak(lambda: gen.eval(t))
    assert peak < 2 * out.nbytes


def test_kernel_coefficients_memory_stays_near_its_output(ctx):
    x = np.random.default_rng(10).uniform(-13.0, 13.0, 20000)
    out, peak = _traced_peak(lambda: ctx.kernel_coefficients(x))
    assert peak < 1.5 * out.nbytes


def test_signal_eval_memory_stays_near_its_basis():
    model = bq.synth_test_signal(1, 12, 0.9)
    t = np.random.default_rng(11).uniform(-13.0, 13.0, 20000)
    _, peak = _traced_peak(lambda: model.eval(t))
    assert peak < 1.5 * t.size * model.ks.size * 8


def test_shaped_frame_memory_stays_below_its_sample_matrix(ctx):
    # The shaped frame holds its p x d rows and one chunk of kernel rows,
    # never the m x d sample matrix.
    config = dataclasses.replace(bq.RunConfig(), m=96000, p=6400)
    _, _, _, _, nu = pipeline._scheme(config)
    samples = bq.draw_samples(96000, 5.0, 0.5, 1)
    binned = bq.partition_bins(samples, 5.0, 0.5, nu.size, 1)
    coords = binned.coordinates
    _, peak = _traced_peak(lambda: pipeline._frame(config, ctx, coords, binned, nu))
    assert peak < 0.25 * coords.size * ctx.dimension * 8


def test_default_trial_stays_under_the_heap_trim_threshold(gen):
    # glibc gives the heap top back once more than twice the largest block
    # freed so far is free there; after the generator build that block is
    # the complex spectrum of the slope FFT, n_fft // 2 + 1 values.  A trial
    # whose transient memory exceeds the threshold faults its pages in again
    # on every trial.
    config = bq.RunConfig()
    bq.run_detailed(config)
    _, peak = _traced_peak(
        lambda: bq.run_detailed(dataclasses.replace(config, seed=2))
    )
    n_fft = int(round(_PERIOD_FACTOR * gen.params.tail_cut / gen.params.grid_step))
    assert peak < 2 * (n_fft // 2 + 1) * 16


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
def test_shift_orthonormality(lam, capsys):
    gen = bq.shared_generator(bq.GeneratorParams(lam=lam))
    assert gen.shift_inner_product(0) == pytest.approx(1.0, abs=1e-10)
    for k in range(1, 21):
        assert abs(gen.shift_inner_product(k)) < 1e-10, f"k={k}"
    assert gen.shift_inner_product(-3) == gen.shift_inner_product(3)
    assert gen.shift_inner_product(10**6) == 0.0
    # The plain sum against scipy's Simpson rule on the same lagged products.
    signed = np.concatenate((gen.values[:0:-1], gen.values))
    for k in range(-20, 21):
        lag = abs(k) * round(1.0 / (lam * gen.params.grid_step))
        product = signed[lag:] * signed[: signed.size - lag]
        reference = simpson(product, dx=gen.params.grid_step)
        assert abs(gen.shift_inner_product(k) - reference) <= 1e-15, f"k={k}"
    assert main(["check-bounds", "--lambda", str(lam)]) == 0
    assert "shift orthonormality defect" in capsys.readouterr().out


# --- decay constants ---------------------------------------------------------


def test_decay_constant_certified_on_finer_grid(gen):
    c11 = gen.decay_constant(11)
    assert c11 > 1.0
    assert gen.decay_constant(11) == c11
    # 10x finer uniform grid over the whole tabulated range.
    t = np.arange(0.0, 60.0, 1e-4)
    weighted = np.abs(gen.eval(t)) * (1.0 + t) ** 11
    assert float(weighted.max()) <= c11


def test_decay_constant_bounds_independent_quadrature(gen):
    c11 = gen.decay_constant(11)
    rng = np.random.default_rng(4)
    for t in rng.uniform(0.0, 45.0, 25):
        assert abs(_oracle_g(float(t))) * (1.0 + t) ** 11 <= c11


def test_decay_constant_is_repeatable_and_validates(gen):
    assert gen.decay_constant(11) == gen.decay_constant(11)
    with pytest.raises(ValueError):
        gen.decay_constant(1)


def test_decay_constant_rejects_zero_table():
    doctored = bq.Generator(bq.GeneratorParams(lam=2.0))
    doctored.values = np.zeros_like(doctored.values)
    with pytest.raises(ValueError, match="zero"):
        doctored.decay_constant(11)


def test_decay_constant_rejects_rising_tail(gen):
    doctored = bq.Generator(bq.GeneratorParams(lam=2.0))
    doctored.values = np.full_like(doctored.values, 0.5)
    with pytest.raises(ValueError, match="tail"):
        doctored.decay_constant(11)
    # Where the weight 61^r leaves the float range, the tail is infinite; no
    # RuntimeWarning may escape.  The lam = 3 table has exact zeros, where
    # 0 * inf would make the profile NaN.
    wide = bq.Generator(bq.GeneratorParams(lam=3.0))
    for generator in (gen, wide):
        with pytest.raises(ValueError, match="still rising"):
            generator.decay_constant(200)


# --- kernel ------------------------------------------------------------------


def test_kernel_context_window(gen, ctx):
    assert ctx.k_max == 22
    assert ctx.dimension == 45
    assert ctx.index_set[0] == -22 and ctx.index_set[-1] == 22
    assert ctx.half_width == pytest.approx(11.25)
    small = bq.KernelContext.from_box(gen, 2.0, 0.5)
    assert small.k_max == math.floor(2.0 * 2.25 * 2.0)


def _eval_kernel(ctx, x):
    """The one-shot reference: Generator.eval at every difference x - k/lam."""
    return ctx.generator.eval(np.asarray(x)[..., None] - ctx.shift_points)


def test_kernel_coefficients_blocks_are_bit_identical(ctx, monkeypatch):
    # Row blocks against one block over all rows, and both against eval.
    rows = _EVAL_CHUNK // (4 * ctx.dimension)
    rng = np.random.default_rng(12)
    cases = [rng.uniform(-70.0, 70.0, n) for n in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 3)]
    cases += [rng.uniform(-13.0, 13.0, 5000), 0.3, rng.uniform(-13.0, 13.0, (3, rows - 1))]
    blocked = [ctx.kernel_coefficients(x) for x in cases]
    monkeypatch.setattr(generator, "_EVAL_CHUNK", 1 << 20)
    for x, got in zip(cases, blocked):
        assert got.shape == (*np.shape(x), ctx.dimension)
        one_block = ctx.kernel_coefficients(x)
        np.testing.assert_array_equal(got.view(np.int64), one_block.view(np.int64))
        np.testing.assert_allclose(got, _eval_kernel(ctx, x), rtol=0, atol=1e-14)


# lam = 2.01 puts 498 steps in a shift, which does not divide the 60 058 steps
# to the tail cut (residue 298): the last column of the table is only partly
# filled.
_LATTICES = [bq.GeneratorParams(lam=2.0), bq.GeneratorParams(lam=2.01)]


@pytest.mark.parametrize("params", _LATTICES, ids=["2.0", "2.01"])
def test_kernel_coefficients_follow_eval_at_the_table_edges(params):
    gen = bq.shared_generator(params)
    ctx = bq.KernelContext.from_box(gen, 5.0, 0.5)
    cut = gen.params.tail_cut
    far = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300])
    np.testing.assert_array_equal(ctx.kernel_coefficients(far), 0.0)
    rng = np.random.default_rng(15)
    # Row k puts shift k on an end of the table, or one ulp past it.
    ends = [end + ctx.shift_points for end in (cut, -cut)]
    ends += [np.nextafter(x, 2 * x) for x in ends]
    for x in [*ends, rng.uniform(-70.0, 70.0, 6000), rng.uniform(-200.0, 200.0, 6000)]:
        np.testing.assert_allclose(
            ctx.kernel_coefficients(x), _eval_kernel(ctx, x), rtol=0, atol=1e-14
        )


def test_kernel_coefficients_close_the_last_interval(gen, ctx):
    # As in eval, |t| = tail_cut gives the last node's value and anything
    # past it 0; with lam = 2 every x - k/lam below is exact.
    diagonal = (np.arange(ctx.dimension),) * 2
    for end in (gen.params.tail_cut, -gen.params.tail_cut):
        x = end + ctx.shift_points
        np.testing.assert_array_equal(ctx.kernel_coefficients(x)[diagonal], gen.values[-1])
        past = ctx.kernel_coefficients(np.nextafter(x, 2 * x))
        np.testing.assert_array_equal(past[diagonal], 0.0)


def test_kernel_coefficients_follow_eval_across_a_wide_run(gen):
    # run --R 15 --eps 0.5: 135 shifts, and |x - k/lam| reaches 71, past the
    # tail cut, so rows run off the table.
    config = dataclasses.replace(bq.RunConfig(), R=15.0, eps=0.5)
    ctx = bq.KernelContext.from_box(gen, config.R, config.eps)
    _, _, _, _, nu = pipeline._scheme(config)
    coords, _ = pipeline._draw(config, nu)
    grid = np.linspace(-config.R, config.R, config.grid_points)
    assert np.max(np.abs(coords[:, None] - ctx.shift_points)) > 70.0
    for x in (coords, grid):
        np.testing.assert_allclose(
            ctx.kernel_coefficients(x), _eval_kernel(ctx, x), rtol=0, atol=1e-14
        )


def test_kernel_coefficients_are_exact_on_the_nodes(gen, ctx):
    # On node n the offset is 0, so entry k is the table value at node
    # |n - M k|, M = 500 steps per shift: this pins the residue and column map.
    steps = 500
    last = gen.grid.size - 1
    reach = last + steps * ctx.k_max + 2 * steps
    rng = np.random.default_rng(16)
    # The nodes of the last node's residue also hit |t| = tail_cut.
    on_last = last + steps * np.arange(-2 * ctx.k_max - 2, 3)
    n = np.concatenate([rng.integers(-reach, reach, 4000), on_last, -on_last, [0, 1, -1]])
    got = ctx.kernel_coefficients(n * gen.params.grid_step)
    j = np.abs(n[:, None] - steps * ctx.index_set)
    want = np.where(j <= last, gen.values[np.minimum(j, last)], 0.0)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_every_lambda_lands_on_the_shift_lattice(tmp_path):
    # The step is the largest one <= the requested 1e-3 that divides 1/lam.
    assert bq.GeneratorParams(lam=2.0).grid_step == 1e-3
    assert bq.shared_generator(bq.GeneratorParams(lam=2.0))._shift_steps == 500
    rng = np.random.default_rng(17)
    for lam in (1.5, 2.0, 2.01, 2.5, 3.0):
        gen = bq.shared_generator(bq.GeneratorParams(lam=lam))
        steps = gen._shift_steps
        step = gen.params.grid_step
        assert step <= 1e-3 < 1.0 / (lam * (steps - 1))
        assert abs(lam * step * steps - 1.0) <= np.spacing(1.0)
        ctx = bq.KernelContext.from_box(gen, 5.0, 0.5)
        x = rng.uniform(-70.0, 70.0, 3000)
        # eval at x - k/lam to an ulp of the difference: shift_points rounds
        # k/lam, so its remainder is subtracted too; where g' reaches 8.7
        # (lam = 3) that rounding alone moves eval by 5e-15.  The lattice
        # shifts by k M steps, k/lam to an ulp of the step: up to 8.2e-15.
        exact = [Fraction(int(k)) / Fraction(lam) for k in ctx.index_set]
        rest = np.array([float(q - Fraction(s)) for q, s in zip(exact, ctx.shift_points)])
        want = gen.eval(x[:, None] - ctx.shift_points - rest)
        np.testing.assert_allclose(ctx.kernel_coefficients(x), want, rtol=0, atol=1e-14)
    assert main(["run", "--lambda", "1.5", "--m", "3000", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "params",
    [*_LATTICES, *(bq.GeneratorParams(lam=lam) for lam in (1.5, 3.0))],
    ids=["2.0", "2.01", "1.5", "3.0"],
)
def test_cubic_table_holds_the_signed_grid_cubics(params):
    # Hermite cubics of the signed grid, g even and g' odd; eval reads the
    # non-negative half, and every other cell is 0.
    gen = bq.Generator(params)
    _, values, slopes = gen._build_table(params)
    last = gen.grid.size - 1
    nodes = np.arange(-last, last + 1) * params.grid_step
    signed = np.concatenate((values[:0:-1], values)), np.concatenate((-slopes[:0:-1], slopes))
    cells = gen._cell(np.arange(-last, last))
    want = np.empty((cells.size, 4))
    for column, coefficient in generator._hermite_cubics(nodes, *signed):
        want[:, column] = coefficient
    np.testing.assert_array_equal(gen._cubics[cells].view(np.int64), want.view(np.int64))
    rest = np.ones(len(gen._cubics), dtype=bool)
    rest[cells] = False
    assert not gen._cubics[rest].any()


def test_kernel_diagonal_bounded(ctx):
    xs = np.linspace(-13.0, 13.0, 10001)
    diag = np.sum(ctx.kernel_coefficients(xs) ** 2, axis=1)
    assert float(diag.max()) <= (2.0 * LAM - 1.0) * (1.0 + 1e-6)
    assert float(diag.min()) >= 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        bq.GeneratorParams(lam=1.0)
    # The band (2 lam - 1) pi must lie below the Nyquist frequency of the
    # 1e-3 grid.
    with pytest.raises(ValueError, match="band"):
        bq.GeneratorParams(lam=500.5)
    bq.GeneratorParams(lam=500.0)


def test_params_only_lam_is_settable():
    # The grid step follows from lam and the tail cut is fixed, so equal
    # lam gives equal (and equally hashed) parameters.
    for name, value in (("grid_step", 2e-3), ("tail_cut", 30.0)):
        with pytest.raises(TypeError):
            bq.GeneratorParams(lam=2.0, **{name: value})
    params = bq.GeneratorParams(lam=2.5)
    assert params == bq.GeneratorParams(2.5)
    assert hash(params) == hash(bq.GeneratorParams(2.5))
    assert params.tail_cut == bq.GeneratorParams.tail_cut == 60.0
    assert params.grid_step == 1.0 / (2.5 * 400)
