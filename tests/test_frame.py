"""Frame assembly and reconstruction tests.

The central fact checked here: for unquantized data the analysis /
condensation / weighting path composed with the canonical dual solve is the
identity on span coefficients, regardless of the condensation row used.
"""

import numpy as np
import pytest

import bandquant as bq


def _binned(gen, m=1200, p=80, seed=5):
    # p must exceed the 45-dimensional span for the condensed frame to span it.
    cfg = bq.SampleConfig(m=m, p=p, R=5.0, eps=0.5, seed=seed)
    return bq.partition_bins(bq.draw_samples(cfg), cfg)


def test_sample_matrix_rows_are_kernel_coefficients(ctx):
    points = np.array([-3.0, 0.25, 7.5])
    G = bq.sample_matrix(points, ctx)
    assert G.shape == (3, ctx.dimension)
    for i, x in enumerate(points):
        np.testing.assert_array_equal(G[i], ctx.kernel_coefficients(x))


def test_sample_matrix_evaluates_span_elements(ctx):
    rng = np.random.default_rng(30)
    c = rng.normal(size=ctx.dimension)
    fv = bq.CoefficientVector(values=c, context=ctx)
    points = rng.uniform(-12.0, 12.0, 50)
    np.testing.assert_allclose(
        bq.sample_matrix(points, ctx) @ c, fv.eval(points), atol=1e-13
    )


def test_plain_roundtrip(ctx, monkeypatch):
    rng = np.random.default_rng(31)
    points = rng.uniform(-12.5, 12.5, 300)
    c = rng.normal(size=ctx.dimension)
    system = bq.assemble_frame(bq.sample_matrix(points, ctx), ctx)
    # reconstruct solves with the factor taken at assembly.
    monkeypatch.setattr(
        bq.frame.linalg,
        "cho_factor",
        lambda *a, **k: pytest.fail("reconstruct factored the frame operator again"),
    )
    y = bq.sample_matrix(points, ctx) @ c
    back = bq.reconstruct(system, y)
    np.testing.assert_allclose(back, c, atol=1e-10)
    assert system.lam_min > 0
    assert system.lam_max >= system.lam_min
    assert system.rows == 300


def test_weighted_condensed_roundtrip(gen, ctx):
    binned = _binned(gen)
    signs = binned.sign_vector()
    G = bq.sample_matrix(binned.coordinates(), ctx)
    condenser = bq.BlockCondensation(
        nu=bq.nu_beta(2.0, binned.block), blocks=binned.block_counts[-1]
    )
    weight = bq.build_weight(binned.block_counts, 5.0, 0.5)
    system = bq.assemble_frame(
        G, ctx, weight=weight, condenser=condenser, signs=signs
    )
    rng = np.random.default_rng(32)
    c = rng.normal(size=ctx.dimension)
    assert system.condenser is condenser and system.weight is weight
    y = signs * (G @ c)  # signed exact samples of the span element
    back = bq.reconstruct(system, y)
    np.testing.assert_allclose(back, c, atol=1e-9)
    with pytest.raises(ValueError, match="stacked samples"):
        bq.reconstruct(system, y[:-1])


def test_roundtrip_independent_of_condensation_row(gen, ctx):
    binned = _binned(gen)
    signs = binned.sign_vector()
    G = bq.sample_matrix(binned.coordinates(), ctx)
    weight = bq.build_weight(binned.block_counts, 5.0, 0.5)
    rng = np.random.default_rng(33)
    c = rng.normal(size=ctx.dimension)
    y = signs * (G @ c)
    for nu in (bq.nu_beta(5.0, binned.block), bq.nu_sigma_delta(1, binned.block)):
        condenser = bq.BlockCondensation(nu=nu, blocks=binned.block_counts[-1])
        system = bq.assemble_frame(
            G, ctx, weight=weight, condenser=condenser, signs=signs
        )
        back = bq.reconstruct(system, y)
        np.testing.assert_allclose(back, c, atol=1e-9)


def test_frame_failure_when_underdetermined(ctx):
    rng = np.random.default_rng(34)
    points = rng.uniform(-12.5, 12.5, 5)  # far fewer rows than dimensions
    with pytest.raises(bq.FrameFailure, match="singular"):
        bq.assemble_frame(bq.sample_matrix(points, ctx), ctx)


def test_frame_floor_is_relative_to_the_spectrum(ctx):
    # Condition number about 4 at eigenvalues near 2e-12: invertible.
    rng = np.random.default_rng(37)
    G = 1e-7 * rng.normal(size=(400, ctx.dimension))
    system = bq.assemble_frame(G, ctx)
    assert system.lam_min < 1e-11 and system.lam_max < 5 * system.lam_min
    c = rng.normal(size=ctx.dimension)
    np.testing.assert_allclose(bq.reconstruct(system, G @ c), c, atol=1e-10)


def test_assemble_frame_validation(ctx):
    rng = np.random.default_rng(35)
    G = rng.normal(size=(50, ctx.dimension))
    with pytest.raises(ValueError, match="columns"):
        bq.assemble_frame(G[:, :-1], ctx)
    with pytest.raises(ValueError, match="signs"):
        bq.assemble_frame(G, ctx, signs=np.ones(49))
    weight = bq.build_weight((10, 20, 30), 5.0, 0.5)
    with pytest.raises(ValueError, match="weight"):
        bq.assemble_frame(G, ctx, weight=weight)


def test_reconstruct_validation(ctx):
    rng = np.random.default_rng(36)
    points = rng.uniform(-12.5, 12.5, 200)
    system = bq.assemble_frame(bq.sample_matrix(points, ctx), ctx)
    with pytest.raises(ValueError, match="measurements"):
        bq.reconstruct(system, np.zeros(199))


def test_frame_band_report(gen, ctx):
    binned = _binned(gen)
    nu = bq.nu_beta(2.0, binned.block)
    condenser = bq.BlockCondensation(nu=nu, blocks=binned.block_counts[-1])
    weight = bq.build_weight(binned.block_counts, 5.0, 0.5)
    system = bq.assemble_frame(
        bq.sample_matrix(binned.coordinates(), ctx),
        ctx,
        weight=weight,
        condenser=condenser,
        signs=binned.sign_vector(),
    )
    band = bq.frame_bound_report(system, gamma=0.125, t=0.6)
    ratio = (nu.l2 / nu.l1) ** 2
    assert band.lower == pytest.approx(ratio * (1.0 - 0.125 - 1.8))
    assert band.upper == pytest.approx(ratio * 2.8)
    assert band.lam_min == system.lam_min
    assert band.lower_ok == (system.lam_min >= band.lower)
    assert band.upper_ok == (system.lam_max <= band.upper)
    with pytest.raises(ValueError):
        bq.frame_bound_report(system, gamma=1.5, t=0.6)
    with pytest.raises(ValueError):
        bq.frame_bound_report(system, gamma=0.125, t=0.0)
    plain = bq.assemble_frame(bq.sample_matrix(binned.coordinates(), ctx), ctx)
    with pytest.raises(ValueError, match="condensed"):
        bq.frame_bound_report(plain, gamma=0.125, t=0.6)
