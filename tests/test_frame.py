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


def _measure(condenser, weight, v):
    """W V v for signed samples v, or for each column of a sample matrix."""
    return (weight * condenser.apply(v).T).T


def test_sample_matrix_evaluates_span_elements(ctx):
    rng = np.random.default_rng(30)
    c = rng.normal(size=ctx.dimension)
    fv = bq.CoefficientVector(values=c, context=ctx)
    points = rng.uniform(-12.0, 12.0, 50)
    np.testing.assert_allclose(
        ctx.kernel_coefficients(points) @ c, fv.eval(points), atol=1e-13
    )


def test_plain_roundtrip(ctx, monkeypatch):
    rng = np.random.default_rng(31)
    points = rng.uniform(-12.5, 12.5, 300)
    c = rng.normal(size=ctx.dimension)
    system = bq.assemble_frame(ctx.kernel_coefficients(points), ctx)
    # reconstruct solves with the decomposition taken at assembly.
    monkeypatch.setattr(
        np.linalg,
        "eigh",
        lambda *a, **k: pytest.fail("reconstruct decomposed the frame operator again"),
    )
    y = ctx.kernel_coefficients(points) @ c
    back = bq.reconstruct(system, y)
    np.testing.assert_allclose(back, c, atol=1e-10)
    assert system.lam_min > 0
    assert system.lam_max >= system.lam_min
    assert system.analysis.shape == (300, ctx.dimension)


def test_weighted_condensed_roundtrip(gen, ctx):
    binned = _binned(gen)
    # Sign-flipped rows: G @ c are the signed exact samples of a span element.
    G = binned.sign_vector()[:, None] * ctx.kernel_coefficients(binned.coordinates())
    condenser = bq.BlockCondensation(
        nu=bq.nu_beta(2.0, binned.block), blocks=binned.block_counts[-1]
    )
    weight = bq.build_weight(binned.block_counts, 5.0, 0.5)
    system = bq.assemble_frame(_measure(condenser, weight, G), ctx)
    rng = np.random.default_rng(32)
    c = rng.normal(size=ctx.dimension)
    v = _measure(condenser, weight, G @ c)
    back = bq.reconstruct(system, v)
    np.testing.assert_allclose(back, c, atol=1e-9)
    with pytest.raises(ValueError, match="measurements"):
        bq.reconstruct(system, v[:-1])


def test_roundtrip_independent_of_condensation_row(gen, ctx):
    binned = _binned(gen)
    G = binned.sign_vector()[:, None] * ctx.kernel_coefficients(binned.coordinates())
    weight = bq.build_weight(binned.block_counts, 5.0, 0.5)
    rng = np.random.default_rng(33)
    c = rng.normal(size=ctx.dimension)
    y = G @ c
    for nu in (bq.nu_beta(5.0, binned.block), bq.nu_sigma_delta(1, binned.block)):
        condenser = bq.BlockCondensation(nu=nu, blocks=binned.block_counts[-1])
        system = bq.assemble_frame(_measure(condenser, weight, G), ctx)
        back = bq.reconstruct(system, _measure(condenser, weight, y))
        np.testing.assert_allclose(back, c, atol=1e-9)


def test_frame_failure_when_underdetermined(ctx):
    rng = np.random.default_rng(34)
    points = rng.uniform(-12.5, 12.5, 5)  # far fewer rows than dimensions
    with pytest.raises(bq.FrameFailure, match="singular"):
        bq.assemble_frame(ctx.kernel_coefficients(points), ctx)


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


def test_reconstruct_validation(ctx):
    rng = np.random.default_rng(36)
    points = rng.uniform(-12.5, 12.5, 200)
    system = bq.assemble_frame(ctx.kernel_coefficients(points), ctx)
    with pytest.raises(ValueError, match="measurements"):
        bq.reconstruct(system, np.zeros(199))


def test_frame_band_report(gen, ctx):
    binned = _binned(gen)
    nu = bq.nu_beta(2.0, binned.block)
    condenser = bq.BlockCondensation(nu=nu, blocks=binned.block_counts[-1])
    weight = bq.build_weight(binned.block_counts, 5.0, 0.5)
    G = binned.sign_vector()[:, None] * ctx.kernel_coefficients(binned.coordinates())
    system = bq.assemble_frame(_measure(condenser, weight, G), ctx)
    lower, upper = bq.frame_bound_report(system, nu, gamma=0.125, t=0.6)
    ratio = (nu.l2 / nu.l1) ** 2
    assert lower.label == "frame spectrum lower edge"
    assert upper.label == "frame spectrum upper edge"
    assert lower.lhs == pytest.approx(ratio * (1.0 - 0.125 - 1.8))
    assert upper.rhs == pytest.approx(ratio * 2.8)
    assert lower.rhs == system.lam_min
    assert upper.lhs == system.lam_max
    assert lower.passed == (system.lam_min >= lower.lhs)
    assert upper.passed == (system.lam_max <= upper.rhs)
    # 1 - gamma - 3t < 0 here, and the frame operator cannot have a negative
    # eigenvalue, so the lower edge holds whatever was computed.
    assert lower.vacuous and not upper.vacuous
    with pytest.raises(ValueError):
        bq.frame_bound_report(system, nu, gamma=1.5, t=0.6)
    with pytest.raises(ValueError):
        bq.frame_bound_report(system, nu, gamma=0.125, t=0.0)
