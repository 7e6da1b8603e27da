import types

import numpy as np
import pytest

import bandquant as bq


@pytest.fixture(scope="session")
def gen():
    """Session-wide generator (built once, shared by every test)."""
    return bq.shared_generator(bq.GeneratorParams(lam=2.0))


@pytest.fixture(scope="session")
def ctx(gen):
    """Default reconstruction window: half-width 5, shell parameter 1/2."""
    return bq.KernelContext.from_box(gen, 5.0, 0.5)


@pytest.fixture(scope="session")
def span_signal(ctx):
    """Random span element of the default window, from a given rng.

    Scaled to sup 0.8 over the default sampling range [-12.5, 12.5], so that
    the shaped quantizers take it without overload (raw sup is about 3.6).
    """

    def make(rng):
        values = rng.normal(size=ctx.dimension)
        xs = np.linspace(-12.5, 12.5, 25001)
        raw = bq.CoefficientVector(values=values, context=ctx).eval(xs)
        return bq.CoefficientVector(
            values=values * (0.8 / np.max(np.abs(raw))), context=ctx
        )

    return make


@pytest.fixture(scope="session")
def dense_h():
    """Dense H of the recursion with the given taps, restarting every block
    steps (never for None) over size steps, the reference for
    greedy_noise_shape: one lower-Toeplitz block I - sum_j taps[j-1] S^j per
    restart, stacked by kron."""

    def make(taps, block, size):
        block = size if block is None else block
        h = np.eye(block)
        for j, tap in enumerate(taps, start=1):
            h -= tap * np.eye(block, k=-j)
        return np.kron(np.eye(size // block), h)

    return make


@pytest.fixture(scope="session")
def dense_v():
    """Dense block-diagonal V of blocks copies of nu / ||nu||_1, the reference
    for condense."""

    def make(nu, blocks):
        return np.kron(np.eye(blocks), nu / np.abs(nu).sum())

    return make


@pytest.fixture(scope="session")
def with_nan_sample():
    """Stand-in for a signal whose first evaluated point reads NaN."""

    def make(signal):
        def eval(t):
            values = np.array(signal.eval(t), dtype=float)
            values.flat[0] = np.nan
            return values

        return types.SimpleNamespace(eval=eval)

    return make


@pytest.fixture(scope="session")
def beta_run(tmp_path_factory):
    """Output directory of a small ``bandquant run`` of the beta scheme, and
    the artifacts of run_detailed on the same configuration."""
    from bandquant.cli import main

    argv = ["--m", "1200", "--p", "80", "--scheme", "beta", "--grid-points", "50"]
    out = tmp_path_factory.mktemp("beta_run")
    assert main(["run", *argv, "--out", str(out)]) == 0
    config = bq.RunConfig(m=1200, p=80, scheme="beta", grid_points=50)
    return out, bq.run_detailed(config)
