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
