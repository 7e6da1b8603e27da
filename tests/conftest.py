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
