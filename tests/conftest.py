import numpy as np
import pytest

from bfsyz.exactalg import _modp, matrix


def pytest_report_header(config):
    """Name the arithmetic the mod-p kernel's dense loop takes on this platform."""
    return f"np.longdouble mantissa bits: {np.finfo(np.longdouble).nmant}"


@pytest.fixture
def short_kernel(monkeypatch):
    """A switch that makes every later mod-p rank one short of the true rank,
    the primes agreeing: modular values then overshoot, as an unlucky prime
    makes them do."""

    def install():
        real = _modp.rank_mod_p_dense
        monkeypatch.setattr(_modp, "rank_mod_p_dense", lambda a, primes: max(real(a, primes) - 1, 0))

    return install


@pytest.fixture
def exact_dim_limit(monkeypatch):
    """A switch that sets ``EXACT_DIM_LIMIT``: ``auto`` then ranks modularly
    every map with a block side above it, so that a small case takes the
    modular path that only larger ones take at the default limit."""

    def install(limit):
        monkeypatch.setattr(matrix, "EXACT_DIM_LIMIT", limit)

    return install
