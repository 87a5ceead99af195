import numpy as np
import pytest

from bfsyz.exactalg import _modp


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
