import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from parabose.coordrep import vacuum_wavefunction

# hypothesis' pytest plugin imports this module (and libcst with it) when a
# property test fails; libcst's import warns DeprecationWarning from
# mypy_extensions, which the suite's `error` filter would turn into an
# INTERNALERROR that ends the session before the remaining tests run
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def fock_basis_wavefunction(n, ell, l, x):
    """<x|n> built from the vacuum through the Laguerre ladder identities.

    Independent coordinate-space oracle: even states carry
    L_m^(2l-1/2)(x^2/l^2), odd states an extra x/l and L_m^(2l+1/2).
    """
    eps = 2 * ell + 0.5
    x = np.asarray(x, dtype=float)
    psi0 = vacuum_wavefunction(ell, l, x)
    m, parity = divmod(n, 2)
    lag = eval_genlaguerre(m, 2 * ell - 0.5 + parity, x**2 / l**2)
    if parity == 0:
        pref = (-1) ** m * math.exp(0.5 * (
            math.lgamma(m + 1.0) + math.lgamma(eps) - math.lgamma(m + eps)))
        return pref * lag * psi0
    pref = (-1) ** m * math.exp(0.5 * (
        math.lgamma(m + 1.0) + math.lgamma(eps) - math.lgamma(m + eps + 1.0)))
    return pref * (x / l) * lag * psi0


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
