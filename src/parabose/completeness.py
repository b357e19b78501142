"""Resolution of identity for the squeezed-vacuum family.

With the radial weight w(r) = (eps - 1) / (pi (1 - r^2)^2) the family
integrates to the identity on the even-parity sector, for eps > 1 only
(eps <= 1 gives a non-positive weight and is rejected; in particular the
canonical level eps = 1/2 admits no such relation).  The angular integral is
a 2 pi Kronecker delta and is always taken analytically, so only the radial
integral is done numerically.

After u = r^2 the radial integrand carries the endpoint factor
(1 - u)^(eps - 2), singular for eps < 2; the quadrature is a
Gauss-Jacobi rule built for exactly that exponent, which integrates the
remaining polynomial part to machine precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, QuadratureError
from .states import _svs_coefficient_column, check_index

__all__ = [
    "weight",
    "diagonal_identity_residual",
    "identity_block_residual",
]

CONVERGENCE_TOL = 1e-10
NODE_COUNT = 64


def _require_completeness_domain(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 1.0):
        raise DomainError(
            f"completeness requires eps > 1 (positive weight), got {epsilon!r}"
        )


def weight(epsilon: float, r) -> np.ndarray | float:
    """w(r) = (eps - 1) / (pi (1 - r^2)^2) on 0 <= r < 1."""
    _require_completeness_domain(epsilon)
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr >= 0.0) & (r_arr < 1.0)):  # NaN fails
        raise DomainError("weight is defined for 0 <= r < 1")
    vals = (epsilon - 1.0) / (math.pi * (1.0 - r_arr**2) ** 2)
    return vals if np.ndim(r) else float(vals)


def _radial_nodes(epsilon: float, node_count: int):
    """Gauss-Jacobi nodes/weights for int_0^1 (1-u)^(eps-2) g(u) du =
    sum w_j g(u_j); the endpoint factor is the quadrature weight.  scipy's
    special functions load here, on a closure check's first use."""
    from scipy.special import roots_jacobi
    x, w = roots_jacobi(node_count, epsilon - 2.0, 0.0)
    u = 0.5 * (x + 1.0)
    return u, w * 2.0 ** (-(epsilon - 1.0))


def _diagonal_quadrature(epsilon: float, n: int, node_count: int) -> float:
    u, w = _radial_nodes(epsilon, node_count)
    return float(np.sum(w * u**n))


def diagonal_identity_residual(epsilon: float, n: int) -> float:
    """|quadrature of the n-th diagonal closure entry - 1|.

    The exact value is 1 through the Beta identity
    Gamma(x) Gamma(y) / Gamma(x+y) = 2 int_0^1 (1 - t^2)^(y-1) t^(2x-1) dt.
    Nonconvergence (the NODE_COUNT rule vs its half-node version) raises
    instead of being absorbed into the residual.
    """
    _require_completeness_domain(epsilon)
    n = check_index(n)
    prefactor = (epsilon - 1.0) * math.exp(
        math.lgamma(n + epsilon) - math.lgamma(n + 1.0) - math.lgamma(epsilon)
    )
    full = _diagonal_quadrature(epsilon, n, NODE_COUNT)
    half = _diagonal_quadrature(epsilon, n, max(4, NODE_COUNT // 2))
    if not abs(full - half) <= CONVERGENCE_TOL * max(abs(full), 1.0):
        raise QuadratureError(
            f"radial quadrature not converged for eps={epsilon}, n={n} "
            f"with {NODE_COUNT} nodes"
        )
    return abs(prefactor * full - 1.0)


def identity_block_residual(epsilon: float, block: int) -> float:
    """max |M - 1| over the even-sector K x K closure block.

    M is assembled from the state constructor's coefficient kernel on the
    radial quadrature grid: the state prefactor (1-r^2)^(eps/2) squares into
    the weight denominator exactly, so no node needs a full normalized
    vector (for eps < 2 the rule places nodes arbitrarily close to the unit
    radius, where such a vector would be astronomically long).  Off-diagonal
    entries vanish identically because the angular integral is a Kronecker
    delta, so the whole-space closure statement is realized on the
    even-parity subspace the family spans.
    """
    _require_completeness_domain(epsilon)
    if not 1 <= block <= 32:
        raise DomainError(f"block size must be in 1..32, got {block}")
    u, w = _radial_nodes(epsilon, NODE_COUNT)
    diag = np.zeros(block)
    for uj, wj in zip(u, w):
        col = _svs_coefficient_column(math.sqrt(uj), epsilon, block)
        diag += wj * (epsilon - 1.0) * np.abs(col) ** 2
    return float(np.max(np.abs(diag - 1.0)))
