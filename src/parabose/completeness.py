"""Resolution of identity for the squeezed-vacuum family.

With the radial weight w(r) = (eps - 1) / (pi (1 - r^2)^2) the family
integrates to the identity on the even-parity sector, for eps > 1 only
(eps <= 1 gives a non-positive weight and is rejected; in particular the
canonical level eps = 1/2 admits no such relation).  The angular integral is
a 2 pi Kronecker delta and is always taken analytically, so only the radial
integral is done numerically.

After u = r^2 the radial integrand carries the endpoint factor
(1 - u)^(eps - 2), singular for eps < 2; the default quadrature is a
Gauss-Jacobi rule built for exactly that exponent, which integrates the
remaining polynomial part to machine precision.  A raw Gauss-Legendre mode
(``rule="legendre"``) is kept to document why the weighted rule is required:
for eps close to 1 it visibly fails its own convergence cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import DomainError, QuadratureError
from .states import _svs_coefficient_column

__all__ = [
    "WeightSpec",
    "weight",
    "diagonal_identity_residual",
    "identity_block_residual",
]

CONVERGENCE_TOL = 1e-10


@dataclass(frozen=True)
class WeightSpec:
    """Weight-curve emission parameters: level, radial cutoff, node count."""

    epsilon: float
    r_max: float = 0.999
    node_count: int = 256

    def __post_init__(self):
        _require_completeness_domain(self.epsilon)
        if not 0.0 < self.r_max < 1.0:
            raise DomainError(f"r_max must lie in (0, 1), got {self.r_max}")
        if self.node_count < 2:
            raise DomainError("node_count must be >= 2")


def _require_completeness_domain(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 1.0):
        raise DomainError(
            f"completeness requires eps > 1 (positive weight), got {epsilon!r}"
        )


def weight(epsilon: float, r) -> np.ndarray | float:
    """w(r) = (eps - 1) / (pi (1 - r^2)^2) on 0 <= r < 1."""
    _require_completeness_domain(epsilon)
    r_arr = np.asarray(r, dtype=float)
    if np.any((r_arr < 0.0) | (r_arr >= 1.0)):
        raise DomainError("weight is defined for 0 <= r < 1")
    vals = (epsilon - 1.0) / (math.pi * (1.0 - r_arr**2) ** 2)
    return vals if np.ndim(r) else float(vals)


def _radial_nodes(epsilon: float, node_count: int, rule: str):
    """Nodes/weights for int_0^1 (1-u)^(eps-2) g(u) du = sum w_j g(u_j).

    For the Jacobi rule the endpoint factor is the quadrature weight; for the
    raw Legendre rule it is folded into g, which is exactly the 'raw sampling'
    the weighted rule exists to avoid.
    """
    if rule == "jacobi":
        x, w = roots_jacobi(node_count, epsilon - 2.0, 0.0)
        u = 0.5 * (x + 1.0)
        return u, w * 2.0 ** (-(epsilon - 1.0))
    if rule == "legendre":
        x, w = roots_legendre(node_count)
        u = 0.5 * (x + 1.0)
        return u, 0.5 * w * (1.0 - u) ** (epsilon - 2.0)
    raise DomainError(f"unknown quadrature rule {rule!r}")


def _diagonal_quadrature(epsilon: float, n: int, node_count: int, rule: str) -> float:
    u, w = _radial_nodes(epsilon, node_count, rule)
    return float(np.sum(w * u**n))


def diagonal_identity_residual(
    epsilon: float, n: int, node_count: int = 64, rule: str = "jacobi"
) -> float:
    """|quadrature of the n-th diagonal closure entry - 1|.

    The exact value is 1 through the Beta identity
    Gamma(x) Gamma(y) / Gamma(x+y) = 2 int_0^1 (1 - t^2)^(y-1) t^(2x-1) dt.
    Nonconvergence (the full rule vs its half-node version) raises instead of
    being absorbed into the residual.
    """
    _require_completeness_domain(epsilon)
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    prefactor = (epsilon - 1.0) * math.exp(
        math.lgamma(n + epsilon) - math.lgamma(n + 1.0) - math.lgamma(epsilon)
    )
    full = _diagonal_quadrature(epsilon, n, node_count, rule)
    half = _diagonal_quadrature(epsilon, n, max(4, node_count // 2), rule)
    if abs(full - half) > CONVERGENCE_TOL * max(abs(full), 1.0):
        raise QuadratureError(
            f"radial quadrature not converged for eps={epsilon}, n={n}, "
            f"rule={rule!r}, nodes={node_count}: endpoint exponent "
            f"{epsilon - 2.0:+.3f} needs the weighted rule or more nodes"
        )
    return abs(prefactor * full - 1.0)


def identity_block_residual(
    epsilon: float, block: int, node_count: int = 64
) -> float:
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
    u, w = _radial_nodes(epsilon, node_count, "jacobi")
    diag = np.zeros(block)
    for uj, wj in zip(u, w):
        col = _svs_coefficient_column(math.sqrt(uj), epsilon, block)
        diag += wj * (epsilon - 1.0) * np.abs(col) ** 2
    return float(np.max(np.abs(diag - 1.0)))
