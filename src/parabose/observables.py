"""First and second moments of position and momentum in the coherent states.

With x = (a + a') l / sqrt(2) and P = hbar (a - a') / (i sqrt(2) l) the
deformed commutator is [x, P] = i hbar (1 + (2 eps - 1) R), and every moment
below is a closed form in (zeta, xi, eps) through the parity mean R_bar:

    mean x  = sqrt(2) l   Re[(1 - zeta*) xi] / (1 - |zeta|^2)
    mean P  = sqrt(2) h/l Im[(1 + zeta*) xi] / (1 - |zeta|^2)
    var x   = l^2   |1 - zeta|^2 (1 + (2 eps - 1) R_bar) / (2 (1 - |zeta|^2))
    var P   = h^2/l^2 |1 + zeta|^2 (1 + (2 eps - 1) R_bar) / (2 (1 - |zeta|^2))
    cov xP  = -hbar Im(zeta) (1 + (2 eps - 1) R_bar) / (1 - |zeta|^2)

The product form saturates the Schrodinger-Robertson bound:
var x var P - cov^2 = (hbar^2/4)(1 + (2 eps - 1) R_bar)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import AlgebraParams
from .states import CsSpec, mean_reflection, squeeze_gap

__all__ = ["Moments", "cs_moments", "uncertainty_products", "xi_from_means"]


@dataclass(frozen=True)
class Moments:
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float
    mean_r: float

    @property
    def sigma_x(self) -> float:
        return math.sqrt(self.var_x)

    @property
    def sigma_p(self) -> float:
        return math.sqrt(self.var_p)


def cs_moments(spec: CsSpec, params: AlgebraParams) -> Moments:
    """All six moment fields of the coherent state in one shot."""
    if params.epsilon != spec.epsilon:
        raise DomainError("spec and algebra parameters disagree on epsilon")
    zeta, xi, eps = spec.zeta, spec.xi, spec.epsilon
    l, hbar = params.length_scale, params.hbar
    one = squeeze_gap(zeta)
    r_bar = mean_reflection(zeta, xi, eps)
    parity_weight = 1.0 + (2.0 * eps - 1.0) * r_bar
    mean_x = math.sqrt(2.0) * l * ((1.0 - np.conj(zeta)) * xi).real / one
    mean_p = math.sqrt(2.0) * hbar / l * ((1.0 + np.conj(zeta)) * xi).imag / one
    var_x = l * l * abs(1.0 - zeta) ** 2 * parity_weight / (2.0 * one)
    var_p = (hbar / l) ** 2 * abs(1.0 + zeta) ** 2 * parity_weight / (2.0 * one)
    cov_xp = -hbar * zeta.imag * parity_weight / one
    return Moments(mean_x=mean_x, mean_p=mean_p, var_x=var_x, var_p=var_p,
                   cov_xp=cov_xp, mean_r=r_bar)


def uncertainty_products(
    zeta: complex, mean_r: float, params: AlgebraParams
) -> tuple[float, float]:
    """(Heisenberg product sigma_x sigma_P, Schrodinger-Robertson combination)
    of the coherent state with squeeze zeta and parity mean R_bar = mean_r.

    Closed forms:
      sigma_x sigma_P = hbar sqrt(1 + 4 Im^2 zeta / (1-|zeta|^2)^2)
                        (1 + (2 eps - 1) R_bar) / 2
      var_x var_P - cov^2 = (hbar^2/4)(1 + (2 eps - 1) R_bar)^2,
    the latter depending on zeta only through |zeta| inside R_bar.
    """
    zeta = complex(zeta)
    hbar = params.hbar
    one = squeeze_gap(zeta)
    parity_weight = 1.0 + params.nu * mean_r
    heisenberg = (hbar * math.sqrt(1.0 + 4.0 * zeta.imag ** 2 / one ** 2)
                  * parity_weight / 2.0)
    schrodinger_robertson = (hbar * parity_weight / 2.0) ** 2
    return heisenberg, schrodinger_robertson


def xi_from_means(
    mean_x: float, mean_p: float, zeta: complex, params: AlgebraParams
) -> complex:
    """Invert the moment map: xi = (1+zeta) x/(sqrt2 l) + i l (1-zeta) P/(sqrt2 hbar)."""
    zeta = complex(zeta)
    l, hbar = params.length_scale, params.hbar
    return ((1.0 + zeta) * mean_x / (math.sqrt(2.0) * l)
            + 1j * l * (1.0 - zeta) * mean_p / (math.sqrt(2.0) * hbar))
