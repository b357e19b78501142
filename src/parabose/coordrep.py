"""Coordinate representation on the half-line x >= 0.

The deformed momentum is self-adjoint on the semi-axis only when the ground
level is quantized, eps = 2 ell + 1/2 with integer ell >= 0; constructing any
coordinate object with a non-quantized eps is an error.  The even vacuum is

    psi_0(x) = x^(2 ell) exp(-x^2 / (2 l^2)) / (l^(2 ell + 1/2)
               sqrt(Gamma(2 ell + 1/2)))

and all inner products carry the even-extension convention: a factor-2
integral over x >= 0.

The coherent-state wavefunction combines two modified Bessel functions of
half-odd order at the complex argument w = sqrt(2) xi x / ((1 - zeta) l),

    psi(x) = sqrt(1-|zeta|^2)/(1-zeta) * sqrt(x)/l
             * [I_{2l-1/2}(w) + I_{2l+1/2}(w)] / sqrt(I_{2l-1/2}(y) + I_{2l+1/2}(y))
             * exp( -((1+zeta)/(1-zeta)) x^2/(2 l^2)
                    - (1-zeta*) xi^2 / (2 (1-zeta)(1-|zeta|^2)) + i theta ),

y = |xi|^2/(1-|zeta|^2).  Its modulus squared has an independent closed form
(``density_closed_form``) used as the second route of the density check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.special import ive

from .errors import DomainError, QuadratureError
from .fock import AlgebraParams
from .states import CsSpec, _log_i_sum
from .states import _negligible_xi as _states_negligible_xi

__all__ = [
    "WavefunctionGrid",
    "HamiltonianMapping",
    "ell_from_epsilon",
    "vacuum_wavefunction",
    "wavefunction_parity_parts",
    "cs_wavefunction",
    "cs_wavefunction_gaussian",
    "density_closed_form",
    "probability_density",
    "default_grid",
    "hamiltonian_mapping",
]

TWO_ROUTE_TOL = 1e-10
NORMALIZATION_TOL = 1e-8


def _negligible_xi(xi: complex) -> bool:
    # the coordinate prefactor exponentiates the Bessel normalization on its
    # own, so displacements this small must take the analytic zero limit
    return _states_negligible_xi(xi) or abs(xi) < 1e-20


def ell_from_epsilon(epsilon: float) -> int:
    """Integer ell with eps = 2 ell + 1/2, or a quantization error."""
    ell = (epsilon - 0.5) / 2.0
    if abs(ell - round(ell)) > 1e-12 or ell < 0:
        raise DomainError(
            f"coordinate sector requires eps = 2 ell + 1/2 with integer ell, "
            f"got eps = {epsilon}"
        )
    return int(round(ell))


def vacuum_wavefunction(ell: int, l: float, x) -> np.ndarray | float:
    """Even-parity vacuum; x = 0 is included by continuity (x^0 = 1)."""
    if ell != int(ell) or ell < 0:
        raise DomainError(f"ell must be a nonnegative integer, got {ell!r}")
    if l <= 0:
        raise DomainError("length scale must be positive")
    ell = int(ell)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise DomainError("coordinate representation lives on x >= 0")
    eps = 2 * ell + 0.5
    norm = l ** (-eps) / math.sqrt(math.gamma(eps))
    with np.errstate(invalid="ignore"):
        vals = norm * x_arr ** (2 * ell) * np.exp(-(x_arr ** 2) / (2.0 * l * l))
    if ell == 0:
        vals = np.where(x_arr == 0.0, norm, vals)
    return vals if np.ndim(x) else float(vals)


def _spec_ell(spec: CsSpec) -> int:
    return ell_from_epsilon(spec.epsilon)


def _cs_wavefunction_zero_xi(spec: CsSpec, params: AlgebraParams,
                             x: np.ndarray) -> np.ndarray:
    """xi -> 0 limit (along the positive real axis): a squeezed vacuum."""
    ell = _spec_ell(spec)
    zeta = complex(spec.zeta)
    l = params.length_scale
    one = 1.0 - abs(zeta) ** 2
    pref = (math.sqrt(one) / (1.0 - zeta)
            * (2.0 * one) ** (ell - 0.25)
            / math.sqrt(math.gamma(2 * ell + 0.5))
            * np.exp(1j * spec.theta))
    base = (x / (math.sqrt(2.0) * (1.0 - zeta) * l)) ** (2 * ell - 0.5)
    gauss = np.exp(-(1.0 + zeta) / (1.0 - zeta) * x ** 2 / (2.0 * l * l))
    return pref * np.sqrt(x.astype(complex)) / l * base * gauss


def wavefunction_parity_parts(spec: CsSpec, params: AlgebraParams, x):
    """(even, odd) parity components of the coherent-state wavefunction.

    The even part carries the order-(2 ell - 1/2) Bessel term, the odd part
    the order-(2 ell + 1/2) one; their sum is the wavefunction on x >= 0 and
    their separate factor-2 half-line masses reproduce the even/odd
    number-state populations (the components are the objects the half-line
    inner product treats as orthogonal).
    """
    ell = _spec_ell(spec)
    zeta, xi, eps = complex(spec.zeta), complex(spec.xi), float(spec.epsilon)
    l = params.length_scale
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0):
        raise DomainError("coordinate representation lives on x >= 0")

    if _negligible_xi(xi):
        odd = np.zeros(len(x_arr), dtype=complex)
        even = np.where(x_arr > 0,
                        _cs_wavefunction_zero_xi(spec, params,
                                                 np.where(x_arr > 0, x_arr, 1.0)),
                        0.0j)
        if np.any(x_arr == 0.0):
            if ell == 0:
                one = 1.0 - abs(zeta) ** 2
                lim = (math.sqrt(one) / (1.0 - zeta)
                       * (2.0 * one) ** (-0.25)
                       * (math.sqrt(2.0) * (1.0 - zeta)) ** 0.5
                       / (math.pi ** 0.25 * math.sqrt(l))
                       * np.exp(1j * spec.theta))
            else:
                lim = 0.0j
            even = np.where(x_arr == 0.0, lim, even)
        return even, odd

    one = 1.0 - abs(zeta) ** 2
    y = abs(xi) ** 2 / one
    pref = math.sqrt(one) / (1.0 - zeta)
    log_const = (-0.5 * _log_i_sum(eps, y)
                 - (1.0 - np.conj(zeta)) * xi * xi / (2.0 * (1.0 - zeta) * one)
                 + 1j * spec.theta)
    pos = x_arr > 0
    even = np.zeros(len(x_arr), dtype=complex)
    odd = np.zeros(len(x_arr), dtype=complex)
    if np.any(pos):
        xp = x_arr[pos]
        w = math.sqrt(2.0) * xi * xp / ((1.0 - zeta) * l)
        # ive(k, w) = exp(-|Re w|) I_k(w): the growth joins the Gaussian
        root = pref * np.sqrt(xp) / l * np.exp(
            log_const - (1.0 + zeta) / (1.0 - zeta) * xp ** 2 / (2.0 * l * l)
            + np.abs(w.real))
        even[pos] = root * ive(2 * ell - 0.5, w)
        odd[pos] = root * ive(2 * ell + 0.5, w)
    if np.any(~pos) and ell == 0:
        # sqrt(x) I_{-1/2}(w) -> sqrt(sqrt(2)(1-zeta) l / (pi xi))
        even[~pos] = pref * np.exp(log_const) / l * np.sqrt(
            math.sqrt(2.0) * (1.0 - zeta) * l / (math.pi * xi))
    return even, odd


def cs_wavefunction(spec: CsSpec, params: AlgebraParams, x):
    """Coherent-state wavefunction at x >= 0 (scalar or grid).

    x = 0 is included by continuous extension: zero for ell >= 1, the
    small-argument Bessel limit for ell = 0.
    """
    even, odd = wavefunction_parity_parts(spec, params, x)
    out = even + odd
    return out if np.ndim(x) else complex(out[0])


def cs_wavefunction_gaussian(spec: CsSpec, params: AlgebraParams, x,
                             delta_integral: float = 0.0):
    """Closed squeezed-Gaussian form of the ell = 0 wavefunction.

    Its phase is (theta - int delta dt)/2; the ambiguous grouping in the
    published phase integrand is read as Re(alpha zeta*) - beta, which this
    combination realizes.  Relative to the Bessel form the two principal-
    branch evaluations differ by the constant exp(i (theta - arg xi)/2); they
    coincide whenever theta tracks the displacement argument (automatic along
    a trajectory anchored at positive real displacement with delta = 0, and
    in particular at theta = arg(xi) = 0).
    """
    if _spec_ell(spec) != 0:
        raise DomainError("the Gaussian closed form exists only for ell = 0")
    zeta, xi = complex(spec.zeta), complex(spec.xi)
    l = params.length_scale
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    one = 1.0 - abs(zeta) ** 2
    rho_phase = 0.5 * (spec.theta - delta_integral)
    pref = one ** 0.25 / np.sqrt(math.sqrt(math.pi) * l * (1.0 - zeta))
    shift = x_arr - math.sqrt(2.0) * l * xi / (1.0 + zeta)
    out = pref * np.exp(
        -(1.0 + zeta) / (1.0 - zeta) * shift ** 2 / (2.0 * l * l)
        + (1.0 + np.conj(zeta)) / (1.0 + zeta) * xi * xi / (2.0 * one)
        - abs(xi) ** 2 / (2.0 * one)
        + 1j * rho_phase)
    return out if np.ndim(x) else complex(out[0])


def density_closed_form(spec: CsSpec, params: AlgebraParams, x) -> np.ndarray:
    """Probability density evaluated by its own closed form (not |psi|^2)."""
    ell = _spec_ell(spec)
    zeta, xi, eps = complex(spec.zeta), complex(spec.xi), float(spec.epsilon)
    l = params.length_scale
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    one = 1.0 - abs(zeta) ** 2
    q = one / abs(1.0 - zeta) ** 2
    if _negligible_xi(xi):
        # limit of the Bessel ratio as both arguments vanish
        gam = math.gamma(2 * ell + 0.5)
        scale = math.sqrt(2.0) * abs(1.0 - zeta) * l
        safe_x = np.where(x_arr > 0, x_arr, 1.0)
        rho = (q * x_arr / (l * l) * (safe_x / scale) ** (4 * ell - 1)
               * (2.0 * one) ** (2 * ell - 0.5) / gam
               * np.exp(-q * x_arr ** 2 / (l * l)))
        # x = 0 by continuity: zero for ell >= 1, x * x^{-1} -> scale for ell = 0
        at0 = 0.0 if ell >= 1 else q * scale / (l * l) * (2.0 * one) ** (-0.5) / gam
        rho = np.where(x_arr == 0.0, at0, rho)
        return rho if np.ndim(x) else float(rho[0])
    y = abs(xi) ** 2 / one
    pos = x_arr > 0
    rho = np.zeros(len(x_arr), dtype=float)
    log_denom = _log_i_sum(eps, y)
    shift = (((1.0 - np.conj(zeta)) / (1.0 - zeta)) * xi * xi).real / one
    if np.any(pos):
        xp = x_arr[pos]
        w = math.sqrt(2.0) * xi * xp / ((1.0 - zeta) * l)
        bsum = ive(2 * ell - 0.5, w) + ive(2 * ell + 0.5, w)
        rho[pos] = (q * xp / (l * l) * np.abs(bsum) ** 2
                    * np.exp(2.0 * np.abs(w.real) - log_denom
                             - q * xp ** 2 / (l * l) - shift))
    if np.any(~pos):
        if ell >= 1:
            rho[~pos] = 0.0
        else:
            lim = (q / (l * l)
                   * math.sqrt(2.0) * abs(1.0 - zeta) * l / (math.pi * abs(xi))
                   * math.exp(-log_denom - shift))
            rho[~pos] = lim
    return rho if np.ndim(x) else float(rho[0])


@dataclass(frozen=True)
class WavefunctionGrid:
    """Density emission bundle, checked on construction.

    ``rho_values`` is the closed-form density (equal to |psi|^2 to the
    two-route tolerance).  ``parity_norm`` is the factor-2 half-line integral
    of |even|^2 + |odd|^2, which carries the state norm and must equal 1;
    ``integral`` is the plain factor-2 integral of rho, which differs from 1
    by twice the real even-odd interference on the half-line whenever the
    parity components fail to be phase-orthogonal there (it coincides with
    ``parity_norm`` for a real squeeze with purely imaginary or vanishing
    displacement, the configuration family of the emitted figures)."""

    x_values: np.ndarray = field(repr=False)
    psi_values: np.ndarray = field(repr=False)
    rho_values: np.ndarray = field(repr=False)
    ell: int
    params: AlgebraParams
    two_route_residual: float
    integral: float
    parity_norm: float


def default_grid(params: AlgebraParams, spec: CsSpec | None = None,
                 points: int = 2048) -> np.ndarray:
    """Logarithmic-linear hybrid grid on [1e-3 l, x_max].

    x_max is 10 l for vacuum-scale states and stretches automatically when the
    squeeze widens the Gaussian envelope or the displacement shifts the peak.
    """
    l = params.length_scale
    x_max = 10.0
    if spec is not None:
        zeta, xi = complex(spec.zeta), complex(spec.xi)
        q = (1.0 - abs(zeta) ** 2) / abs(1.0 - zeta) ** 2
        ell = ell_from_epsilon(spec.epsilon)
        x_max = max(10.0,
                    math.sqrt((60.0 + 4.0 * ell) / q)
                    + math.sqrt(2.0) * abs(xi) / (q * abs(1.0 - zeta)))
    n_log = points // 4
    log_part = np.geomspace(1e-3, 0.2, n_log, endpoint=False)
    lin_part = np.linspace(0.2, x_max, points - n_log)
    return l * np.concatenate([log_part, lin_part])


def _corrected_half_line_integral(values: np.ndarray, grid: np.ndarray,
                                  q: float, l: float) -> float:
    """Factor-2 Simpson integral with the analytic Gaussian tail beyond the
    last node and the short gap down to x = 0."""
    total = 2.0 * float(simpson(values, x=grid))
    total += 2.0 * values[-1] * l * l / (2.0 * q * grid[-1])
    total += 2.0 * values[0] * grid[0]
    return total


def probability_density(spec: CsSpec, params: AlgebraParams,
                        grid: np.ndarray | None = None) -> WavefunctionGrid:
    """Density on a grid, verified two ways.

    The closed form and |psi|^2 must agree to 1e-10 relative to the peak, and
    the parity-resolved factor-2 half-line norm must equal 1 to 1e-8, else
    the construction fails loudly.  The plain density integral is attached
    as data; see WavefunctionGrid for when the two coincide.
    """
    ell = _spec_ell(spec)
    if grid is None:
        grid = default_grid(params, spec)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 16 or not np.all(np.diff(grid) > 0):
        raise DomainError("grid must be an increasing 1-d array, >= 16 points")
    even, odd = wavefunction_parity_parts(spec, params, grid)
    psi = even + odd
    rho = density_closed_form(spec, params, grid)
    peak = float(np.max(rho))
    residual = float(np.max(np.abs(rho - np.abs(psi) ** 2))) / peak
    if residual > TWO_ROUTE_TOL:
        raise QuadratureError(
            f"closed-form density and |psi|^2 disagree by {residual:.3e} "
            f"(> {TWO_ROUTE_TOL}) relative to the peak"
        )
    l = params.length_scale
    q = (1.0 - abs(complex(spec.zeta)) ** 2) / abs(1.0 - complex(spec.zeta)) ** 2
    integral = _corrected_half_line_integral(rho, grid, q, l)
    parity_norm = _corrected_half_line_integral(
        np.abs(even) ** 2 + np.abs(odd) ** 2, grid, q, l)
    if abs(parity_norm - 1.0) > NORMALIZATION_TOL:
        raise QuadratureError(
            f"parity-resolved half-line norm {parity_norm:.12f} misses 1 by "
            f"more than {NORMALIZATION_TOL}; grid too short or too coarse"
        )
    return WavefunctionGrid(x_values=grid, psi_values=np.atleast_1d(psi),
                            rho_values=np.atleast_1d(rho), ell=ell,
                            params=params, two_route_residual=residual,
                            integral=integral, parity_norm=parity_norm)


@dataclass(frozen=True)
class HamiltonianMapping:
    """Mechanical reading of one (alpha, beta, delta) sample: mass, frequency,
    cross (x P + P x) coupling, and constant energy offset."""

    mass: float
    omega: float
    cross: float
    offset: float


def hamiltonian_mapping(alpha: complex, beta: float, delta: float,
                        params: AlgebraParams) -> HamiltonianMapping:
    """Map the ladder-form coefficients to mechanical parameters:

        1/m = (l^2/hbar) Re(beta - alpha),  m omega^2 = (hbar/l^2) Re(beta + alpha),
        cross = Im(alpha),                  offset = hbar delta,

    with the consistency identity omega^2 = beta^2 - Re(alpha)^2.  The
    Re(beta - alpha) = 0 edge is the free particle (infinite mass, omega
    from the identity); a negative value is rejected.
    """
    alpha = complex(alpha)
    beta, delta = float(beta), float(delta)
    l, hbar = params.length_scale, params.hbar
    inv_mass = (l * l / hbar) * (beta - alpha.real)
    if inv_mass < 0:
        raise DomainError(
            f"Re(beta - alpha) = {beta - alpha.real} < 0 maps to negative mass"
        )
    mass = math.inf if inv_mass == 0.0 else 1.0 / inv_mass
    omega_sq = beta * beta - alpha.real ** 2
    if omega_sq < 0:
        raise DomainError("beta^2 < Re(alpha)^2: no oscillator frequency")
    return HamiltonianMapping(mass=mass, omega=math.sqrt(omega_sq),
                              cross=alpha.imag, offset=hbar * delta)
