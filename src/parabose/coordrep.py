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

y = |xi|^2/(1-|zeta|^2).  Its modulus squared has a closed form of its own
(``density_closed_form``), used as the second route of the density check.

Both Bessel orders, 2 ell -+ 1/2, are half-odd integers, so I_{n+1/2}(w) is
elementary: e^(+-w) times a polynomial in 1/w (DLMF 10.49(ii)).  Each term
and the normalization come from the package's one evaluator of
Lambda_nu(w) = Gamma(nu+1) I_nu(w)/(w/2)^nu (``bessel``): the elementary
form, the ascending series at small |w|, and scipy's ive only for orders
past ELEMENTARY_MAX_ORDER + 1/2 (ell >= 5).  psi, the closed-form density
and the normalization share it, so the density check tests the two
formulas, not two Bessel evaluations.  One private evaluator writes both
formulas over the same two Bessel terms, so psi, the closed-form density
and ``probability_density`` each evaluate them once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import log_pair, ratio_array
from .errors import DomainError, QuadratureError
from .fock import AlgebraParams
from .states import CsSpec, squeeze_gap

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
NORM_SETTLE_TOL = 1e-13
NORM_NODE_CAP = 65536


def ell_from_epsilon(epsilon: float) -> int:
    """Integer ell with eps = 2 ell + 1/2, or a quantization error."""
    ell = AlgebraParams(epsilon=epsilon).ell
    if ell is None:
        raise DomainError(
            f"coordinate sector requires eps = 2 ell + 1/2 with integer ell, "
            f"got eps = {epsilon}"
        )
    return ell


def vacuum_wavefunction(ell: int, l: float, x) -> np.ndarray | float:
    """Even-parity vacuum; x = 0 is included by continuity (x^0 = 1)."""
    eps = AlgebraParams.from_ell(ell, length_scale=l).epsilon
    ell = int(ell)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise DomainError("coordinate representation lives on x >= 0")
    norm = l ** (-eps) / math.sqrt(math.gamma(eps))
    with np.errstate(invalid="ignore"):
        vals = norm * x_arr ** (2 * ell) * np.exp(-(x_arr ** 2) / (2.0 * l * l))
    return vals if np.ndim(x) else float(vals)


def _spec_ell(spec: CsSpec, params: AlgebraParams) -> int:
    if params.epsilon != spec.epsilon:
        raise DomainError("spec and algebra parameters disagree on epsilon")
    return ell_from_epsilon(spec.epsilon)


def _fields(spec: CsSpec, params: AlgebraParams, x):
    """(even, odd, rho) on the half-line points x: psi's parity parts and
    the closed-form density, two formulas over one evaluation of the Bessel
    terms exp(-|Re w|) Lambda_k(w), k = nu, eps, at w = sqrt(2y) x u.

    u = (xi/|xi|) sqrt(1-|zeta|^2) / ((1-zeta) l), xi -> 0 taken along the
    positive real axis.
    """
    ell = _spec_ell(spec, params)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise DomainError("coordinate representation lives on x >= 0")
    zeta, xi, eps = spec.zeta, spec.xi, spec.epsilon
    l = params.length_scale
    nu = eps - 1.0
    one = squeeze_gap(zeta)
    q = one / abs(1.0 - zeta) ** 2
    y = abs(xi) ** 2 / one
    u = (xi / abs(xi) if xi else 1.0) * math.sqrt(one) / ((1.0 - zeta) * l)
    w = math.sqrt(2.0 * y) * x * u
    lam_nu, lam_eps = ratio_array(nu, w), ratio_array(eps, w)
    growth = np.abs(w.real)
    log_norm, log_gamma = log_pair(eps, y), math.lgamma(eps)
    log_const = (-0.5 * (log_norm + log_gamma)
                 - (1.0 - np.conj(zeta)) * xi * xi / (2.0 * (1.0 - zeta) * one)
                 + 1j * spec.theta)
    # the Bessel ratios carry exp(-|Re w|): the growth joins the Gaussian
    root = (math.sqrt(one) / ((1.0 - zeta) * l) * u ** nu * x ** (2 * ell)
            * np.exp(log_const
                     - (1.0 + zeta) / (1.0 - zeta) * x ** 2 / (2.0 * l * l)
                     + growth))
    even = root * lam_nu
    odd = root * w / (2.0 * eps) * lam_eps
    bsum = lam_nu + w / (2.0 * eps) * lam_eps
    shift = (((1.0 - np.conj(zeta)) / (1.0 - zeta)) * xi * xi).real / one
    rho = ((q / (l * l)) ** (nu + 1.0) * x ** (4 * ell) * np.abs(bsum) ** 2
           * np.exp(2.0 * growth - log_norm - log_gamma
                    - q * x ** 2 / (l * l) - shift))
    return even, odd, rho


def wavefunction_parity_parts(spec: CsSpec, params: AlgebraParams, x):
    """(even, odd) parity components of the coherent-state wavefunction.

    The even part carries the order-(2 ell - 1/2) Bessel term, the odd part
    the order-(2 ell + 1/2) one; their sum is the wavefunction on x >= 0 and
    their separate factor-2 half-line masses reproduce the even/odd
    number-state populations (the components are the objects the half-line
    inner product treats as orthogonal).

    With nu = 2 ell - 1/2 and w = sqrt(2y) x u, the power (w/2)^nu of each
    Bessel term splits into u^nu x^nu (positive reals do not move the
    principal argument) and (y/2)^(nu/2), which cancels in the regularized
    normalization; x = 0 and xi = 0 need no limits of their own.  Each term
    is Lambda(w)/Gamma(nu+1), and the odd one has a factor w/(2 eps):
    I_eps(w)/(w/2)^nu = (w/2) Lambda_eps(w)/Gamma(eps+1).
    """
    even, odd, _ = _fields(spec, params, x)
    return even, odd


def cs_wavefunction(spec: CsSpec, params: AlgebraParams, x):
    """Coherent-state wavefunction at x >= 0 (scalar or grid); at x = 0 it
    is zero for ell >= 1 and finite for ell = 0."""
    even, odd = wavefunction_parity_parts(spec, params, x)
    out = even + odd
    return out if np.ndim(x) else complex(out[0])


def cs_wavefunction_gaussian(spec: CsSpec, params: AlgebraParams, x):
    """Closed squeezed-Gaussian form of the ell = 0 wavefunction.

    Its phase is theta/2 (theta already holds -int delta dt along a
    trajectory, see states.cs_spec_from_params); the ambiguous grouping in the
    published phase integrand is read as Re(alpha zeta*) - beta, which this
    combination realizes.  Relative to the Bessel form the two principal-
    branch evaluations differ by the constant exp(i (theta - arg xi)/2); they
    coincide whenever theta tracks the displacement argument (automatic along
    a trajectory anchored at positive real displacement with delta = 0, and
    in particular at theta = arg(xi) = 0).
    """
    if _spec_ell(spec, params) != 0:
        raise DomainError("the Gaussian closed form exists only for ell = 0")
    zeta, xi = spec.zeta, spec.xi
    l = params.length_scale
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    one = squeeze_gap(zeta)
    rho_phase = 0.5 * spec.theta
    pref = one ** 0.25 / np.sqrt(math.sqrt(math.pi) * l * (1.0 - zeta))
    shift = x_arr - math.sqrt(2.0) * l * xi / (1.0 + zeta)
    out = pref * np.exp(
        -(1.0 + zeta) / (1.0 - zeta) * shift ** 2 / (2.0 * l * l)
        + (1.0 + np.conj(zeta)) / (1.0 + zeta) * xi * xi / (2.0 * one)
        - abs(xi) ** 2 / (2.0 * one)
        + 1j * rho_phase)
    return out if np.ndim(x) else complex(out[0])


def density_closed_form(spec: CsSpec, params: AlgebraParams, x) -> np.ndarray:
    """Probability density evaluated by its own closed form (not |psi|^2):

        rho = (q/l^2)^(2 ell + 1/2) x^(4 ell)
              |Lambda_nu(w) + w/(2 eps) Lambda_eps(w)|^2
              exp(2 |Re w| - L - ln Gamma(eps) - q x^2/l^2 - shift),

    q = (1-|zeta|^2)/|1-zeta|^2, exp(-|Re w|) Lambda_k(w) from
    ``bessel.ratio_array`` (the evaluator psi uses too), L = ``log_pair``
    the normalization's Bessel pair at y and |u|^(2 nu) = (q/l^2)^nu."""
    rho = _fields(spec, params, x)[2]
    return rho if np.ndim(x) else float(rho[0])


@dataclass(frozen=True)
class WavefunctionGrid:
    """Density emission bundle, checked on construction.

    ``rho_values`` is the closed-form density (equal to |psi|^2 to the
    two-route tolerance).  ``parity_norm``, the factor-2 half-line integral
    of |even|^2 + |odd|^2, carries the state norm and must equal 1;
    ``integral``, the same integral of |even + odd|^2 on the same nodes,
    adds twice the real even-odd interference on the half-line, which
    vanishes pointwise for a real squeeze with purely imaginary or zero
    displacement (the family of the emitted figures)."""

    x_values: np.ndarray = field(repr=False)
    psi_values: np.ndarray = field(repr=False)
    rho_values: np.ndarray = field(repr=False)
    two_route_residual: float
    integral: float
    parity_norm: float


def _extent(spec: CsSpec, ell: int) -> float:
    """The state's length in units of l: envelope plus displacement shift."""
    q = squeeze_gap(spec.zeta) / abs(1.0 - spec.zeta) ** 2
    return (math.sqrt((60.0 + 4.0 * ell) / q)
            + math.sqrt(2.0) * abs(spec.xi) / (q * abs(1.0 - spec.zeta)))


def default_grid(params: AlgebraParams, spec: CsSpec,
                 points: int = 2048) -> np.ndarray:
    """Logarithmic-linear emission grid on [1e-3 l, x_max].

    x_max is 10 l for vacuum-scale states and stretches to the state's
    extent when the squeeze widens it or the displacement shifts the peak.
    """
    x_max = max(10.0, _extent(spec, _spec_ell(spec, params)))
    n_log = points // 4
    return params.length_scale * np.concatenate([
        np.geomspace(1e-3, 0.2, n_log, endpoint=False),
        np.linspace(0.2, x_max, points - n_log)])


def _half_line_sums(spec: CsSpec, params: AlgebraParams,
                    ell: int) -> tuple[float, float]:
    """(parity_norm, integral) from the sums h (2 sum_{k>=0} f(k h) - f(0))
    on [0, extent] of f = |even|^2 + |odd|^2 and |even + odd|^2, with h
    halving from a quarter of the envelope width.  The first f is even and
    analytic in x, so its sums converge geometrically (Trefethen & Weideman,
    SIAM Rev. 56, 2014) and settle when two agree.  The second adds the
    odd-in-x interference, whose sums carry the h^2, h^4, ... end terms of
    Euler-Maclaurin at x = 0; it settles on the Romberg diagonal of the
    same halvings."""
    width = abs(1.0 - spec.zeta) / math.sqrt(2.0 * squeeze_gap(spec.zeta))
    extent = _extent(spec, ell)
    intervals = math.ceil(4.0 * extent / width)
    previous, romberg = math.inf, []
    while intervals + 1 <= NORM_NODE_CAP:
        step = params.length_scale * extent / intervals
        even, odd = wavefunction_parity_parts(
            spec, params, step * np.arange(intervals + 1))
        f = np.array([np.abs(even) ** 2 + np.abs(odd) ** 2,
                      np.abs(even + odd) ** 2])
        parity_norm, trapezoid = step * (2.0 * f.sum(axis=1) - f[:, 0])
        row = [float(trapezoid)]
        for j, coarser in enumerate(romberg, start=1):
            row.append(row[-1] + (row[-1] - coarser) / (4 ** j - 1))
        if (abs(parity_norm - previous) <= NORM_SETTLE_TOL
                and abs(row[-1] - romberg[-1]) <= NORM_SETTLE_TOL):
            return float(parity_norm), row[-1]
        previous, romberg, intervals = parity_norm, row, 2 * intervals
    raise QuadratureError(f"half-line sums did not settle to {NORM_SETTLE_TOL}"
                          f" within {NORM_NODE_CAP} trapezoid nodes")


def probability_density(spec: CsSpec, params: AlgebraParams,
                        grid: np.ndarray | None = None) -> WavefunctionGrid:
    """Density on a grid, verified two ways.

    On the grid the closed form and |psi|^2 must agree to 1e-10 relative to
    the peak; the parity-resolved factor-2 half-line norm, summed on nodes
    of its own, must equal 1 to 1e-8, else the construction fails loudly.
    The plain density integral is attached as data; see WavefunctionGrid.
    """
    ell = _spec_ell(spec, params)
    if grid is None:
        grid = default_grid(params, spec)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 16 or not np.all(np.diff(grid) > 0):
        raise DomainError("grid must be an increasing 1-d array, >= 16 points")
    even, odd, rho = _fields(spec, params, grid)
    psi = even + odd
    peak = float(np.max(rho))
    residual = float(np.max(np.abs(rho - np.abs(psi) ** 2))) / peak
    if residual > TWO_ROUTE_TOL:
        raise QuadratureError(
            f"closed-form density and |psi|^2 disagree by {residual:.3e} "
            f"(> {TWO_ROUTE_TOL}) relative to the peak"
        )
    parity_norm, integral = _half_line_sums(spec, params, ell)
    if abs(parity_norm - 1.0) > NORMALIZATION_TOL:
        raise QuadratureError(
            f"parity-resolved half-line norm {parity_norm:.12f} misses 1 by "
            f"more than {NORMALIZATION_TOL}"
        )
    return WavefunctionGrid(x_values=grid, psi_values=psi, rho_values=rho,
                            two_route_residual=residual, integral=integral,
                            parity_norm=parity_norm)


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
