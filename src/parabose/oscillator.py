"""The time-independent oscillator: every closed form in one place.

A constant schedule alpha = delta = 0, beta = omega0 freezes the dynamics
into elementary exponentials,

    zeta(t) = zeta0 exp(-2 i omega0 t),   xi(t) = xi0 exp(-i omega0 t),
    theta_svs = -eps omega0 t,            theta_cs = -omega0 t,

so the module only rotates parameters and defers every amplitude to the
state constructors.  Mean position and momentum oscillate harmonically with
mass m0 = hbar/(l^2 omega0); the uncertainty product oscillates at twice the
frequency and is minimal whenever sin(theta_zeta - 2 omega0 t) = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import StateParams
from .errors import DomainError
from .fock import AlgebraParams, FockVector
from .observables import uncertainty_products
from .states import check_squeeze, cs_amplitudes, cs_spec_from_params, \
    cs_transition, mean_reflection, squeeze_gap

__all__ = [
    "OscillatorConfig",
    "UncertaintySnapshot",
    "AsymptoticUncertainty",
    "closed_form_parameters",
    "cs_state",
    "mean_trajectories",
    "uncertainty_trajectory",
    "calibrate_l",
    "stationary_transition",
    "asymptotic_uncertainties",
]


@dataclass(frozen=True)
class OscillatorConfig:
    omega0: float
    ell: int
    zeta0: complex
    xi0: complex
    l: float = 1.0
    hbar: float = 1.0
    # the level's AlgebraParams, built once, as the fields are checked
    _params: AlgebraParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.omega0 < math.inf:
            raise DomainError(f"omega0 must be positive and finite, got {self.omega0!r}")
        if not cmath.isfinite(self.xi0):
            raise DomainError(f"xi0 must be finite, got {self.xi0!r}")
        object.__setattr__(self, "_params", AlgebraParams.from_ell(
            self.ell, length_scale=self.l, hbar=self.hbar))
        check_squeeze(self.zeta0)

    @property
    def epsilon(self) -> float:
        return self._params.epsilon

    @property
    def mass(self) -> float:
        """m0 = hbar / (l^2 omega0)."""
        return self.hbar / (self.l**2 * self.omega0)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega0

    def algebra_params(self) -> AlgebraParams:
        return self._params

    def mean_r(self) -> float:
        """Parity mean, constant along the trajectory."""
        return mean_reflection(self.zeta0, self.xi0, self.epsilon)


def closed_form_parameters(cfg: OscillatorConfig, t: float) -> StateParams:
    """Exact parameter point at finite time t (f0 = 1 convention, so z = xi0).

    The winding field counts the turns of arg xi(t) = arg xi0 - w0 t past
    the principal sheet, which the coherent-state constructor needs to stay
    on the continuous solution (see states.cs_spec_from_params).
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    w = cfg.omega0 * t
    xi = complex(cfg.xi0) * cmath.exp(-1j * w)
    winding = 0
    if xi != 0.0:
        continuous = cmath.phase(complex(cfg.xi0)) - w
        winding = int(round((continuous - cmath.phase(xi)) / (2.0 * math.pi)))
    return StateParams(
        zeta=complex(cfg.zeta0) * cmath.exp(-2j * w),
        xi=xi,
        theta_svs=-cfg.epsilon * w,
        theta_cs=-w,
        xi_winding=winding,
    )


def cs_state(cfg: OscillatorConfig, t: float,
             truncation: int | None = None) -> FockVector:
    """Analytic coherent state at time t; amplitudes always come from the
    state constructor, never from a second derivation."""
    p = closed_form_parameters(cfg, t)
    return cs_amplitudes(cs_spec_from_params(p, cfg.epsilon), truncation)


def _initial_means(cfg: OscillatorConfig) -> tuple[float, float]:
    z_abs, z_arg = abs(cfg.zeta0), cmath.phase(complex(cfg.zeta0))
    x_abs, x_arg = abs(cfg.xi0), cmath.phase(complex(cfg.xi0))
    one = squeeze_gap(cfg.zeta0)
    x0 = (math.sqrt(2.0) * cfg.l * x_abs
          * (math.cos(x_arg) - z_abs * math.cos(x_arg - z_arg)) / one)
    p0 = (math.sqrt(2.0) * cfg.l * cfg.mass * cfg.omega0 * x_abs
          * (math.sin(x_arg) + z_abs * math.sin(x_arg - z_arg)) / one)
    return x0, p0


def mean_trajectories(cfg: OscillatorConfig, t) -> tuple[np.ndarray, np.ndarray]:
    """(mean x, mean P) at time t (scalar or array): harmonic rotation of the
    initial means."""
    x0, p0 = _initial_means(cfg)
    wt = cfg.omega0 * np.asarray(t, dtype=float)
    m_om = cfg.mass * cfg.omega0
    x_t = x0 * np.cos(wt) + (p0 / m_om) * np.sin(wt)
    p_t = p0 * np.cos(wt) - m_om * x0 * np.sin(wt)
    if np.ndim(t):
        return x_t, p_t
    return float(x_t), float(p_t)


@dataclass(frozen=True)
class UncertaintySnapshot:
    heisenberg: float
    schrodinger_robertson: float
    minima_times: tuple[float, ...]


def uncertainty_trajectory(cfg: OscillatorConfig, t: float) -> UncertaintySnapshot:
    """Uncertainty products at time t (``observables.uncertainty_products``
    at zeta(t) with the constant parity mean), plus every minimum instant
    inside [0, t] (inside one period if t <= 0): the Heisenberg product is
    minimal where Im zeta(t) = 0, i.e. sin(th_z - 2 w0 t) = 0.
    """
    heis, sr = uncertainty_products(closed_form_parameters(cfg, t).zeta,
                                    cfg.mean_r(), cfg.algebra_params())
    z_arg = cmath.phase(complex(cfg.zeta0))
    w = t if t > 0 else cfg.period
    # t_k = (theta_zeta - k pi) / (2 omega0) inside [0, w]
    k_hi = math.floor(z_arg / math.pi)
    k_lo = math.ceil((z_arg - 2.0 * cfg.omega0 * w) / math.pi)
    minima = tuple(
        (z_arg - k * math.pi) / (2.0 * cfg.omega0)
        for k in range(k_lo, k_hi + 1)
    )
    return UncertaintySnapshot(heisenberg=heis, schrodinger_robertson=sr,
                               minima_times=tuple(sorted(minima)))


def calibrate_l(sigma_x0: float, zeta0: float, xi0: complex, ell: int) -> float:
    """Length scale from the initial position deviation,

        l = sigma_x0 sqrt( (1+zeta0)/(1-zeta0) * 2/(1 + 4 ell R) ),

    valid for real squeeze zeta0 (the stated assumption of the closed form).
    """
    if not 0 < sigma_x0 < math.inf:
        raise DomainError(f"sigma_x0 must be positive and finite, got {sigma_x0!r}")
    z = complex(zeta0)
    if not abs(z.imag) <= 1e-12:  # NaN fails
        raise DomainError("calibrate_l assumes a real squeeze parameter")
    z0 = z.real
    check_squeeze(z0)
    params = AlgebraParams.from_ell(ell)
    r_bar = mean_reflection(z0, xi0, params.epsilon)
    return sigma_x0 * math.sqrt(
        (1.0 + z0) / (1.0 - z0) * 2.0 / (1.0 + params.nu * r_bar)
    )


def stationary_transition(cfg: OscillatorConfig, n: int) -> float:
    """Number-state distribution of the evolved coherent state.

    Time-independent: |zeta(t)|, |xi(t)| and xi^2/zeta are all constants of
    the motion, so the value at the initial parameters is the value forever.
    """
    return cs_transition(cfg.zeta0, cfg.xi0, cfg.epsilon, n)


@dataclass(frozen=True)
class AsymptoticUncertainty:
    heisenberg: float
    schrodinger_robertson: float
    mean_r: float


def asymptotic_uncertainties(
    cfg: OscillatorConfig,
    regime: str,
    small_xi_max: float = 0.1,
    large_y_min: float = 20.0,
) -> AsymptoticUncertainty:
    """Small- or large-argument closed forms for the uncertainty products
    at t = 0.

    small:  R ~ ((4l+1)(1-|z0|^2) - |xi0|^2) / ((4l+1)(1-|z0|^2) + |xi0|^2)
    large:  R ~ l (1-|z0|^2) / (|xi0|^2 - 2 l^2 (1-|z0|^2))

    Regime gates: |xi0| <= small_xi_max with |zeta0| <= 0.9, or
    y = |xi0|^2/(1-|zeta0|^2) >= large_y_min; the two thresholds default to
    desk-scale values and may be overridden by the caller.
    """
    one = squeeze_gap(cfg.zeta0)
    x_abs = abs(cfg.xi0)
    if regime == "small":
        if x_abs > small_xi_max or abs(cfg.zeta0) > 0.9:
            raise DomainError(
                f"small-argument regime needs |xi0| <= {small_xi_max} and "
                "|zeta0| <= 0.9"
            )
        d = (4 * cfg.ell + 1) * one
        r_bar = (d - x_abs**2) / (d + x_abs**2)
    elif regime == "large":
        y = x_abs**2 / one
        if y < large_y_min:
            raise DomainError(
                f"large-argument regime needs y = |xi0|^2/(1-|zeta0|^2) >= "
                f"{large_y_min}, got {y}"
            )
        r_bar = cfg.ell * one / (x_abs**2 - 2.0 * cfg.ell**2 * one)
    else:
        raise DomainError(f"regime must be 'small' or 'large', got {regime!r}")
    heis, sr = uncertainty_products(cfg.zeta0, r_bar, cfg.algebra_params())
    return AsymptoticUncertainty(heisenberg=heis, schrodinger_robertson=sr,
                                 mean_r=r_bar)
