"""Integrals of motion for the quadratic para-Bose Hamiltonian.

The Bogoliubov combination A(t) = f a + g a' + phi is an integral of motion
when the coefficients obey

    df/dt = i (beta f - conj(alpha) g),   dg/dt = i (alpha f - beta g),

with phi constant, so mu = |f|^2 - |g|^2 is conserved and
[A, A'] = mu (1 + nu R).  The squeeze zeta = g/f and displacement xi = z/f
parameters obey the equivalent Riccati/linear system

    dzeta/dt = i conj(alpha) zeta^2 - 2 i beta zeta + i alpha,
    dxi/dt   = i (conj(alpha) zeta - beta) xi.

Both solvers run ``fock.integrate_verified`` (DOP853, certified by a tighter
rerun) with the phase integrals as extra state components, zero at t = 0.
``dt`` only sets the spacing of the returned grid, the only times at which
the trajectories can be read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, IntegrationError
from .fock import AlgebraParams, check_horizon, integrate_verified, \
    ladder_products
from .schedules import CoefficientSchedule
from .states import SQUEEZE_LIMIT, check_squeeze

__all__ = [
    "MotionIntegral",
    "StateParams",
    "StateTrajectory",
    "solve_fg",
    "solve_zeta_xi",
    "apply_A",
]

MU_DRIFT_TOL = 1e-9
DEFAULT_STEPS = 4096


@dataclass(frozen=True)
class StateParams:
    """Snapshot of the state parameters at one instant.

    ``xi_winding`` counts the full turns the displacement argument has
    accumulated since t = 0: the coherent-state prefactor carries a
    non-integer power of xi, so its principal-branch evaluation must be
    rotated by exp(2 pi i (eps - 1) * winding) to stay on the continuous
    Schrodinger solution once arg xi(t) wraps.
    """

    zeta: complex
    xi: complex
    theta_svs: float  # phase of the squeezed-vacuum family
    theta_cs: float   # phase of the coherent family
    xi_winding: int = 0


def _grid_index(times: np.ndarray, t: float) -> int:
    """Index of the grid point within 1e-12 (relative beyond |t| = 1) of t;
    ``DomainError`` when there is none: trajectories are read only where
    they were solved."""
    idx = int(np.searchsorted(times, t))
    for j in (idx - 1, idx):
        if 0 <= j < len(times) and abs(times[j] - t) <= 1e-12 * max(1.0, abs(t)):
            return j
    raise DomainError(f"t={t} is not on the trajectory's output grid")


@dataclass(frozen=True)
class MotionIntegral:
    """Trajectories of the Bogoliubov coefficients on the integration grid."""

    times: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    phi0: complex
    mu: float            # mu at t = 0
    mu_drift: float      # max |mu(t) - mu(0)| / |mu(0)| over the run

    def zeta(self) -> np.ndarray:
        return self.g / self.f

    def at(self, t: float) -> tuple[complex, complex]:
        """(f, g) at the grid time t."""
        j = _grid_index(self.times, t)
        return complex(self.f[j]), complex(self.g[j])


@dataclass(frozen=True)
class StateTrajectory:
    """zeta/xi trajectories plus the accumulated phase integrals.

    ``phase_fg`` is the complex integral of (conj(alpha) zeta - beta) dt, whose
    real part feeds both phases and whose exponential reconstructs f; the
    coherent-family phase is Re(phase_fg) - int(delta), the squeezed-family
    phase is eps * Re(phase_fg) - int(delta).
    """

    times: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(repr=False)
    xi: np.ndarray = field(repr=False)
    phase_fg: np.ndarray = field(repr=False)   # complex J(t)
    delta_integral: np.ndarray = field(repr=False)
    epsilon: float | None = None

    def theta_cs(self) -> np.ndarray:
        return self.phase_fg.real - self.delta_integral

    def theta_svs(self) -> np.ndarray:
        if self.epsilon is None:
            raise ConfigError("theta_svs needs epsilon (set it on solve)")
        return self.epsilon * self.phase_fg.real - self.delta_integral

    def f_reconstructed(self) -> np.ndarray:
        """f(t) = exp(-i int (conj(alpha) zeta - beta) dt), f(0) = 1."""
        return np.exp(-1j * self.phase_fg)

    @cached_property
    def xi_windings(self) -> np.ndarray:
        """Integer turns of arg xi(t) relative to the principal value
        (computed once per trajectory)."""
        angles = np.angle(self.xi)
        return np.round((np.unwrap(angles) - angles) / (2.0 * math.pi)).astype(int)

    def at(self, t: float) -> StateParams:
        """State parameters at the grid time t."""
        j = _grid_index(self.times, t)
        phase, dint = float(self.phase_fg[j].real), float(self.delta_integral[j])
        theta_svs = (math.nan if self.epsilon is None
                     else self.epsilon * phase - dint)
        return StateParams(zeta=complex(self.zeta[j]), xi=complex(self.xi[j]),
                           theta_svs=theta_svs, theta_cs=phase - dint,
                           xi_winding=int(self.xi_windings[j]))


def _output_grid(t_final: float, dt: float | None) -> np.ndarray:
    """Equally spaced times from 0 to t_final, at most dt apart (up to
    round-off in t_final / dt), inside ``check_horizon``."""
    check_horizon(t_final, dt)
    # a quotient within 1e-9 (relative) above an integer counts that integer
    n = (DEFAULT_STEPS if dt is None
         else max(1, math.ceil(t_final / dt * (1.0 - 1e-9))))
    return np.linspace(0.0, t_final, n + 1)


def solve_fg(
    schedule: CoefficientSchedule,
    f0: complex,
    g0: complex,
    phi0: complex = 0.0,
    t_final: float = 2.0 * math.pi,
    dt: float | None = None,
) -> MotionIntegral:
    """Integrate the Bogoliubov coefficient ODEs and certify mu conservation."""
    f0, g0, phi0 = complex(f0), complex(g0), complex(phi0)
    mu0 = abs(f0) ** 2 - abs(g0) ** 2
    if abs(abs(f0) - abs(g0)) == 0.0:
        raise DomainError("|f0| = |g0| makes the inverse Bogoliubov map singular")
    times = _output_grid(t_final, dt)

    # unpacked to Python complex, whose arithmetic costs a fraction of
    # numpy scalars' (same roundings)
    def deriv(alpha, beta, delta, y):
        f, g = y.tolist()
        return np.array([1j * (beta * f - alpha.conjugate() * g),
                         1j * (alpha * f - beta * g)])

    def guard(times, y):
        af, ag = np.abs(y[:, 0]), np.abs(y[:, 1])
        crossed = np.abs(af - ag) < 1e-14 * np.maximum(af, 1.0)
        if crossed.any():
            raise IntegrationError(f"|f| = |g| crossing at t={times[crossed][0]}")
        return y

    traj = integrate_verified(deriv, [f0, g0], schedule, times, guard)
    f, g = traj[:, 0], traj[:, 1]
    mu_t = np.abs(f) ** 2 - np.abs(g) ** 2
    drift = float(np.max(np.abs(mu_t - mu0))) / abs(mu0)
    if drift > MU_DRIFT_TOL:
        raise IntegrationError(
            f"mu drift {drift:.3e} exceeds {MU_DRIFT_TOL}"
        )
    return MotionIntegral(times=times, f=f, g=g, phi0=phi0, mu=mu0, mu_drift=drift)


def solve_zeta_xi(
    schedule: CoefficientSchedule,
    zeta0: complex,
    xi0: complex,
    t_final: float = 2.0 * math.pi,
    dt: float | None = None,
    epsilon: float | None = None,
) -> StateTrajectory:
    """Integrate the squeeze/displacement ODEs with phase accumulation.

    The ODE state is (zeta, xi, J, int delta), J being the complex integral
    of (conj(alpha) zeta - beta) dt.  Errors out if |zeta| reaches 1 - 1e-6
    on the output grid (series convergence lost).
    """
    zeta0, xi0 = complex(zeta0), complex(xi0)
    check_squeeze(zeta0)
    times = _output_grid(t_final, dt)

    def deriv(alpha, beta, delta, y):
        zeta, xi = y[:2].tolist()
        ac = alpha.conjugate()
        dzeta = 1j * ac * zeta * zeta - 2j * beta * zeta + 1j * alpha
        dxi = 1j * (ac * zeta - beta) * xi
        return np.array([dzeta, dxi, ac * zeta - beta, delta])

    def guard(times, y):
        blown = np.abs(y[:, 0]) >= SQUEEZE_LIMIT
        if blown.any():
            raise IntegrationError(f"squeeze blow-up: |zeta| -> 1 at t={times[blown][0]}")
        return y

    traj = integrate_verified(deriv, [zeta0, xi0, 0, 0], schedule, times, guard)
    return StateTrajectory(
        times=times,
        zeta=traj[:, 0],
        xi=traj[:, 1],
        phase_fg=traj[:, 2],
        delta_integral=traj[:, 3].real.copy(),
        epsilon=epsilon,
    )


def apply_A(mi: MotionIntegral, t: float, params: AlgebraParams,
            psi: np.ndarray) -> np.ndarray:
    """A(t) psi = f(t) a psi + g(t) a' psi + phi0 psi at truncation len(psi),
    the ladders applied as ``fock.ladder_products``."""
    f, g = mi.at(t)
    a_psi, ad_psi = ladder_products(params, psi)
    return f * a_psi + g * ad_psi + mi.phi0 * psi
