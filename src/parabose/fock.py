"""Truncated para-Bose number basis and the brute-force evolution oracle.

The deformed ladder operators act on number states |n> as

    a |2n>   = sqrt(2n) |2n-1>         a |2n+1>   = sqrt(2(n+eps)) |2n>
    a'|2n>   = sqrt(2(n+eps)) |2n+1>   a'|2n+1>   = sqrt(2(n+1)) |2n+2>

with reflection R = diag((-1)^n), so that [a, a'] = 1 + nu R with
nu = 2 eps - 1.  On an N-dimensional truncation the algebra necessarily
fails on the last rows; invariant checks exclude the truncation boundary.

``evolve_trajectory`` integrates i d/dt psi = (1/hbar) H(t) psi with
``integrate_verified``: scipy's adaptive Dormand-Prince 8(5,3) (DOP853)
certified by a rerun at a 100x tighter tolerance, the routine the parameter
ODEs in ``dynamics`` share.  It is the independent oracle against which every
closed-form state is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, IntegrationError, TruncationError
from .schedules import CoefficientSchedule

__all__ = [
    "AlgebraParams",
    "check_epsilon",
    "FockVector",
    "build_ladder",
    "build_hamiltonian",
    "evolve_trajectory",
    "integrate_verified",
    "vacuum_state",
]

NORM_TOL = 1e-8
TAIL_WIDTH = 8
TAIL_TOL = 1e-12        # initial-state tail mass bound
LEAK_TOL = 1e-10        # final-state tail mass bound
STEP_HALVING_TOL = 1e-8  # bound on the certifying rerun's disagreement
SOLVER_RTOL = 1e-11
SOLVER_ATOL = 1e-13     # error floor for components far below 1, e.g. Fock tails
LEVEL_TOL = 1e-12       # |eps - (2 ell + 1/2)| below which eps is on level ell


def check_epsilon(epsilon: float) -> None:
    """The ground level of every algebra and state: finite eps >= 1/2."""
    if not (math.isfinite(epsilon) and epsilon >= 0.5):
        raise DomainError(f"epsilon must be >= 1/2, got {epsilon!r}")


@dataclass(frozen=True)
class AlgebraParams:
    """Deformation data: ground level eps >= 1/2, length scale l and hbar
    (both default 1).  An even vacuum quantizes the level, eps = 2 ell + 1/2;
    ``ell`` reads that integer back, or None off the lattice."""

    epsilon: float
    length_scale: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        check_epsilon(self.epsilon)
        if not self.length_scale > 0:
            raise DomainError(f"length_scale must be positive, got {self.length_scale!r}")
        if not self.hbar > 0:
            raise DomainError(f"hbar must be positive, got {self.hbar!r}")

    @property
    def nu(self) -> float:
        """Wigner deformation parameter nu = 2 eps - 1."""
        return 2.0 * self.epsilon - 1.0

    @property
    def ell(self) -> int | None:
        """Integer ell with eps = 2 ell + 1/2 to within LEVEL_TOL, else None."""
        half_levels = (self.epsilon - 0.5) / 2.0
        ell = round(half_levels)
        return ell if abs(half_levels - ell) <= LEVEL_TOL else None

    @classmethod
    def from_ell(cls, ell: int, length_scale: float = 1.0, hbar: float = 1.0):
        if isinstance(ell, bool) or not (float(ell).is_integer() and ell >= 0):
            raise DomainError(f"ell must be a nonnegative integer, got {ell!r}")
        return cls(epsilon=2 * int(ell) + 0.5, length_scale=length_scale,
                   hbar=hbar)


@dataclass(frozen=True)
class FockVector:
    """Complex amplitude vector on the truncated number basis."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or len(amps) < 2:
            raise ConfigError("FockVector needs a 1-d amplitude array of length >= 2")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def truncation(self) -> int:
        return len(self.amplitudes)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= NORM_TOL

    def tail_mass(self) -> float:
        return float(np.sum(np.abs(self.amplitudes[-TAIL_WIDTH:]) ** 2))

    def overlap(self, other: "FockVector") -> complex:
        """<self|other>, zero-padded to the larger truncation."""
        n = min(self.truncation, other.truncation)
        val = complex(np.vdot(self.amplitudes[:n], other.amplitudes[:n]))
        return val


def vacuum_state(truncation: int) -> FockVector:
    amps = np.zeros(truncation, dtype=complex)
    amps[0] = 1.0
    return FockVector(amps)


def _ladder_diagonal(params: AlgebraParams, truncation: int) -> np.ndarray:
    # s_k = <k-1| a |k>: sqrt(k) for even k, sqrt(k + nu) for odd k
    k = np.arange(1, truncation, dtype=float)
    s = np.sqrt(np.where(k % 2 == 0, k, k + params.nu))
    return s


def build_ladder(params: AlgebraParams, truncation: int):
    """Dense matrices (a, a_dagger, reflection) at the given truncation."""
    if truncation < 2:
        raise ConfigError(f"truncation must be >= 2, got {truncation}")
    s = _ladder_diagonal(params, truncation)
    a = np.zeros((truncation, truncation), dtype=complex)
    idx = np.arange(truncation - 1)
    a[idx, idx + 1] = s
    a_dagger = a.conj().T.copy()
    reflection = np.diag((-1.0 + 0j) ** np.arange(truncation))
    return a, a_dagger, reflection


def build_hamiltonian(
    params: AlgebraParams,
    alpha: complex,
    beta: float,
    delta: float,
    truncation: int,
) -> np.ndarray:
    """H = (hbar/2)(conj(alpha) a^2 + alpha a'^2) + (hbar beta/2)(a'a + a a')
    + hbar delta, as a dense matrix."""
    a, ad, _ = build_ladder(params, truncation)
    hbar = params.hbar
    a2 = a @ a
    sym = ad @ a + a @ ad
    h = 0.5 * hbar * (np.conj(alpha) * a2 + alpha * a2.conj().T)
    h += 0.5 * hbar * beta * sym
    h += hbar * delta * np.eye(truncation)
    return h


def integrate_verified(deriv, y0, schedule: CoefficientSchedule,
                       times: np.ndarray, guard) -> np.ndarray:
    """Integrate y' = deriv(alpha, beta, delta, y), y0 a complex 1-d array,
    with DOP853 and a certifying rerun at 100x tighter tolerances.

    Every time the solver evaluates passes ``check_positive_definite``; the
    solver restarts at each schedule knot.  ``guard(times, states)`` runs on
    both runs' states on the increasing grid ``times``.  Raises
    ``IntegrationError`` when a run fails or the two differ by more than
    ``STEP_HALVING_TOL``; returns the tighter run, shape (len(times), len(y0)).
    """
    # imported here so that importing the package does not load scipy.integrate
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        alpha, beta, delta = schedule.coefficients(t)
        if not beta > abs(alpha):
            schedule.check_positive_definite(t)
        return deriv(alpha, beta, delta, y)

    # smooth pieces between knots; an output time on a knot starts a piece
    cuts = [k for k in schedule.knots if times[0] < k < times[-1]]
    edges = [times[0], *cuts, times[-1]]
    pieces = np.split(times, np.searchsorted(times, cuts))
    runs = []
    for tighten in (1, 100):
        rtol = SOLVER_RTOL / tighten
        y, states = np.asarray(y0, dtype=complex), []
        for start, end, piece in zip(edges[:-1], edges[1:], pieces):
            # the piece's end time carries the state into the next piece
            t_eval = piece if piece.size and piece[-1] == end else np.append(piece, end)
            sol = solve_ivp(rhs, (start, end), y, method="DOP853", t_eval=t_eval,
                            rtol=rtol, atol=SOLVER_ATOL / tighten)
            if not sol.success:
                raise IntegrationError(f"DOP853 at rtol {rtol:g} failed: {sol.message}")
            y = sol.y[:, -1]
            states.append(sol.y[:, :piece.size])
        states = np.concatenate(states, axis=1).T.copy()
        guard(times, states)
        runs.append(states)
    disagreement = float(np.max(np.abs(runs[0] - runs[1])))
    if disagreement > STEP_HALVING_TOL:
        raise IntegrationError(f"rerun at rtol {SOLVER_RTOL / 100:g} disagrees by "
                               f"{disagreement:.3e} (> {STEP_HALVING_TOL})")
    return runs[1]


def _schrodinger_deriv(params: AlgebraParams, truncation: int):
    """d/dt psi = -i H psi / hbar for ``integrate_verified``, applied from the
    ladder bands: H couples n only to n and n +- 2, so no matrix is formed."""
    s = _ladder_diagonal(params, truncation)
    band = -0.5j * s[:-1] * s[1:]                   # -i <n|a^2|n+2> / 2
    diag = -0.5j * (np.append(s * s, 0.0) + np.append(0.0, s * s))

    def deriv(alpha, beta, delta, psi):
        out = (beta * diag - 1j * delta) * psi
        out[:-2] += alpha.conjugate() * (band * psi[2:])
        out[2:] += alpha * (band * psi[:-2])
        return out

    return deriv


def _check_initial(psi0: FockVector):
    if not psi0.is_normalized():
        raise DomainError(
            f"initial state norm^2 = {psi0.norm_sq():.12f} is not 1 within {NORM_TOL}"
        )
    tail = psi0.tail_mass()
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"initial tail mass {tail:.3e} >= {TAIL_TOL}; enlarge the truncation"
        )


def _check_final(psi: np.ndarray):
    tail = FockVector(psi).tail_mass()
    if tail >= LEAK_TOL:
        raise TruncationError(
            f"evolution leaked {tail:.3e} probability into the truncation boundary"
        )


def evolve_trajectory(
    psi0: FockVector,
    schedule: CoefficientSchedule,
    t_final: float,
    dt: float,
    params: AlgebraParams,
    n_samples: int = 32,
):
    """Integrate the Schrodinger equation from t=0 to t_final and record
    ``n_samples + 1`` equally spaced states (incl. both endpoints).

    Runs ``integrate_verified``, which chooses its own steps: ``dt`` is only
    checked to be positive.  Returns (times, states) with states of shape
    (n_samples+1, truncation).
    """
    if t_final <= 0:
        raise ConfigError("t_final must be positive")
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    _check_initial(psi0)
    times = np.linspace(0.0, t_final, n_samples + 1)
    deriv = _schrodinger_deriv(params, psi0.truncation)

    def guard(times, states):
        drift = np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)
        j = int(np.argmax(drift))
        if drift[j] > NORM_TOL:
            raise IntegrationError(
                f"norm drift {drift[j]:.3e} exceeds {NORM_TOL} at t={times[j]}")

    states = integrate_verified(deriv, psi0.amplitudes, schedule, times, guard)
    _check_final(states[-1])
    return times, states
