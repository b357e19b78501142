"""Truncated para-Bose number basis and the brute-force evolution oracle.

The deformed ladder operators act on number states |n> as

    a |2n>   = sqrt(2n) |2n-1>         a |2n+1>   = sqrt(2(n+eps)) |2n>
    a'|2n>   = sqrt(2(n+eps)) |2n+1>   a'|2n+1>   = sqrt(2(n+1)) |2n+2>

with reflection R = diag((-1)^n), so that [a, a'] = 1 + nu R with
nu = 2 eps - 1.  On an N-dimensional truncation the algebra necessarily
fails on the last rows; invariant checks exclude the truncation boundary.

``evolve_trajectory`` integrates i d/dt psi = (1/hbar) H(t) psi with
``integrate_verified``: fixed-step classical Runge-Kutta certified by a
halved-step rerun, the routine the parameter ODEs in ``dynamics`` share.  It
is the independent oracle against which every closed-form state is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, IntegrationError, TruncationError
from .schedules import CoefficientSchedule

__all__ = [
    "AlgebraParams",
    "FockVector",
    "build_ladder",
    "build_hamiltonian",
    "evolve_trajectory",
    "integrate_verified",
    "vacuum_state",
]

NORM_TOL = 1e-8
TAIL_WIDTH = 8
TAIL_TOL = 1e-12
STEP_HALVING_TOL = 1e-8


@dataclass(frozen=True)
class AlgebraParams:
    """Deformation data: ground level eps >= 1/2, optional integer ell with
    eps = 2 ell + 1/2, length scale l and hbar (both default 1)."""

    epsilon: float
    ell: int | None = None
    length_scale: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0.5:
            raise DomainError(f"epsilon must be >= 1/2, got {self.epsilon!r}")
        if self.ell is not None:
            if self.ell != int(self.ell) or self.ell < 0:
                raise DomainError(f"ell must be a nonnegative integer, got {self.ell!r}")
            if self.epsilon != 2 * self.ell + 0.5:
                raise DomainError(
                    f"epsilon={self.epsilon} inconsistent with ell={self.ell} "
                    "(requires epsilon = 2 ell + 1/2)"
                )
        if self.length_scale <= 0:
            raise DomainError("length_scale must be positive")
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")

    @property
    def nu(self) -> float:
        """Wigner deformation parameter nu = 2 eps - 1."""
        return 2.0 * self.epsilon - 1.0

    @classmethod
    def from_ell(cls, ell: int, length_scale: float = 1.0, hbar: float = 1.0):
        return cls(epsilon=2 * int(ell) + 0.5, ell=int(ell),
                   length_scale=length_scale, hbar=hbar)


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

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def tail_mass(self, width: int = TAIL_WIDTH) -> float:
        return float(np.sum(np.abs(self.amplitudes[-width:]) ** 2))

    def overlap(self, other: "FockVector") -> complex:
        """<self|other>, zero-padded to the larger truncation."""
        n = min(self.truncation, other.truncation)
        val = complex(np.vdot(self.amplitudes[:n], other.amplitudes[:n]))
        return val

    def padded(self, truncation: int) -> "FockVector":
        if truncation < self.truncation:
            raise TruncationError("cannot shrink a FockVector")
        out = np.zeros(truncation, dtype=complex)
        out[: self.truncation] = self.amplitudes
        return FockVector(out)


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


def integrate_verified(deriv, y0, schedule: CoefficientSchedule, t_final: float,
                       n_steps: int, guard, stride: int = 1) -> np.ndarray:
    """Fixed-step RK4 over the tuple ``y0``, certified by a halved-step rerun.

    The entries of ``y0`` are complex scalars (the parameter ODEs, where a
    numpy round-trip per stage would dominate the cost) or one ndarray (the
    Fock state).  ``deriv(alpha, beta, delta, y)`` returns the derivative
    tuple; the schedule is sampled, and checked positive definite, once on
    the quarter-step grid that holds every stage of both runs.
    ``guard(t, y)`` runs after every step of both runs.  Raises
    ``IntegrationError`` when the two final states differ by more than
    ``STEP_HALVING_TOL``; otherwise returns the n-step states at every
    ``stride``-th step, shape ``(n_steps // stride + 1,) + np.shape(y0)``.
    """
    nodes = np.linspace(0.0, t_final, 4 * n_steps + 1)
    alpha, beta, delta = schedule.sample(nodes)
    out = np.empty((n_steps // stride + 1,) + np.shape(y0), dtype=complex)
    out[0] = y0
    finals = []
    for n, q in ((n_steps, 4), (2 * n_steps, 2)):
        h = t_final / n
        half, sixth = 0.5 * h, h / 6.0
        y = y0
        # .item() hands the stages Python scalars: numpy scalar arithmetic
        # would cost ten times more in the parameter ODEs
        end = (alpha.item(0), beta.item(0), delta.item(0))
        for i in range(n):
            m, e = q * i + q // 2, q * i + q
            start = end
            mid = (alpha.item(m), beta.item(m), delta.item(m))
            end = (alpha.item(e), beta.item(e), delta.item(e))
            k1 = deriv(*start, y)
            k2 = deriv(*mid, tuple(v + half * d for v, d in zip(y, k1)))
            k3 = deriv(*mid, tuple(v + half * d for v, d in zip(y, k2)))
            k4 = deriv(*end, tuple(v + h * d for v, d in zip(y, k3)))
            y = tuple(v + sixth * (a + 2.0 * b + 2.0 * c + d)
                      for v, a, b, c, d in zip(y, k1, k2, k3, k4))
            guard(nodes.item(e), y)
            if q == 4 and (i + 1) % stride == 0:
                out[(i + 1) // stride] = y
        finals.append(y)
    disagreement = float(np.max(np.abs(np.subtract(*finals))))
    if disagreement > STEP_HALVING_TOL:
        raise IntegrationError(
            f"halved-step rerun disagrees by {disagreement:.3e} "
            f"(> {STEP_HALVING_TOL}); dt too large"
        )
    return out


def _schrodinger_deriv(params: AlgebraParams, truncation: int):
    """d/dt psi = -i H psi / hbar for ``integrate_verified``, applied from the
    ladder bands: H couples n only to n and n +- 2, so no matrix is formed."""
    s = _ladder_diagonal(params, truncation)
    band = -0.5j * s[:-1] * s[1:]                   # -i <n|a^2|n+2> / 2
    diag = -0.5j * (np.append(s * s, 0.0) + np.append(0.0, s * s))

    def deriv(alpha, beta, delta, y):
        psi = y[0]
        out = (beta * diag - 1j * delta) * psi
        out[:-2] += alpha.conjugate() * (band * psi[2:])
        out[2:] += alpha * (band * psi[:-2])
        return (out,)

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
    tail = float(np.sum(np.abs(psi[-TAIL_WIDTH:]) ** 2))
    if tail >= 1e-10:
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

    Fixed-step RK4 whose halved-step rerun must agree to ``STEP_HALVING_TOL``
    in max amplitude difference.  Returns (times, states) with states of
    shape (n_samples+1, truncation).
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    _check_initial(psi0)
    # round the step count up to a multiple of n_samples so samples sit on steps
    n_steps = max(1, int(math.ceil(abs(t_final) / dt)))
    n_steps = int(math.ceil(n_steps / n_samples)) * n_samples
    stride = n_steps // n_samples
    deriv = _schrodinger_deriv(params, psi0.truncation)

    def guard(t, y):
        drift = abs(float(np.vdot(y[0], y[0]).real) - 1.0)
        if drift > NORM_TOL:
            raise IntegrationError(
                f"norm drift {drift:.3e} exceeds {NORM_TOL} at t={t}; "
                "reduce dt or enlarge the truncation"
            )

    states = integrate_verified(deriv, (psi0.amplitudes,), schedule, t_final,
                                n_steps, guard, stride)[:, 0]
    _check_final(states[-1])
    times = np.arange(0, n_steps + 1, stride) * (t_final / n_steps)
    return times, states
