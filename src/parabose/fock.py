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
closed-form state is checked.  It steps scipy's ``DOP853`` solver itself,
keeps the dense output of each step that covers an output time, and
evaluates every output time of a smooth piece from those interpolants in one
numpy pass, on the same doubles as scipy's per-step evaluation.

The oracle works in the interaction picture of the diagonal of H: with
d = diag(a'a + a a')/2, B = int beta dt and Delta = int delta dt it
integrates phi_n = exp(i (B d_n + Delta)) psi_n, carrying B and Delta as
more components of the solver state.  The diagonal and delta are exact in
this frame, so the solver resolves only the alpha couplings (an alpha = 0
run leaves phi constant), and every schedule takes the one path.  B is
carried as beta(0) t, whose constant derivative every step integrates
exactly, plus int (beta - beta(0)) dt, which stays small for a periodic
beta: the solver's relative tolerance on a growing B would let the phase
B d_n drift far more than on psi itself.  Both runs are certified on the
lab-frame psi.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, IntegrationError, TruncationError
from .schedules import CoefficientSchedule

__all__ = [
    "AlgebraParams",
    "check_epsilon",
    "check_horizon",
    "FockVector",
    "build_ladder",
    "ladder_products",
    "build_hamiltonian",
    "evolve_trajectory",
    "integrate_verified",
]

NORM_TOL = 1e-8
TAIL_WIDTH = 8
TAIL_TOL = 1e-12        # initial-state tail mass bound
LEAK_TOL = 1e-10        # final-state tail mass bound
STEP_HALVING_TOL = 1e-8  # bound on the certifying rerun's disagreement
SOLVER_RTOL = 1e-11
SOLVER_ATOL = 1e-13     # error floor for components far below 1, e.g. Fock tails
LEVEL_TOL = 1e-12       # |eps - (2 ell + 1/2)| below which eps is on level ell
# derivative calls of one certified integration, both runs: about 4x the
# longest runs that still certify (~1e7 calls), so only a horizon that
# would step for a quarter of an hour or more is refused
DERIV_CALL_BUDGET = 50_000_000


def check_epsilon(epsilon: float) -> None:
    """The ground level of every algebra and state: finite eps >= 1/2."""
    if not (math.isfinite(epsilon) and epsilon >= 0.5):
        raise DomainError(f"epsilon must be >= 1/2, got {epsilon!r}")


def check_horizon(t_final: float, dt: float | None = None) -> None:
    """Every trajectory's time domain: 0 < t_final < inf, dt > 0 if given."""
    if not 0.0 < t_final < math.inf:
        raise ConfigError(f"t_final must be positive and finite, got {t_final!r}")
    if dt is not None and not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt!r}")


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
        if not 0 < self.length_scale < math.inf:
            raise DomainError(f"length_scale must be positive and finite, got {self.length_scale!r}")
        if not 0 < self.hbar < math.inf:
            raise DomainError(f"hbar must be positive and finite, got {self.hbar!r}")

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


def ladder_products(params: AlgebraParams, psi: np.ndarray):
    """(a psi, a_dagger psi) at truncation len(psi) as banded shifts by the
    ladder diagonal: the products with ``build_ladder``'s matrices, without
    forming them."""
    s = _ladder_diagonal(params, len(psi))
    a_psi = np.zeros(len(psi), dtype=complex)
    ad_psi = np.zeros(len(psi), dtype=complex)
    a_psi[:-1] = s * psi[1:]
    ad_psi[1:] = s * psi[:-1]
    return a_psi, ad_psi


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


def _dense_values(steps, counts, t: np.ndarray) -> np.ndarray:
    """The states at the times ``t``, the first counts[0] from the DOP853
    interpolant steps[0], the next counts[1] from steps[1], and so on: the
    evaluation of ``Dop853DenseOutput`` element by element, so its doubles."""
    at = np.repeat(np.arange(len(steps)), counts)
    x = ((t - np.array([s.t_old for s in steps])[at])
         / np.array([s.h for s in steps])[at])
    # cast once, as numpy casts a real factor for each complex product
    turns = (x.astype(complex), (1 - x).astype(complex))
    # components by times, so that numpy loops run along the times, and each
    # coefficient taken into one reused buffer, which spares page faults
    # ("clip" skips the buffered bounds check; ``at`` is in range)
    coeffs = np.array([s.F for s in steps]).transpose(1, 2, 0).copy()
    y = np.zeros((coeffs.shape[1], len(at)), dtype=coeffs.dtype)
    f = np.empty_like(y)
    for k, c in enumerate(coeffs[::-1]):
        np.take(c, at, axis=1, out=f, mode="clip")
        y += f
        y *= turns[k % 2]
    np.take(np.array([s.y_old for s in steps]).T, at, axis=1, out=f, mode="clip")
    y += f
    # rows by time in C order, as the guards' reductions met them before
    return y.T.copy()


def integrate_verified(deriv, y0, schedule: CoefficientSchedule,
                       times: np.ndarray, guard) -> np.ndarray:
    """Integrate y' = deriv(alpha, beta, delta, y), y0 a complex 1-d array,
    with DOP853 and a certifying rerun at 100x tighter tolerances.

    Every time the solver evaluates passes ``check_positive_definite``
    (beta > |alpha| and a finite delta); the solver restarts at each schedule
    knot.  ``guard(times, states)`` checks each run's states on the
    increasing grid ``times`` and returns the array the run is certified on:
    the states, or the caller's output variables computed from them.  Raises
    ``IntegrationError`` when a run fails or the two outputs differ by more
    than ``STEP_HALVING_TOL`` (a NaN disagreement included); returns the
    tighter run's output.

    Each smooth piece is one loop over ``DOP853.step``.  Only a step that
    covers output times (up to and on its end) builds its dense output, three
    more derivative calls; after the loop ``_dense_values`` evaluates every
    output time of the piece at once from the kept interpolants' ``t_old``,
    ``h``, ``y_old`` and ``F``, attributes outside scipy's documented API.
    The piece's end state is its last interpolant's value at its end.
    """
    # imported here so that importing the package does not load scipy.integrate
    from scipy.integrate import DOP853

    calls = 0

    def rhs(t, y):
        nonlocal calls
        calls += 1
        if calls > DERIV_CALL_BUDGET:
            raise IntegrationError(
                f"derivative-call budget {DERIV_CALL_BUDGET} spent by t={t:.6g}; "
                f"shorten the horizon")
        alpha, beta, delta = schedule.coefficients(t)
        if not (beta > abs(alpha) and abs(delta) < math.inf):
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
            t_out = piece.tolist()
            if not t_out or t_out[-1] != end:
                t_out.append(end)
            solver = DOP853(rhs, float(start), y, float(end), rtol=rtol,
                            atol=SOLVER_ATOL / tighten)
            kept, counts, i = [], [], 0
            while solver.status == "running":
                message = solver.step()
                if solver.status == "failed":
                    raise IntegrationError(f"DOP853 at rtol {rtol:g} failed: {message}")
                # scipy's t_eval rule: the times up to and on the step's end
                j = bisect.bisect_right(t_out, solver.t, i)
                if j > i:
                    kept.append(solver.dense_output())
                    counts.append(j - i)
                    i = j
            out = _dense_values(kept, counts, np.array(t_out))
            y = out[-1]
            states.append(out[:piece.size])
        runs.append(guard(times, np.concatenate(states)))
    disagreement = float(np.max(np.abs(runs[0] - runs[1])))
    if not disagreement <= STEP_HALVING_TOL:
        raise IntegrationError(f"rerun at rtol {SOLVER_RTOL / 100:g} disagrees by "
                               f"{disagreement:.3e} (> {STEP_HALVING_TOL})")
    return runs[1]


def _number_diagonal(params: AlgebraParams, truncation: int) -> np.ndarray:
    """d_n = <n|(a'a + a a')|n> / 2, the last entry without its a a' term as
    in the truncated ``build_hamiltonian``."""
    s2 = _ladder_diagonal(params, truncation) ** 2
    return 0.5 * (np.append(s2, 0.0) + np.append(0.0, s2))


def _schrodinger_deriv(params: AlgebraParams, truncation: int, beta0: float):
    """Derivative of y = (phi, C, b, Delta) for ``integrate_verified``, where
    psi_n = exp(-i (B d_n + Delta)) phi_n with B = C + b, C' = beta0,
    b' = beta - beta0 and Delta' = delta.

    In this frame the diagonal of H and delta are exact and only the two
    alpha bands of -i H / hbar remain (H couples n to n +- 2), each turned by
    exp(-+i B (d_{n+2} - d_n)); no matrix is formed.  Below the truncation
    edge d_n = n + eps, so the gap is 2 and the turn one scalar exp(-2iB);
    only the last band entry, whose d_{N-1} lacks its a a' term, has a turn
    of its own.
    """
    n = truncation
    s = _ladder_diagonal(params, n)
    band = 0.5 * s[:-1] * s[1:]                     # <n|a^2|n+2> / 2
    d = _number_diagonal(params, n)
    edge_gap = d[-1] - d[-3]

    def deriv(alpha, beta, delta, y):
        phi = y[:n]
        b = (y[n] + y[n + 1]).real
        turned = band * cmath.exp(-2j * b)
        turned[-1] = band[-1] * cmath.exp(-1j * b * edge_gap)
        out = np.zeros_like(y)
        out[:n - 2] = -1j * alpha.conjugate() * (turned * phi[2:])
        out[2:n] += -1j * alpha * (turned.conjugate() * phi[:-2])
        out[n:] = beta0, beta - beta0, delta
        return out

    return deriv


def _check_initial(psi0: FockVector):
    if not psi0.is_normalized():
        raise DomainError(
            f"initial state norm^2 = {psi0.norm_sq():.12f} is not 1 within {NORM_TOL}"
        )
    tail = psi0.tail_mass()
    if not tail < TAIL_TOL:
        raise TruncationError(
            f"initial tail mass {tail:.3e} >= {TAIL_TOL}; enlarge the truncation"
        )


def _check_final(psi: np.ndarray):
    tail = FockVector(psi).tail_mass()
    if not tail < LEAK_TOL:
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

    Runs ``integrate_verified`` in the frame of ``_schrodinger_deriv`` and
    certifies and returns lab-frame states; the solver chooses its own steps,
    so ``dt`` is only checked to be positive.  Returns (times, states) with
    states of shape (n_samples+1, truncation).
    """
    check_horizon(t_final, dt)
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    _check_initial(psi0)
    times = np.linspace(0.0, t_final, n_samples + 1)
    n = psi0.truncation
    deriv = _schrodinger_deriv(params, n, schedule.coefficients(0.0)[1])
    d = _number_diagonal(params, n)

    def guard(times, frame):
        # both runs are certified on lab-frame psi: an error in B moves
        # psi_n by d_n times as much
        c, b, delta = frame[:, n:].real.T
        states = frame[:, :n] * np.exp(-1j * (np.outer(c + b, d) + delta[:, None]))
        drift = np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)
        j = int(np.argmax(drift))
        if not drift[j] <= NORM_TOL:
            raise IntegrationError(
                f"norm drift {drift[j]:.3e} exceeds {NORM_TOL} at t={times[j]}")
        return states

    states = integrate_verified(deriv, np.append(psi0.amplitudes, [0.0, 0.0, 0.0]),
                                schedule, times, guard)
    _check_final(states[-1])
    return times, states
