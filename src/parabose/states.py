"""Closed-form squeezed-vacuum and coherent states on the para-Bose basis.

Squeezed-vacuum family (even sector only):

    c_{2n} = (1-|zeta|^2)^(eps/2) e^{i theta} (-zeta)^n
             sqrt(Gamma(n+eps) / (n! Gamma(eps)))

Coherent family (eigenstates of the transformed lowering operator, all
parities):

    c_{2n}   =  pre sqrt(n!) (-zeta)^n L_n^{eps-1}(xi^2/(2 zeta)) / sqrt(Gamma(n+eps))
    c_{2n+1} =  pre (xi/sqrt 2) sqrt(n!) (-zeta)^n L_n^{eps}(xi^2/(2 zeta))
                / sqrt(Gamma(n+eps+1))

with prefactor

    pre = (xi/sqrt 2)^(eps-1)
          sqrt((1-|zeta|^2) / (I_{eps-1}(y) + I_eps(y)))
          exp( conj(zeta) xi^2 / (2 (1-|zeta|^2)) + i theta ),
    y = |xi|^2 / (1-|zeta|^2).

The power (xi/sqrt 2)^(eps-1) cancels against (y/2)^(eps-1) divided out of
the Bessel sum, whose quotient is entire (DLMF 10.25.2), so xi = 0 is an
ordinary input: the odd amplitudes vanish and the even ones are the
squeezed-vacuum series, with arg xi -> 0 taken from the positive real axis.
The combination (-zeta)^n L_n^alpha(xi^2/(2 zeta)) is evaluated through a
rescaled three-term recurrence that is exact for every |zeta| < 1 and reduces
termwise to the zeta -> 0 limit (xi^2/2)^n / n!, so no argument ever diverges.
The transition distribution P_n = |c_n|^2 has the closed parity-split form
implemented in ``cs_transition``; as printed it is algebraically identical to
|c_n|^2 (the exponential in it is exactly |exp(conj(zeta) xi^2 / ...)|^2, and
its inner index labels the parity pair n = 2m or n = 2m+1).  A bounded cache
keeps, per recent state, its n-independent log part and one Laguerre column
per parity, so sweeping n costs one recurrence pass, not one per n.

The overlap of two coherent states at one level sums both parity series by
the Hille-Hardy formula (DLMF §18.18),

    sum_n n!/Gamma(n+alpha+1) conj(M1_n) M2_n
        = (1-t)^(-alpha-1) exp(-(a zeta2 + b conj(zeta1))/(1-t)) R_alpha(z),

where M_n = (-zeta)^n L_n^alpha(xi^2/(2 zeta)) of each state,
t = conj(zeta1) zeta2, a = conj(xi1)^2/2, b = xi2^2/2,
z = conj(xi1) xi2/(1-t) and R_alpha(z) = I_alpha(z)/(z/2)^alpha is entire.  The
even and odd sums then add up to the normalization's Bessel pair
(I_{eps-1}(z) + I_eps(z))/(z/2)^(eps-1) at complex z, which is y at
spec1 = spec2.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ive

from .errors import ConfigError, DomainError, TruncationError
from .fock import FockVector, check_epsilon

__all__ = [
    "SvsSpec",
    "CsSpec",
    "svs_spec_from_params",
    "cs_spec_from_params",
    "svs_amplitudes",
    "svs_transition",
    "svs_overlap",
    "cs_amplitudes",
    "cs_transition",
    "cs_overlap",
    "mean_reflection",
    "check_squeeze",
    "check_index",
]

SVS_TAIL_BOUND = 1e-14
CS_TAIL_BOUND = 1e-16
MAX_PAIRS = 200_000
RENORM_WARN_TOL = 1e-9
SQUEEZE_LIMIT = 1.0 - 1e-6
DISTRIBUTION_CACHE = 8

# Test hook for mutation detection: flips a sign inside the squeezed-vacuum
# transition formula so the verification suite demonstrably fails.
_SABOTAGE_TRANSITION = False


def set_sabotage(enabled: bool) -> None:
    global _SABOTAGE_TRANSITION
    _SABOTAGE_TRANSITION = bool(enabled)


def check_squeeze(zeta: complex) -> None:
    """The squeeze domain of every state and trajectory: |zeta| < SQUEEZE_LIMIT,
    inside which the number-state series converge; NaN fails."""
    if not abs(zeta) < SQUEEZE_LIMIT:
        raise DomainError(f"|zeta| must stay below 1 - 1e-6, got {abs(zeta)}")


def check_index(n) -> int:
    """A number-state index as int: a nonnegative integer (NaN, inf fail)."""
    if not (float(n).is_integer() and n >= 0):
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_state_inputs(zeta: complex, epsilon: float, xi: complex = 0.0):
    check_epsilon(epsilon)
    check_squeeze(zeta)
    if not math.isfinite(abs(xi)):
        raise DomainError(f"xi must be finite, got {xi!r}")


@dataclass(frozen=True)
class SvsSpec:
    """Squeezed-vacuum state data: squeeze zeta, level eps, phase theta."""

    zeta: complex
    epsilon: float
    theta: float = 0.0

    def __post_init__(self):
        _check_state_inputs(self.zeta, self.epsilon)


@dataclass(frozen=True)
class CsSpec:
    """Coherent state data: squeeze zeta, displacement xi, level eps, phase."""

    zeta: complex
    xi: complex
    epsilon: float
    theta: float = 0.0

    def __post_init__(self):
        _check_state_inputs(self.zeta, self.epsilon, self.xi)


def svs_spec_from_params(params, epsilon: float) -> SvsSpec:
    """Squeezed-vacuum spec from a dynamics snapshot (its phase is exact)."""
    return SvsSpec(zeta=params.zeta, epsilon=epsilon, theta=params.theta_svs)


def cs_spec_from_params(params, epsilon: float) -> CsSpec:
    """Coherent spec from a dynamics snapshot, branch corrected.

    Folds the displacement-argument winding into the phase,
    theta = theta_cs + 2 pi (eps - 1) winding, so the constructor's
    principal-branch prefactor lands on the continuous Schrodinger solution
    even after arg xi(t) wraps.
    """
    theta = (params.theta_cs
             + 2.0 * math.pi * (epsilon - 1.0) * params.xi_winding)
    return CsSpec(zeta=params.zeta, xi=params.xi, epsilon=epsilon, theta=theta)


def _arg_from_above(x: complex) -> float:
    """Principal argument; the negative real axis is approached from above."""
    if x.imag == 0.0 and x.real < 0.0:
        return math.pi
    return math.atan2(x.imag, x.real)


# ---------------------------------------------------------------------------
# Bessel helpers (normalization, overlap and parity mean), built on the
# exponentially scaled ive(kappa, z) = exp(-|Re z|) I_kappa(z).  Below
# _SMALL_Y (where its O(|z|^6 / eps^3) remainder is below round-off, and ive
# would lose ~1e-13 to cancellation against (eps - 1) ln(z/2)) or where ive
# underflows, the leading small-argument series takes over in log space.

_TINY = np.finfo(float).tiny
_SMALL_Y = 1e-3


def _i_small_pair(epsilon: float, y):
    """Leading small-argument factors (s_lo, t) with
    I_{eps-1}(y) = (y/2)^(eps-1)/Gamma(eps) * s_lo and I_eps = I_{eps-1} * t,
    for real or complex y; relative error O(|y|^6 / eps^3), and no underflow
    however small y is."""
    q = 0.25 * y * y
    s_lo = 1.0 + q / epsilon + q * q / (2.0 * epsilon * (epsilon + 1.0))
    s_hi = 1.0 + q / (epsilon + 1.0) \
        + q * q / (2.0 * (epsilon + 1.0) * (epsilon + 2.0))
    t = 0.5 * y / epsilon * s_hi / s_lo
    return s_lo, t


def _log_i_sum(epsilon: float, y):
    """ln[ (I_{eps-1}(y) + I_eps(y)) / (y/2)^(eps-1) ] for real y >= 0 (a
    float) or complex y (a complex logarithm of the same entire function).

    The divided-out power makes it regular (DLMF 10.25.2): at y = 0 it is
    -ln Gamma(eps), so zero displacement needs no limit of its own.  Each
    I_nu(y)/(y/2)^nu is even in y, so Re y < 0 is evaluated at -y, where the
    second term (one factor y/2 more) changes sign and no branch cut is
    near.  There the two terms cancel; a sum that cancels to zero is below
    round-off on the scale exp(|Re y|) and gives -inf.
    """
    real = not isinstance(y, complex)
    log = math.log if real else cmath.log
    if abs(y) >= _SMALL_Y:
        sign = -1.0 if y.real < 0.0 else 1.0
        w = sign * y
        lo, hi = ive(epsilon - 1.0, w), ive(epsilon, w)
        if abs(hi) >= _TINY:
            pair = lo + sign * hi
            if pair == 0.0:
                return -math.inf
            return w.real + log(pair) - (epsilon - 1.0) * log(0.5 * w)
    s_lo, t = _i_small_pair(epsilon, y)
    return (-math.lgamma(epsilon) + log(s_lo)
            + (math.log1p(t) if real else log(1.0 + t)))


def _i_parity_ratio(epsilon: float, y: float) -> float:
    """( I_{eps-1}(y) - I_eps(y) ) / ( I_{eps-1}(y) + I_eps(y) ), y >= 0."""
    lo, hi = ive(epsilon - 1.0, y), ive(epsilon, y)
    if y < _SMALL_Y or hi < _TINY:
        _, t = _i_small_pair(epsilon, y)
        return (1.0 - t) / (1.0 + t)
    return float((lo - hi) / (lo + hi))


# ---------------------------------------------------------------------------
# Scaled Laguerre columns.

def _scaled_laguerre_column(n_pairs: int, alpha: float, zeta: complex,
                            x: complex) -> np.ndarray:
    """M_n = (-zeta)^n L_n^alpha(x / zeta) for n < n_pairs, where x = xi^2/2.

    Recurrence (n+1) M_{n+1} = (x - zeta (2n+1+alpha)) M_n - zeta^2 (n+alpha)
    M_{n-1}; at zeta = 0 it degenerates to M_n = x^n / n! termwise, so the
    column is continuous across the zero-squeeze point.
    """
    out = np.empty(n_pairs, dtype=complex)
    out[0] = 1.0
    if n_pairs == 1:
        return out
    out[1] = x - zeta * (1.0 + alpha)
    z2 = zeta * zeta
    for n in range(1, n_pairs - 1):
        out[n + 1] = ((x - zeta * (2 * n + 1 + alpha)) * out[n]
                      - z2 * (n + alpha) * out[n - 1]) / (n + 1)
    return out


def _svs_pairs(zeta_abs: float, epsilon: float) -> int:
    """Smallest pair count with geometric tail bound below SVS_TAIL_BOUND."""
    q = zeta_abs * zeta_abs
    if q == 0.0:
        return 1
    term = 1.0  # P_{2n} / (1-|zeta|^2)^eps, starting at n = 0
    n = 0
    while n < MAX_PAIRS:
        ratio = q * (n + epsilon) / (n + 1.0)
        term *= ratio
        n += 1
        if ratio < 1.0 and term / (1.0 - ratio) < SVS_TAIL_BOUND:
            return n + 1
    raise TruncationError(
        f"no admissible truncation below {2 * MAX_PAIRS} for |zeta|={zeta_abs}"
    )


def _cs_columns(n_pairs: int, zeta: complex, xi: complex,
                epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Gamma-weighted Laguerre columns (e_n, o_n), n < n_pairs, with
    c_{2n} = pre e_n and c_{2n+1} = pre (xi/sqrt 2) o_n."""
    x = 0.5 * xi * xi
    n = np.arange(n_pairs)
    log_fact = gammaln(n + 1.0)
    even = (_scaled_laguerre_column(n_pairs, epsilon - 1.0, zeta, x)
            * np.exp(0.5 * (log_fact - gammaln(n + epsilon))))
    odd = (_scaled_laguerre_column(n_pairs, epsilon, zeta, x)
           * np.exp(0.5 * (log_fact - gammaln(n + epsilon + 1.0))))
    return even, odd


def _pair_masses(n_pairs: int, zeta: complex, xi: complex,
                 epsilon: float) -> np.ndarray:
    """Unnormalized per-pair masses |c_2n|^2 + |c_{2n+1}|^2 (prefactor off).

    They peak near exp(y), y = |xi|^2/(1-|zeta|^2); past y ~ 700 they
    overflow and no truncation can be chosen, which fails loudly here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        even, odd = _cs_columns(n_pairs, zeta, xi, epsilon)
        w = np.abs(even) ** 2 + 0.5 * abs(xi) ** 2 * np.abs(odd) ** 2
    if not np.all(np.isfinite(w)):
        y = abs(xi) ** 2 / (1.0 - abs(zeta) ** 2)
        raise DomainError(
            f"coherent-state columns overflow at y = |xi|^2/(1-|zeta|^2) "
            f"= {y:.6g}; the state is not representable in double precision"
        )
    return w


def _cs_pairs(zeta: complex, xi: complex, epsilon: float) -> int:
    """Minimal pair count with relative tail mass below CS_TAIL_BOUND.

    Scans the true per-pair masses over a working window that keeps growing
    until the trailing decay is safely geometric (asymptotic ratio
    |zeta|^2 < 1) and the geometric closure beyond the window is negligible;
    the window ratio is smoothed over eight pairs because the Laguerre
    factors oscillate through near-zeros.  The ratio is floored at |zeta|^2,
    so the acceptance threshold sits halfway between |zeta|^2 and 1 once
    |zeta|^2 passes 0.9.
    """
    zeta, xi = complex(zeta), complex(xi)
    zeta_abs, xi_abs = abs(zeta), abs(xi)
    lam = 0.5 * xi_abs * xi_abs / max(1.0 - zeta_abs, 0.05)
    guess = 16 + _svs_pairs(zeta_abs, epsilon) \
        + int(lam + 12.0 * math.sqrt(lam + 4.0) + 24.0)
    accept = max(0.95, 0.5 * (1.0 + zeta_abs**2))
    while True:
        guess = min(guess, MAX_PAIRS)
        w = _pair_masses(guess, zeta, xi, epsilon)
        total = float(np.sum(w))
        tip = max(float(np.max(w[-8:])), 1e-320)
        ratio = min((w[-1] / w[-9]) ** 0.125 if w[-9] > 0 else 0.0, 0.999)
        ratio = max(ratio, zeta_abs**2)
        beyond = tip * ratio / (1.0 - ratio)
        if ((ratio < accept and beyond < CS_TAIL_BOUND * total)
                or guess >= MAX_PAIRS):
            break
        guess = int(guess * 1.5) + 16
    if guess >= MAX_PAIRS and beyond >= CS_TAIL_BOUND * total:
        raise TruncationError(
            f"no admissible truncation below {2 * MAX_PAIRS} pairs for "
            f"|zeta|={zeta_abs}, |xi|={xi_abs}"
        )
    remaining = beyond
    n_pairs = guess
    for n in range(guess - 1, 0, -1):
        remaining += w[n]
        if remaining / total >= CS_TAIL_BOUND:
            n_pairs = n + 2
            break
    else:
        n_pairs = 2
    return min(max(n_pairs, 2), MAX_PAIRS)


def _resolve_pairs(auto_pairs: int, truncation: int | None) -> tuple[int, int]:
    """(n_pairs, N) honoring an upward-only truncation override."""
    n_auto = min(auto_pairs, MAX_PAIRS)
    if truncation is None:
        n_pairs = n_auto
        return n_pairs, 2 * n_pairs
    if truncation % 2 != 0:
        raise ConfigError(f"truncation must be even, got {truncation}")
    if truncation < 2 * n_auto:
        raise TruncationError(
            f"requested truncation {truncation} is below the analytic tail "
            f"requirement {2 * n_auto}; overrides may only enlarge it"
        )
    return truncation // 2, truncation


def _finalize(amps: np.ndarray, what: str) -> FockVector:
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    residual = abs(norm_sq - 1.0)
    if residual > RENORM_WARN_TOL:
        warnings.warn(
            f"{what} normalization residual {residual:.3e} exceeds "
            f"{RENORM_WARN_TOL}; renormalizing (possible special-function "
            "regression)",
            RuntimeWarning,
            stacklevel=3,
        )
        amps = amps / math.sqrt(norm_sq)
    return FockVector(amps)


# ---------------------------------------------------------------------------
# Squeezed-vacuum family.

def _svs_coefficient_column(zeta: complex, epsilon: float,
                            n_pairs: int) -> np.ndarray:
    """(-zeta)^n sqrt(Gamma(n+eps)/(n! Gamma(eps))) for n < n_pairs.

    The even-sector amplitude kernel, missing only the common factor
    (1-|zeta|^2)^(eps/2) e^{i theta}; completeness quadratures read it
    directly because that factor cancels their radial weight exactly.
    """
    out = np.empty(n_pairs, dtype=complex)
    c = 1.0 + 0.0j
    for n in range(n_pairs):
        out[n] = c
        c *= -zeta * math.sqrt((n + epsilon) / (n + 1.0))
    return out


def svs_amplitudes(spec: SvsSpec, truncation: int | None = None) -> FockVector:
    """Amplitude vector of the squeezed-vacuum state; odd entries vanish."""
    zeta, eps = complex(spec.zeta), float(spec.epsilon)
    n_pairs, n_total = _resolve_pairs(_svs_pairs(abs(zeta), eps), truncation)
    amps = np.zeros(n_total, dtype=complex)
    pref = (1.0 - abs(zeta) ** 2) ** (eps / 2.0) * np.exp(1j * spec.theta)
    amps[0:2 * n_pairs:2] = pref * _svs_coefficient_column(zeta, eps, n_pairs)
    return _finalize(amps, "svs_amplitudes")


def svs_transition(zeta: complex, epsilon: float, n: int) -> float:
    """P_{2n} = (1-|zeta|^2)^eps Gamma(n+eps) |zeta|^(2n) / (n! Gamma(eps))."""
    _check_state_inputs(zeta, epsilon)
    n = check_index(n)
    q = abs(zeta) ** 2
    sign = +1.0 if not _SABOTAGE_TRANSITION else -1.0
    base = (1.0 - sign * q) ** epsilon
    if q == 0.0:
        return float(base) if n == 0 else 0.0
    log_term = (math.lgamma(n + epsilon) - math.lgamma(n + 1.0)
                - math.lgamma(epsilon)
                + n * math.log(q))
    # probabilities may poke past 1 by an ulp of the log-gamma evaluation
    return min(float(base * math.exp(log_term)), 1.0)


def svs_overlap(spec1: SvsSpec, spec2: SvsSpec,
                phase_integral: float | None = None) -> complex:
    """<spec1|spec2> in closed form.

    The dynamical phase is exp(i eps * phase_integral) with phase_integral =
    int Re[alpha (zeta2* - zeta1*)] dt; when omitted it is inferred from the
    stored state phases (theta2 - theta1), which equals the same quantity for
    two states evolved under one schedule.
    """
    if spec1.epsilon != spec2.epsilon:
        raise DomainError("svs_overlap requires equal epsilon")
    eps = spec1.epsilon
    z1, z2 = complex(spec1.zeta), complex(spec2.zeta)
    base = ((1.0 - abs(z1) ** 2) ** (eps / 2.0)
            * (1.0 - abs(z2) ** 2) ** (eps / 2.0)
            * (1.0 - np.conj(z1) * z2) ** (-eps))
    if phase_integral is None:
        phase = np.exp(1j * (spec2.theta - spec1.theta))
    else:
        phase = np.exp(1j * eps * phase_integral)
    return complex(base * phase)


# ---------------------------------------------------------------------------
# Coherent family.

def _cs_log_prefactor(spec: CsSpec) -> complex:
    """Logarithm of the common amplitude prefactor (overflow-safe).

    Its power (xi/sqrt 2)^(eps-1) cancels against the one divided out of
    ``_log_i_sum``, which leaves the modulus
    (1-|zeta|^2)^(eps/2) exp(-L/2 + Re w), regular at xi = 0.
    """
    zeta, xi, eps = complex(spec.zeta), complex(spec.xi), float(spec.epsilon)
    one = 1.0 - abs(zeta) ** 2
    y = abs(xi) ** 2 / one
    w = np.conj(zeta) * xi * xi / (2.0 * one)
    log_mag = 0.5 * eps * math.log(one) - 0.5 * _log_i_sum(eps, y) + w.real
    arg = (eps - 1.0) * _arg_from_above(xi) + w.imag + spec.theta
    return complex(log_mag, arg)


def cs_amplitudes(spec: CsSpec, truncation: int | None = None) -> FockVector:
    """Amplitude vector of the generalized coherent state.

    At xi = 0 the odd sector vanishes identically and the even amplitudes
    are the squeezed-vacuum series (with the coherent-family phase); the
    xi -> 0 limit is taken along the positive real axis.
    """
    zeta, xi, eps = complex(spec.zeta), complex(spec.xi), float(spec.epsilon)
    n_pairs, n_total = _resolve_pairs(_cs_pairs(zeta, xi, eps),
                                      truncation)
    even, odd = _cs_columns(n_pairs, zeta, xi, eps)
    pre = cmath.exp(_cs_log_prefactor(spec))
    amps = np.zeros(n_total, dtype=complex)
    amps[0::2] = pre * even
    amps[1::2] = pre * (xi / math.sqrt(2.0)) * odd
    return _finalize(amps, "cs_amplitudes")


class _CsDistribution:
    """The n-independent part of ln P_n of one coherent state, and one scaled
    Laguerre column per parity that grows geometrically on demand."""

    def __init__(self, zeta: complex, xi: complex, epsilon: float):
        self.zeta, self.x, self.epsilon = zeta, 0.5 * xi * xi, epsilon
        one = 1.0 - abs(zeta) ** 2
        y = abs(xi) ** 2 / one
        self.log_base = (epsilon * math.log(one)
                         + (np.conj(zeta) * xi * xi).real / one
                         - _log_i_sum(epsilon, y))
        self.columns = [np.empty(0, dtype=complex)] * 2

    def laguerre(self, parity: int, m: int) -> complex:
        """M_m = (-zeta)^m L_m^alpha(xi^2/(2 zeta)), alpha = eps - 1 + parity."""
        column = self.columns[parity]
        if m >= len(column):
            column = _scaled_laguerre_column(
                max(m + 1, 2 * len(column)), self.epsilon - 1.0 + parity,
                self.zeta, self.x)
            self.columns[parity] = column
        return column[m]


@functools.lru_cache(maxsize=DISTRIBUTION_CACHE)
def _cs_distribution(zeta: complex, xi: complex,
                     epsilon: float) -> _CsDistribution:
    return _CsDistribution(zeta, xi, epsilon)


def cs_transition(zeta: complex, xi: complex, epsilon: float, n: int) -> float:
    """P_n = |c_n|^2 of the coherent state, parity split in closed form.

    The Laguerre columns of the last DISTRIBUTION_CACHE states are kept, so
    a whole distribution P_0 .. P_N costs O(N); each P_n is the same number
    whatever the order of the calls.
    """
    _check_state_inputs(zeta, epsilon, xi)
    zeta, xi = complex(zeta), complex(xi)
    m, parity = divmod(check_index(n), 2)
    dist = _cs_distribution(zeta, xi, float(epsilon))
    alpha = epsilon - 1.0 + parity
    log_p = (dist.log_base
             + math.lgamma(m + 1.0) - math.lgamma(m + alpha + 1.0))
    # (|xi|^2/2)^parity rather than its log: xi = 0 closes the odd lines
    odd_factor = (0.5 * abs(xi) ** 2) ** parity
    return min(float(abs(dist.laguerre(parity, m)) ** 2 * odd_factor
                     * math.exp(log_p)), 1.0)


def cs_overlap(spec1: CsSpec, spec2: CsSpec) -> complex:
    """<spec1|spec2> in closed form.

    The even and odd bilinear Laguerre series are Hille-Hardy sums (DLMF
    §18.18).  With t = conj(zeta1) zeta2, a = conj(xi1)^2/2, b = xi2^2/2 and
    z = conj(xi1) xi2 / (1-t), the odd weight conj(xi1) xi2 / 2 is (1-t) z/2,
    and the two sums add up to

        conj(pre1) pre2 (1-t)^(-eps) exp(-(a zeta2 + b conj(zeta1))/(1-t))
            (I_{eps-1}(z) + I_eps(z)) / (z/2)^(eps-1),

    the normalization's own Bessel pair at complex z (at spec1 = spec2,
    z = y).  The product is assembled in log space and exponentiated once,
    so no truncation is chosen and displacements past the amplitudes' double
    range (y ~ 700) still give finite overlaps.
    """
    if spec1.epsilon != spec2.epsilon:
        raise DomainError("cs_overlap requires equal epsilon")
    eps = float(spec1.epsilon)
    z1, x1 = complex(spec1.zeta).conjugate(), complex(spec1.xi).conjugate()
    z2, x2 = complex(spec2.zeta), complex(spec2.xi)
    one_t = 1.0 - z1 * z2
    log_overlap = (_cs_log_prefactor(spec1).conjugate()
                   + _cs_log_prefactor(spec2)
                   - eps * cmath.log(one_t)
                   - 0.5 * (x1 * x1 * z2 + x2 * x2 * z1) / one_t
                   + _log_i_sum(eps, x1 * x2 / one_t))
    return cmath.exp(log_overlap)


def mean_reflection(zeta: complex, xi: complex, epsilon: float) -> float:
    """Parity expectation of the coherent state,

        (I_{eps-1}(y) - I_eps(y)) / (I_{eps-1}(y) + I_eps(y)),

    y = |xi|^2/(1-|zeta|^2); exactly 1 at xi = 0 (pure even state)."""
    _check_state_inputs(zeta, epsilon, xi)
    y = abs(xi) ** 2 / (1.0 - abs(zeta) ** 2)
    return float(_i_parity_ratio(float(epsilon), y))
