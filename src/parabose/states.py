"""Closed-form squeezed-vacuum and coherent states on the para-Bose basis.

Squeezed-vacuum family (even sector only):

    c_{2n} = (1-|zeta|^2)^(eps/2) e^{i theta} (-zeta)^n
             sqrt(Gamma(n+eps) / (n! Gamma(eps)))

Coherent family (eigenstates of the transformed lowering operator, all
parities), as printed

    c_{2n}   =  pre sqrt(n!) (-zeta)^n L_n^{eps-1}(xi^2/(2 zeta)) / sqrt(Gamma(n+eps))
    c_{2n+1} =  pre (xi/sqrt 2) sqrt(n!) (-zeta)^n L_n^{eps}(xi^2/(2 zeta))
                / sqrt(Gamma(n+eps+1)),
    pre = (xi/sqrt 2)^(eps-1) sqrt((1-|zeta|^2) / (I_{eps-1}(y) + I_eps(y)))
          exp(conj(zeta) xi^2 / (2 (1-|zeta|^2)) + i theta),
    y = |xi|^2 / (1-|zeta|^2),

and as evaluated: c_{2n} = p e_n(eps - 1), c_{2n+1} = p xi/sqrt(2 eps)
e_n(eps), with the columns e_n(alpha) = sqrt(n!/(alpha+1)_n) (-zeta)^n
L_n^alpha(xi^2/(2 zeta)).  The Bessel sum is (y/2)^(eps-1)/Gamma(eps) times
the pair Lambda_{eps-1}(y) + y/(2 eps) Lambda_eps(y), where Lambda_nu(y) =
Gamma(nu+1) I_nu(y)/(y/2)^nu (``bessel``): its power cancels
(xi/sqrt 2)^(eps-1) and its Gamma(eps) the columns' Gamma functions, so no
Gamma function is evaluated and xi = 0 is an ordinary input (the
squeezed-vacuum series, arg xi -> 0 taken from the positive real axis).
Each column follows its own three-term recurrence (that of the orthonormal
Laguerre polynomials, DLMF §18.9, scaled by (-zeta)^n), exact for every
|zeta| < 1 and termwise (xi^2/2)^n / sqrt(n! (alpha+1)_n) at zeta = 0.
``cs_transition``'s P_n = |c_n|^2 is the paper's parity-split closed form.

One bounded table keeps the last STATE_CACHE states of either family, each
checked once as it enters, and a read that repeats the last one's three
numbers (the same objects) skips even the table's hash.  A squeezed vacuum
keeps the n-free terms of its lines.  A coherent state's truncation search,
amplitudes and distribution all read its Laguerre columns, which grow in
place and are never recomputed, and the distribution's lines P_0, P_1, ...
sit in one column per state: a state costs one recurrence pass and one
search however it is used, a line read is one lookup, and every entry is the
same number whatever the order of the calls.
The columns are stored times one power of two per state, chosen from
P_0 = |pre|^2 so that every entry stays in double range; a state reads in
full down to P_0 ~ e^-2125 (y ~ 2100 at zeta = 0) and raises DomainError
below that.

The overlap of two coherent states at one level sums both parity series by
the Hille-Hardy formula (DLMF §18.18): with M_n = (-zeta)^n
L_n^alpha(xi^2/(2 zeta)), t = conj(zeta1) zeta2, a = conj(xi1)^2/2,
b = xi2^2/2 and z = conj(xi1) xi2/(1-t),

    sum_n n!/(alpha+1)_n conj(M1_n) M2_n
        = (1-t)^(-alpha-1) exp(-(a zeta2 + b conj(zeta1))/(1-t))
          Lambda_alpha(z),

so the even and odd sums add up to the normalization's pair at z (y at
spec1 = spec2).
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .bessel import log_pair, pair
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
    "squeeze_gap",
]

SVS_TAIL_BOUND = 1e-14
CS_TAIL_BOUND = 1e-16
MAX_PAIRS = 200_000
NORM_WARN_TOL = 1e-9
SQUEEZE_LIMIT = 1.0 - 1e-6
STATE_CACHE = 8
# off the lattice eps = 2 ell + 1/2 the normalization's Bessel pair comes
# from scipy's ive, which returns NaN past |z| = 2^30 ~ 1.07e9 (on it the
# pair is elementary)
Y_LIMIT = 1e9

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


def squeeze_gap(zeta: complex) -> float:
    """The gap 1 - |zeta|^2 through which every closed form reads the
    squeeze (normalization, y, moments, psi's Gaussian)."""
    return 1.0 - abs(zeta) ** 2


def check_index(n) -> int:
    """A number-state index as int: a nonnegative integer (NaN, inf fail)."""
    if type(n) is int and n >= 0:
        return n
    # float() parses strings, which would then fail the comparison
    if isinstance(n, (str, bytes)) or not (float(n).is_integer() and n >= 0):
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_state_inputs(zeta: complex, xi: complex | None, epsilon: float,
                        theta: float = 0.0):
    """The one conversion of a state's numbers: zeta and xi to complex, eps
    and theta to float, checked on the state domain and returned in the
    order they came (xi None, the squeezed vacuum's, is kept)."""
    try:  # unary plus refuses the strings that complex() and float() parse
        epsilon, zeta, theta = float(+epsilon), complex(+zeta), float(+theta)
        xi = xi if xi is None else complex(+xi)
    except TypeError:
        for name, value in (("zeta", zeta), ("epsilon", epsilon), ("xi", xi),
                            ("theta", theta)):
            if isinstance(value, (str, bytes)):
                raise DomainError(f"{name} must be a number, got {value!r}")
        raise
    check_epsilon(epsilon)
    check_squeeze(zeta)
    if xi is not None:
        y = abs(xi) * abs(xi) / squeeze_gap(zeta)  # inf, where ** 2 raises
        if not y <= Y_LIMIT:
            raise DomainError(
                f"xi must be finite with y = |xi|^2/(1-|zeta|^2) <= "
                f"{Y_LIMIT:g}, got {xi!r}")
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    return zeta, xi, epsilon, theta


# each spec stores the rule's numbers once, as the frozen dataclass's own
# __init__ would store the arguments
@dataclass(frozen=True, init=False)
class SvsSpec:
    """Squeezed-vacuum state data: squeeze zeta, level eps, phase theta."""

    zeta: complex
    epsilon: float
    theta: float = 0.0

    def __init__(self, zeta: complex, epsilon: float, theta: float = 0.0):
        zeta, _, epsilon, theta = _check_state_inputs(zeta, None, epsilon, theta)
        vars(self).update(zeta=zeta, epsilon=epsilon, theta=theta)


@dataclass(frozen=True, init=False)
class CsSpec:
    """Coherent state data: squeeze zeta, displacement xi, level eps, phase."""

    zeta: complex
    xi: complex
    epsilon: float
    theta: float = 0.0

    def __init__(self, zeta: complex, xi: complex, epsilon: float,
                 theta: float = 0.0):
        if xi is None:  # the rule's squeezed vacuum
            raise DomainError("xi must be a number, got None")
        zeta, xi, epsilon, theta = _check_state_inputs(zeta, xi, epsilon, theta)
        vars(self).update(zeta=zeta, xi=xi, epsilon=epsilon, theta=theta)


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
# Normalized Laguerre columns.

_STEP_CHUNK = 4096
_LN2 = math.log(2.0)


def _scaled_exp(t: float, shift: int, exp=math.exp) -> float:
    """exp(t) 2^shift: the shift scales exp(t) exactly, and splits off first
    where exp(t) alone would leave the normal double range."""
    if -708.0 < t < 709.0:
        return math.ldexp(float(exp(t)), shift)
    j = round(t / _LN2)
    return math.ldexp(float(exp(t - j * _LN2)), j + shift)


class _LaguerreColumn:
    """2^-scale e_n, e_n = sqrt(n!/(alpha+1)_n) (-zeta)^n L_n^alpha(x / zeta),
    x = xi^2/2, grown in place: c_{2n} = pre e_n at alpha = eps - 1,
    c_{2n+1} = pre xi/sqrt(2 eps) e_n at alpha = eps.  The exact power of
    two is chosen by ``_CsState``.

    Recurrence e_0 = 1, e_1 = (x - zeta (1+alpha)) / sqrt(alpha+1) and

        sqrt((n+1)(n+alpha+1)) e_{n+1}
            = (x - zeta (2n+1+alpha)) e_n - zeta^2 sqrt(n (n+alpha)) e_{n-1};

    at zeta = 0 it degenerates to e_n = x^n / sqrt(n! (alpha+1)_n) termwise,
    so the column is continuous across the zero-squeeze point.
    Each new entry comes from the last two, so a column is computed once
    however far it is read.  The three coefficients of a step are
    elementwise numpy operations and the steps run on Python complex, so a
    column grown in pieces equals (==) one grown in a single call.
    """

    def __init__(self, alpha: float, zeta: complex, x: complex, scale=0):
        self.alpha, self.zeta, self.x = alpha, zeta, x
        first = math.ldexp(1.0, -scale)
        second = (x - zeta * (1.0 + alpha)) * first / math.sqrt(alpha + 1.0)
        self.values = np.array([first, second], dtype=complex)

    def extend(self, length: int) -> np.ndarray:
        """The column, at least ``length`` entries long."""
        have = len(self.values)
        if length <= have:
            return self.values
        alpha, zeta, x = self.alpha, self.zeta, self.x
        out = np.empty(length, dtype=complex)
        out[:have] = self.values
        prev, last = self.values[-2:].tolist()
        # stored _STEP_CHUNK entries at a time: a list of Python complex
        # takes 40 B an entry against numpy's 16
        for start in range(have, length, _STEP_CHUNK):
            n = np.arange(start - 1, min(start + _STEP_CHUNK, length) - 1,
                          dtype=float)
            new = []
            for a, b, d in zip(
                    (x - zeta * (2.0 * n + 1.0 + alpha)).tolist(),
                    (zeta * zeta * np.sqrt(n * (n + alpha))).tolist(),
                    np.sqrt((n + 1.0) * (n + alpha + 1.0)).tolist()):
                prev, last = last, (a * last - b * prev) / d
                new.append(last)
            out[start:start + len(new)] = new
        self.values = out
        return self.values


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


def _cs_pairs(zeta: complex, xi: complex, epsilon: float) -> int:
    """Minimal pair count with relative tail mass below CS_TAIL_BOUND; the
    search runs once per cached state, which keeps its count."""
    state = _state(zeta, xi, epsilon)
    if state.pairs is None:
        state.pairs = _search_pairs(state, abs(zeta), abs(xi), epsilon)
    return state.pairs


def _search_pairs(state: _CsState, zeta_abs: float, xi_abs: float,
                  epsilon: float) -> int:
    """The truncation search behind ``_cs_pairs``, on the pair masses
    |2^-s e_n|^2 + |xi|^2/(2 eps) |2^-s o_n|^2 of the state's columns (the
    amplitudes' pair masses over 4^s |pre|^2, which the scale rule of
    ``_CsState`` keeps in double range, their sum too).

    Scans the true per-pair masses over a working window that keeps growing
    until the trailing decay is safely geometric (asymptotic ratio
    |zeta|^2 < 1) and the geometric closure beyond the window is negligible;
    the window ratio is smoothed over eight pairs because the Laguerre
    factors oscillate through near-zeros.  The ratio is floored at |zeta|^2,
    so the acceptance threshold sits halfway between |zeta|^2 and 1 once
    |zeta|^2 passes 0.9.
    """
    lam = 0.5 * xi_abs * xi_abs / max(1.0 - zeta_abs, 0.05)
    guess = 16 + _svs_pairs(zeta_abs, epsilon) \
        + int(lam + 12.0 * math.sqrt(lam + 4.0) + 24.0)
    accept = max(0.95, 0.5 * (1.0 + zeta_abs**2))
    even, odd = state.laguerre
    while True:
        guess = min(guess, MAX_PAIRS)
        w = (np.abs(even.extend(guess)[:guess]) ** 2 + 0.5 * xi_abs ** 2
             / epsilon * np.abs(odd.extend(guess)[:guess]) ** 2)
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
    remaining, masses = float(beyond), w.tolist()
    for n in range(guess - 1, 0, -1):
        remaining += masses[n]
        if remaining / total >= CS_TAIL_BOUND:
            return min(n + 2, MAX_PAIRS)
    return 2


def _resolve_pairs(auto_pairs: int, truncation: int | None) -> tuple[int, int]:
    """(n_pairs, N) honoring an upward-only truncation override of at most
    2 MAX_PAIRS, checked before any amplitude is built."""
    n_auto = min(auto_pairs, MAX_PAIRS)
    if truncation is None:
        n_pairs = n_auto
        return n_pairs, 2 * n_pairs
    if truncation % 2 != 0:
        raise ConfigError(f"truncation must be even, got {truncation}")
    if truncation > 2 * MAX_PAIRS:
        raise DomainError(
            f"truncation {truncation} exceeds 2 MAX_PAIRS = {2 * MAX_PAIRS}")
    if truncation < 2 * n_auto:
        raise TruncationError(
            f"requested truncation {truncation} is below the analytic tail "
            f"requirement {2 * n_auto}; overrides may only enlarge it"
        )
    return truncation // 2, truncation


def _finalize(amps: np.ndarray, what: str) -> FockVector:
    """The amplitudes as computed; a norm off 1 by more than NORM_WARN_TOL
    warns, and is left for the normalization checks to report."""
    residual = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    if residual > NORM_WARN_TOL:
        warnings.warn(
            f"{what} normalization residual {residual:.3e} exceeds "
            f"{NORM_WARN_TOL} (possible special-function regression)",
            RuntimeWarning,
            stacklevel=3,
        )
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
    zeta, eps = spec.zeta, spec.epsilon
    n_pairs, n_total = _resolve_pairs(_svs_pairs(abs(zeta), eps), truncation)
    amps = np.zeros(n_total, dtype=complex)
    pref = squeeze_gap(zeta) ** (eps / 2.0) * np.exp(1j * spec.theta)
    amps[0:2 * n_pairs:2] = pref * _svs_coefficient_column(zeta, eps, n_pairs)
    return _finalize(amps, "svs_amplitudes")


def _svs_state(spec: SvsSpec) -> tuple:
    """A squeezed vacuum's n-free numbers in the state table: eps,
    q = |zeta|^2, (1 - q)^eps, ln Gamma(eps) and ln q (None at q = 0)."""
    q = abs(spec.zeta) ** 2
    return (spec.epsilon, q, squeeze_gap(spec.zeta) ** spec.epsilon,
            math.lgamma(spec.epsilon), math.log(q) if q else None)


def svs_transition(zeta: complex, epsilon: float, n: int) -> float:
    """P_{2n} = (1-|zeta|^2)^eps Gamma(n+eps) |zeta|^(2n) / (n! Gamma(eps));
    a state's n-free terms are checked and formed once, in the state table."""
    epsilon, q, base, log_gamma_eps, log_q = _state(zeta, None, epsilon)
    if not (type(n) is int and n >= 0):
        n = check_index(n)
    if _SABOTAGE_TRANSITION:
        base = (1.0 + q) ** epsilon
    if q == 0.0:
        return base if n == 0 else 0.0
    log_term = (math.lgamma(n + epsilon) - math.lgamma(n + 1.0)
                - log_gamma_eps + n * log_q)
    # probabilities may poke past 1 by an ulp of the log-gamma evaluation
    return min(base * math.exp(log_term), 1.0)


def svs_overlap(spec1: SvsSpec, spec2: SvsSpec) -> complex:
    """<spec1|spec2> in closed form, its phase exp(i (theta2 - theta1))
    from the stored state phases."""
    if spec1.epsilon != spec2.epsilon:
        raise DomainError("svs_overlap requires equal epsilon")
    eps, z1, z2 = spec1.epsilon, spec1.zeta, spec2.zeta
    base = (squeeze_gap(z1) ** (eps / 2.0) * squeeze_gap(z2) ** (eps / 2.0)
            * (1.0 - np.conj(z1) * z2) ** (-eps))
    return complex(base * np.exp(1j * (spec2.theta - spec1.theta)))


# ---------------------------------------------------------------------------
# Coherent family.

def _cs_log_prefactor(spec: CsSpec) -> complex:
    """Logarithm of the common amplitude prefactor (overflow-safe).

    Its power (xi/sqrt 2)^(eps-1) and the Gamma(eps) of the columns cancel
    against the normalization's Bessel sum, which leaves the modulus
    (1-|zeta|^2)^(eps/2) exp(-L/2 + Re w), L = ``log_pair``(eps, y),
    regular at xi = 0.
    """
    zeta, xi, eps = spec.zeta, spec.xi, spec.epsilon
    one = squeeze_gap(zeta)
    y = abs(xi) ** 2 / one
    w = np.conj(zeta) * xi * xi / (2.0 * one)
    log_mag = 0.5 * eps * math.log(one) - 0.5 * log_pair(eps, y) + w.real
    arg = (eps - 1.0) * _arg_from_above(xi) + w.imag + spec.theta
    return complex(log_mag, arg)


def cs_amplitudes(spec: CsSpec, truncation: int | None = None) -> FockVector:
    """Amplitude vector of the generalized coherent state: the prefactor
    times the state's cached Laguerre columns.

    At xi = 0 the odd sector vanishes identically and the even amplitudes
    are the squeezed-vacuum series (with the coherent-family phase); the
    xi -> 0 limit is taken along the positive real axis.
    """
    zeta, xi, eps = spec.zeta, spec.xi, spec.epsilon
    n_pairs, n_total = _resolve_pairs(_cs_pairs(zeta, xi, eps), truncation)
    state = _state(zeta, xi, eps)
    even, odd = (column.extend(n_pairs)[:n_pairs] for column in state.laguerre)
    # pre 2^s times 2^-s e_n, exactly; |pre| alone may pass double range
    log_pre = state.log_pre
    pre = cmath.rect(_scaled_exp(log_pre.real, state.scale),
                     log_pre.imag + spec.theta)
    amps = np.zeros(n_total, dtype=complex)
    amps[0::2] = pre * even
    amps[1::2] = pre * (xi / math.sqrt(2.0 * eps)) * odd
    return _finalize(amps, "cs_amplitudes")


# the least a P_n column's Laguerre column grows to: a fresh state's first
# lines (a figure's 41, a check's dozen) take one numpy pass per parity, not
# one per doubling from the two seed entries
_FIRST_PASS = 32


class _CsState:
    """One coherent state's n-dependent columns, each grown in place and
    never recomputed.  Per parity (alpha = eps - 1 and eps) the Laguerre
    column 2^-s e_n (s = ``scale``), which the truncation search, the
    amplitudes and the distribution all read; and one column ``lines`` of
    P_0, P_1, P_2, ..., P_{2n+parity} = |2^-s e_n|^2 k_parity, k_0 = 4^s k
    and k_1 = |xi|^2/(2 eps) k_0, k = |pre|^2 = P_0.  Also ``log_pre``, ln pre
    at theta = 0, and the search's pair count ``pairs``, None before it
    runs.  It is built from the spec that checks the state's numbers as
    it enters the state table (``_state``), and reads them back from it.

    One scale rule, s = min(floor(-log_4 k), 1022), keeps the seed 2^-s a
    normal double and 4^s k in (1/4, 1] below the cap.  Every P_n <= 1, so
    |2^-s e_n|^2 <= P_n / (4^s k): every column entry, search mass, mass sum
    and P_n factor stays in double range.  A state with 4^s k < 2^-1022,
    ln P_0 below -3066 ln 2 ~ -2125 (y ~ 2100 at zeta = 0), raises
    DomainError here, before any column is built, and the table keeps
    nothing of it."""

    def __init__(self, spec: CsSpec):
        zeta, xi, epsilon = spec.zeta, spec.xi, spec.epsilon
        # theta enters only the logarithm's imaginary part, as its last term
        self.log_pre = _cs_log_prefactor(spec)
        log_k = 2.0 * self.log_pre.real
        self.scale = min(math.floor(-0.5 * log_k / _LN2), 1022)
        k = _scaled_exp(log_k, 2 * self.scale, np.exp)
        if not k >= 2.0 ** -1022:  # ln P_0 < -3066 ln 2
            y = abs(xi) ** 2 / squeeze_gap(zeta)
            raise DomainError(
                f"coherent state at y = |xi|^2/(1-|zeta|^2) = {y:.6g} has "
                f"ln P_0 = {log_k:.6g}, below the -2125.19 that its "
                f"double-precision columns reach")
        x = 0.5 * xi * xi
        self.laguerre = (_LaguerreColumn(epsilon - 1.0, zeta, x, self.scale),
                         _LaguerreColumn(epsilon, zeta, x, self.scale))
        # |xi|^2/(2 eps) as a factor rather than a log: xi = 0 closes the odd
        # lines
        self.factors = (k, abs(xi) ** 2 / (2.0 * epsilon) * k)
        self.lines = array("d")
        self.pairs = None

    def extend_lines(self, n: int) -> array:
        """The column of P_0, P_1, ..., through P_n and every line the
        Laguerre columns reach.  The two columns always grow together (here,
        in the search and in the amplitudes); short, they first grow through
        n // 2, to at least twice their length and to _FIRST_PASS entries,
        but not past MAX_PAIRS (n < 2 MAX_PAIRS, ``cs_transition``), so a
        sweep over n extends them O(log n) times."""
        even, odd = self.laguerre
        if n // 2 >= len(even.values):
            length = min(max(n // 2 + 1, 2 * len(even.values), _FIRST_PASS),
                         MAX_PAIRS)
            even.extend(length)
            odd.extend(length)
        start = len(self.lines) // 2
        # row m holds (P_2m, P_2m+1), so the rows' bytes are the lines
        p = np.abs(np.stack((even.values[start:], odd.values[start:]),
                            axis=1)) ** 2 * self.factors
        # probabilities may poke past 1 by round-off
        self.lines.frombytes(np.minimum(p, 1.0).tobytes())
        return self.lines


# keyed on the caller's own numbers, xi None for a squeezed vacuum: equal
# values hash and compare equal, whatever their type, so a cached read
# converts nothing, and the spec checks them once as the state enters
_table = functools.lru_cache(maxsize=STATE_CACHE)(
    lambda zeta, xi, epsilon: _svs_state(SvsSpec(zeta, epsilon)) if xi is None
    else _CsState(CsSpec(zeta, xi, epsilon)))
# the last read: the caller's three numbers (held, so that no other object
# takes their ids) and their state, rebound as one tuple so that concurrent
# readers never pair one state's numbers with another state
_last_state = _NO_STATE = (object(),) * 3 + (None,)


def _state(zeta, xi, epsilon):
    """The table's state, or the last read's for its own objects; a 0-d
    array is keyed on its value by the rule and never held (it may change)."""
    global _last_state
    last = _last_state
    if zeta is last[0] and xi is last[1] and epsilon is last[2]:
        return last[3]
    try:
        state = _table(zeta, xi, epsilon)
    except TypeError:  # unhashable; or a type the rule refuses, once more
        return _table(*_check_state_inputs(zeta, xi, epsilon)[:3])
    _last_state = (zeta, xi, epsilon, state)
    return state


def _clear_states() -> None:
    global _last_state
    _table.cache_clear()
    _last_state = _NO_STATE


_state.cache_clear, _state.cache_info = _clear_states, _table.cache_info


def cs_transition(zeta: complex, xi: complex, epsilon: float, n: int) -> float:
    """P_n = |c_n|^2 of the coherent state, parity split in closed form.

    The lines of each coherent state in the state table (the last
    STATE_CACHE states of either family) are kept in one column per
    state: the first line read past its end fills in every line the
    state's Laguerre columns reach, in one numpy pass over the columns its
    amplitudes read, so a whole distribution P_0 .. P_N costs O(N) and
    each further line is one lookup (by the caller's three numbers, and by
    their identity when they repeat the last call's; a 0-d array reads the
    value it holds, and xi None, the table's squeezed vacuum, raises
    DomainError).  Each line is
    computed entry by entry, so P_n is the same number whatever the order
    of the calls.  Every line below n = 2 MAX_PAIRS of a state reads; a
    line past that, which the column would have to reach entry by entry,
    raises DomainError before the column grows, and so does a state whose
    P_0 is below e^-2125 (``_CsState``).  Line n carries about (y + n) 1e-16
    relative error: the prefactor's log terms are of size y, and the
    recurrence rounds once a step.  15503 lines of 13 states up to y = 1973
    and N = 12618 read within 4 (y + n) 1e-16 of 40-digit mpmath (at most
    1.9e-12, at n = 12534 of a |zeta| = 0.8, y = 1111 state).
    """
    if not (type(n) is int and n >= 0):
        n = check_index(n)
    if xi is None:  # the table's squeezed vacuum
        raise DomainError("xi must be a number, got None")
    last = _last_state
    state = (last[3] if zeta is last[0] and xi is last[1]
             and epsilon is last[2] else _state(zeta, xi, epsilon))
    lines = state.lines
    if n >= len(lines):
        if n >= 2 * MAX_PAIRS:
            raise DomainError(
                f"P_n is computed only for n < 2 MAX_PAIRS = {2 * MAX_PAIRS},"
                f" got n = {n}")
        lines = state.extend_lines(n)
    return lines[n]


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
    so no truncation is chosen and displacements past the columns' double
    range (P_0 below e^-2125) still give finite overlaps.  Its terms are of
    size y, so the overlap carries about y 1e-16 relative error: <s|s> - 1
    reaches 2.3e-10 at y = 1e6 and 3e-8 at y = 1e8.
    """
    if spec1.epsilon != spec2.epsilon:
        raise DomainError("cs_overlap requires equal epsilon")
    eps, z2, x2 = spec1.epsilon, spec2.zeta, spec2.xi
    z1, x1 = spec1.zeta.conjugate(), spec1.xi.conjugate()
    one_t = 1.0 - z1 * z2
    log_overlap = (_cs_log_prefactor(spec1).conjugate()
                   + _cs_log_prefactor(spec2)
                   - eps * cmath.log(one_t)
                   - 0.5 * (x1 * x1 * z2 + x2 * x2 * z1) / one_t
                   + log_pair(eps, x1 * x2 / one_t))
    return cmath.exp(log_overlap)


def mean_reflection(zeta: complex, xi: complex, epsilon: float) -> float:
    """Parity expectation of the coherent state,

        (I_{eps-1}(y) - I_eps(y)) / (I_{eps-1}(y) + I_eps(y)),

    y = |xi|^2/(1-|zeta|^2): the normalization's Bessel pair at -y over the
    same pair at y (each Lambda_nu is even); exactly 1 at xi = 0 (pure even
    state).  Both pairs come from the same two terms on one scale; the
    numerator, I_{eps-1} - I_eps ~ I (eps - 1/2)/y, cancels, so the ratio
    carries about y 1e-16 relative error (3.4e-11 at y = 1e6, eps = 2.5)."""
    if xi is None:  # the rule's squeezed vacuum
        raise DomainError("xi must be a number, got None")
    zeta, xi, epsilon, _ = _check_state_inputs(zeta, xi, epsilon)
    _, a, b = pair(epsilon, abs(xi) ** 2 / squeeze_gap(zeta))
    return float((a - b) / (a + b))
