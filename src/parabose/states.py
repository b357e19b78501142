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

A bounded cache keeps the last STATE_CACHE coherent states, each checked once
as it enters, and a read that repeats the last one's three numbers (the same
objects) skips even the cache's hash.  The truncation search, the amplitudes
and the distribution all read a state's Laguerre columns, which grow in
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


def check_index(n) -> int:
    """A number-state index as int: a nonnegative integer (NaN, inf fail)."""
    if type(n) is int and n >= 0:
        return n
    if not (float(n).is_integer() and n >= 0):
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_state_inputs(zeta: complex, epsilon: float,
                        xi: complex | None = None, theta: float = 0.0):
    """The state domain; xi is None for the squeezed vacuum."""
    check_epsilon(epsilon)
    check_squeeze(zeta)
    if xi is not None:
        try:
            y = abs(xi) ** 2 / (1.0 - abs(zeta) ** 2)
        except OverflowError:  # |xi|^2 past double range, on Python floats
            y = math.inf
        if not y <= Y_LIMIT:
            raise DomainError(
                f"xi must be finite with y = |xi|^2/(1-|zeta|^2) <= "
                f"{Y_LIMIT:g}, got {xi!r}")
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")


@dataclass(frozen=True)
class SvsSpec:
    """Squeezed-vacuum state data: squeeze zeta, level eps, phase theta."""

    zeta: complex
    epsilon: float
    theta: float = 0.0

    def __post_init__(self):
        _check_state_inputs(self.zeta, self.epsilon, theta=self.theta)


@dataclass(frozen=True)
class CsSpec:
    """Coherent state data: squeeze zeta, displacement xi, level eps, phase."""

    zeta: complex
    xi: complex
    epsilon: float
    theta: float = 0.0

    def __post_init__(self):
        _check_state_inputs(self.zeta, self.epsilon, self.xi, self.theta)


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
    state = _cs_state(zeta, xi, epsilon)
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
    remaining = beyond
    for n in range(guess - 1, 0, -1):
        remaining += w[n]
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


def svs_overlap(spec1: SvsSpec, spec2: SvsSpec) -> complex:
    """<spec1|spec2> in closed form, its phase exp(i (theta2 - theta1))
    from the stored state phases."""
    if spec1.epsilon != spec2.epsilon:
        raise DomainError("svs_overlap requires equal epsilon")
    eps = spec1.epsilon
    z1, z2 = complex(spec1.zeta), complex(spec2.zeta)
    base = ((1.0 - abs(z1) ** 2) ** (eps / 2.0)
            * (1.0 - abs(z2) ** 2) ** (eps / 2.0)
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
    zeta, xi, eps = complex(spec.zeta), complex(spec.xi), float(spec.epsilon)
    one = 1.0 - abs(zeta) ** 2
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
    zeta, xi, eps = complex(spec.zeta), complex(spec.xi), float(spec.epsilon)
    n_pairs, n_total = _resolve_pairs(_cs_pairs(zeta, xi, eps), truncation)
    state = _cs_state(zeta, xi, eps)
    even, odd = (column.extend(n_pairs)[:n_pairs] for column in state.laguerre)
    # pre 2^s times 2^-s e_n, exactly; |pre| alone may pass double range
    log_pre = _cs_log_prefactor(spec)
    pre = cmath.rect(_scaled_exp(log_pre.real, state.scale), log_pre.imag)
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
    and k_1 = |xi|^2/(2 eps) k_0, k = |pre|^2 = P_0.  Also the search's pair
    count ``pairs``, None before it runs.  The inputs are checked once,
    here, and converted to complex and float.

    One scale rule, s = min(floor(-log_4 k), 1022), keeps the seed 2^-s a
    normal double and 4^s k in (1/4, 1] below the cap.  Every P_n <= 1, so
    |2^-s e_n|^2 <= P_n / (4^s k): every column entry, search mass, mass sum
    and P_n factor stays in double range.  A state with 4^s k < 2^-1022,
    ln P_0 below -3066 ln 2 ~ -2125 (y ~ 2100 at zeta = 0), raises
    DomainError here, before any column is built, and the cache keeps
    nothing of it."""

    def __init__(self, zeta, xi, epsilon):
        zeta, xi, epsilon = complex(zeta), complex(xi), float(epsilon)
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=epsilon)
        # ln |pre|^2: theta enters only the logarithm's imaginary part
        log_k = 2.0 * _cs_log_prefactor(spec).real
        self.scale = min(math.floor(-0.5 * log_k / _LN2), 1022)
        k = _scaled_exp(log_k, 2 * self.scale, np.exp)
        if not k >= 2.0 ** -1022:  # ln P_0 < -3066 ln 2
            y = abs(xi) ** 2 / (1.0 - abs(zeta) ** 2)
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


# keyed on the caller's own numbers: equal values hash and compare equal,
# whatever their type, so a cached read converts nothing
_cs_lookup = functools.lru_cache(maxsize=STATE_CACHE)(_CsState)
# the last read: the caller's three numbers (held, so that no other object
# takes their ids) and their state, rebound as one tuple so that concurrent
# readers never pair one state's numbers with another state
_NO_STATE = (object(),) * 3 + (None,)
_last_state = _NO_STATE


def _cs_state(zeta, xi, epsilon) -> _CsState:
    global _last_state
    last = _last_state
    if zeta is last[0] and xi is last[1] and epsilon is last[2]:
        return last[3]
    state = _cs_lookup(zeta, xi, epsilon)
    _last_state = (zeta, xi, epsilon, state)
    return state


def _cs_state_cache_clear() -> None:
    global _last_state
    _cs_lookup.cache_clear()
    _last_state = _NO_STATE


_cs_state.cache_clear = _cs_state_cache_clear
_cs_state.cache_info = _cs_lookup.cache_info


def cs_transition(zeta: complex, xi: complex, epsilon: float, n: int) -> float:
    """P_n = |c_n|^2 of the coherent state, parity split in closed form.

    The lines of the last STATE_CACHE states are kept in one column per
    state: the first line read past its end fills in every line the
    state's Laguerre columns reach, in one numpy pass over the columns its
    amplitudes read, so a whole distribution P_0 .. P_N costs O(N) and
    each further line is one lookup (by the caller's three numbers, and by
    their identity when they repeat the last call's).  Each line is
    computed entry by entry, so P_n is the same number whatever the order
    of the calls.  Every line below n = 2 MAX_PAIRS of a state reads; a
    line past that, which the column would have to reach entry by entry,
    raises DomainError before the column grows, and so does a state whose
    P_0 is below e^-2125 (``_CsState``).
    """
    if not (type(n) is int and n >= 0):
        n = check_index(n)
    state = _cs_state(zeta, xi, epsilon)
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
    eps = float(spec1.epsilon)
    z1, x1 = complex(spec1.zeta).conjugate(), complex(spec1.xi).conjugate()
    z2, x2 = complex(spec2.zeta), complex(spec2.xi)
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
    _check_state_inputs(zeta, epsilon, xi)
    _, a, b = pair(float(epsilon), abs(xi) ** 2 / (1.0 - abs(zeta) ** 2))
    return float((a - b) / (a + b))
