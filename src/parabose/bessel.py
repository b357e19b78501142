"""The package's one modified Bessel function, normalized at the origin,

    Lambda_nu(z) = Gamma(nu+1) I_nu(z) / (z/2)^nu
                 = sum_k (z^2/4)^k / (k! (nu+1)_k)        (DLMF 10.25.2),

for real nu > -1 and real or complex z, returned with the scale e^-|Re z|.
By (nu, z) alone: the ascending series below the order's radius, the
elementary form of the half-odd orders n + 1/2, n <= ELEMENTARY_MAX_ORDER
(DLMF 10.49(ii)), and scipy's ive (Amos) for the rest where it is in range.
``ratio`` (scalars: the normalization) and ``ratio_array`` (arrays: psi and
the density) share the routes and, on real arguments, every rounding.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

# Half-odd orders n + 1/2 up to this n have an elementary form; past it, near
# |z| ~ n, it and the series lose about 1e-13 to cancellation at any radius.
# SERIES_RADIUS: the |z| below which the table series serves n = -1 .. 9,
# the radius of least worst error (both measured against mpmath on 64
# directions of z).
ELEMENTARY_MAX_ORDER = 9
SERIES_RADIUS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.25, 10.875, 12.125)
# Other orders: the summed series serves |z|^2 < 8 (nu+1), where its terms
# stay within about e^4 of the sum in every direction, and, inside
# SERIES_MAX_RADIUS, wherever ive falls below e^-IVE_FLOOR (Amos returns 0
# below about e^-700.4 off the real axis, e^-700.9 on it): on the real axis
# every term is positive; off it they cancel by about
# e^((Im z)^2 / (2 (nu+1))), digits that no route here keeps.  It settles in
# under SERIES_TERMS terms.
IVE_FLOOR = 699.0
SERIES_MAX_RADIUS = 700.0
SERIES_TERMS = 1000


@functools.lru_cache(maxsize=256)
def _rule(nu: float) -> tuple[float, int | None]:
    """The series radius of order nu, and n when nu = n + 1/2 has an
    elementary form (else None)."""
    n = float(nu) - 0.5
    if n.is_integer() and -1 <= n <= ELEMENTARY_MAX_ORDER:
        return SERIES_RADIUS[int(n) + 1], int(n)
    return math.sqrt(8.0 * (nu + 1.0)), None


def _underflows(nu: float, w):
    """Whether ive(nu, w) falls below e^-IVE_FLOOR inside SERIES_MAX_RADIUS
    (w a scalar or an array), by the Debye form I_nu(nu t) ~ e^(nu eta) /
    sqrt(2 pi nu s), s = sqrt(1 + t^2) (DLMF 10.41.3): within 1e-3 of
    ln |ive| wherever that nears the floor (from nu ~ 395 on)."""
    if nu <= 0.0:
        return False
    w = w * (1 - 2 * (w.real < 0.0))
    s = np.sqrt(1.0 + (w / nu) ** 2)
    lead = (nu * (s + np.log(w / nu) - np.log(1.0 + s))).real - w.real \
        - 0.5 * np.log(2.0 * math.pi * nu * abs(s))
    return (abs(w) < SERIES_MAX_RADIUS) & (lead < -IVE_FLOOR)


@functools.cache
def _series_table(n: int) -> tuple[float, ...]:
    """1 / (k! (n + 3/2)_k) = 2^k / (k! prod_{i<=k} (2n + 1 + 2i)), highest
    k first, up to the first term below 2^-60 of the leading one at the
    series radius; each is an exact rational rounded once."""
    t_max = Fraction(SERIES_RADIUS[n + 1]) ** 2 / 4
    terms = [Fraction(1)]
    while terms[-1] * t_max ** (len(terms) - 1) >= Fraction(1, 2 ** 60):
        k = len(terms)
        terms.append(terms[-1] * 2 / (k * (2 * n + 1 + 2 * k)))
    return tuple(float(c) for c in reversed(terms[:-1]))


@functools.cache
def _elementary_table(n: int) -> tuple[float, ...]:
    """(2n+1)!!/2 a_k(m + 1/2), a_k = (m+k)! / (2^k k! (m-k)!) and
    m = |n + 1/2| - 1/2, highest k first."""
    m = max(n, 0)
    half = Fraction(math.factorial(2 * n + 2),
                    2 ** (n + 2) * math.factorial(n + 1))
    return tuple(float(half * Fraction(math.factorial(m + k), 2 ** k
                 * math.factorial(k) * math.factorial(m - k)))
                 for k in reversed(range(m + 1)))


def _horner(coeffs, t, trailing=0):
    """t^trailing times the polynomial of coeffs (highest power first), by
    products and sums that a scalar and an array round alike."""
    acc = 0.0
    for c in coeffs:
        acc = acc * t + c
    for _ in range(trailing):
        acc = acc * t
    return acc


def _series(nu: float, n: int | None, q):
    """Lambda_nu at z^2/4 = q (scalar or array) by its ascending series."""
    if n is not None:
        return _horner(_series_table(n), q)
    total = term = 1.0
    settled = np.all if isinstance(q, np.ndarray) else bool
    for k in range(1, SERIES_TERMS):
        term = term * q / (k * (nu + k))
        new = total + term
        if settled(new == total):
            break
        total = new
    return total


def _ive(nu: float, w, log):
    """(s, v) with e^s v = e^-|Re w| Lambda_nu(w): v = ive(nu, +-w) (Amos,
    ACM TOMS 644) on the side Re >= 0 (Lambda is even), s = ln Gamma(nu+1)
    - nu ln(+-w/2)."""
    from scipy.special import ive
    w = w * (1 - 2 * (w.real < 0.0))
    return math.lgamma(nu + 1.0) - nu * log(0.5 * w), ive(nu, w)


def _far(nu: float, n: int | None, w, exp, log):
    """e^-|Re w| Lambda_nu(w) off the series.  The elementary form, with
    t = 1/w and Q(t) = (2n+1)!!/2 t^(n+1) sum_k a_k(m + 1/2) t^k, is

        (-1)^(n+1) [e^(w - |Re w|) Q(-t) + e^(-w - |Re w|) Q(t)],

    an integer power of w, so no branch is chosen."""
    if n is None:
        shift, value = _ive(nu, w, log)
        return value * exp(shift)
    scale, coeffs, t = abs(w.real), _elementary_table(n), 1.0 / w
    return (-1) ** (n + 1) * (exp(w - scale) * _horner(coeffs, -t, n + 1)
                              + exp(-w - scale) * _horner(coeffs, t, n + 1))


def ratio(nu: float, z):
    """e^-|Re z| Lambda_nu(z) for a real (float) or complex z."""
    radius, n = _rule(nu)
    if abs(z) < radius or (n is None and _underflows(nu, z)):
        return _series(nu, n, 0.25 * z * z) * float(np.exp(-abs(z.real)))
    if isinstance(z, complex):
        return _far(nu, n, z, cmath.exp, cmath.log)
    return float(_far(nu, n, z, np.exp, np.log))


def ratio_array(nu: float, w) -> np.ndarray:
    """e^-|Re w| Lambda_nu(w) on a real or complex array, by ``ratio``'s
    routes."""
    radius, n = _rule(nu)
    w = np.asarray(w, dtype=complex if np.iscomplexobj(w) else float)
    out = np.empty_like(w)
    near = np.abs(w) < radius
    if n is None:
        near[~near] = _underflows(nu, w[~near])
    if near.any():
        wn = w[near]
        out[near] = _series(nu, n, 0.25 * wn * wn) * np.exp(-np.abs(wn.real))
    if not near.all():
        out[~near] = _far(nu, n, w[~near], np.exp, np.log)
    return out


# a state's normalization, amplitudes, parity mean, moments and overlaps
# all read its pair; typed, because a float and a complex z of equal value
# take different routes (math and numpy against cmath)
@functools.lru_cache(maxsize=64, typed=True)
def pair(epsilon: float, z):
    """(shift, a, b) with e^shift (a + b) = Lambda_{eps-1}(z) + z/(2 eps)
    Lambda_eps(z) = Gamma(eps) (I_{eps-1} + I_eps)(z) / (z/2)^(eps-1), the
    normalization's Bessel pair (1 at z = 0); e^shift (a - b) is the pair
    at -z.  shift = |Re z|, plus on ive's route (where ive of order eps is
    in range) ``_ive``'s s of order eps - 1.  DomainError where both terms
    underflow (past |z| = SERIES_MAX_RADIUS from eps ~ 1056)."""
    nu = epsilon - 1.0
    radius, n = _rule(nu)
    if n is not None or abs(z) < radius or _underflows(epsilon, z):
        out = (abs(z.real), ratio(nu, z),
               z / (2.0 * epsilon) * ratio(epsilon, z))
    else:
        log = cmath.log if isinstance(z, complex) else math.log
        shift, a = _ive(nu, z, log)
        sign = -1.0 if z.real < 0.0 else 1.0
        out = abs(z.real) + shift, a, sign * _ive(epsilon, z, log)[1]
    if out[1] == 0.0 and out[2] == 0.0:
        raise DomainError(f"the Bessel pair of eps = {epsilon} at z = {z} "
                          f"is below double range")
    return out


def log_pair(epsilon: float, z):
    """ln of the ``pair`` for real z (a float) or complex z (a complex
    logarithm of the same entire function), 0 at z = 0; for Re z < 0 its
    terms cancel, and a pair that cancels to zero is below round-off on
    the scale e^|Re z| and gives -inf."""
    shift, a, b = pair(epsilon, z)
    if a + b == 0.0:
        return -math.inf
    return shift + (cmath.log(a + b) if isinstance(z, complex)
                    else math.log(a + b))
