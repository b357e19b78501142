"""Special functions behind the closed forms, against independent oracles.

The package takes ln Gamma from ``math.lgamma`` (scalars) and
``scipy.special.gammaln`` (state columns) and the modified Bessel I of the
normalization from ``scipy.special.ive`` (real and complex arguments, in
``states``).  ``coordrep`` evaluates its half-odd orders I_{n+1/2}(w) itself:
the elementary closed form (DLMF 10.49(ii)) or the ascending series (DLMF
10.25.2), with ``ive`` only above order ``ELEMENTARY_MAX_ORDER + 1/2``.
(-zeta)^n L_n^alpha(x/zeta) comes from the package's own scaled recurrence.
Expected values are frozen from mpmath (30 to 50 digits) and from the
explicit binomial-coefficient Laguerre sum.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, ive

from parabose import coordrep
from parabose.errors import DomainError
from parabose.fock import AlgebraParams
from parabose.states import CsSpec, _log_i_sum, _scaled_laguerre_column, \
    cs_transition, mean_reflection, svs_transition

mpmath.mp.dps = 40


def laguerre_coefficient_sum(n, alpha, x):
    """Oracle: L_n^a(x) = sum_k binom(n+a, n-k) (-x)^k / k! in mpmath."""
    total = mpmath.mpf(0)
    xm = mpmath.mpc(x)
    for k in range(n + 1):
        total += mpmath.binomial(n + alpha, n - k) * (-xm) ** k / mpmath.factorial(k)
    return total


def bessel_ratio_mpmath(n, w):
    """exp(-|Re w|) I_{n+1/2}(w) / (w/2)^(n+1/2) at 30 digits; at w = 0 its
    limit 1/Gamma(n + 3/2)."""
    with mpmath.workdps(30):
        order = n + mpmath.mpf(1) / 2
        wm = mpmath.mpc(w)
        if wm == 0:
            return complex(1 / mpmath.gamma(order + 1))
        return complex(mpmath.besseli(order, wm) / (wm / 2) ** order
                       * mpmath.exp(-abs(wm.real)))


# 16 directions of w at multiples of pi/8, the four axes exact: I_nu has its
# zeros on the imaginary axis, which the figure family (Re w = 0) samples
DIRECTIONS = np.round(np.exp(1j * math.pi * np.arange(16) / 8), 15)


def bessel_i(kappa, z):
    """I_kappa(z) from scipy's ive as ``states`` uses it (and ``coordrep``
    past its elementary orders): ive(kappa, z) exp(|Re z|)."""
    z = complex(z)
    return complex(ive(kappa, z) * math.exp(abs(z.real)))


class TestLogGamma:
    # frozen mpmath values
    @pytest.mark.parametrize("x, expected", [
        (0.5, 0.5723649429247001),        # ln sqrt(pi)
        (1.0, 0.0),
        (2.0, 0.0),
        (7.5, 7.534364236758733),
        (200.0, 857.9336698258574),
    ])
    def test_reference_values(self, x, expected):
        assert math.lgamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)
        assert gammaln(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_oracle_grid(self):
        # relative accuracy over the window the state columns use, mixed
        # tolerance near the zeros of ln Gamma at x = 1, 2
        x = np.geomspace(0.5, 200.0, 97)
        for xv, col in zip(x, gammaln(x)):
            exact = float(mpmath.loggamma(mpmath.mpf(float(xv))))
            scale = 1e-13 * max(1.0, abs(exact))
            assert abs(col - exact) <= scale
            assert abs(math.lgamma(float(xv)) - exact) <= scale

    @given(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_functional_equation(self, x):
        assert gammaln(x + 1.0) - gammaln(x) == pytest.approx(
            math.log(x), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        # levels where Gamma(eps) is undefined or infinite never reach it
        with pytest.raises(DomainError):
            svs_transition(0.3, bad, 2)
        with pytest.raises(DomainError):
            CsSpec(zeta=0.3, xi=1.0, epsilon=bad)


class TestLaguerre:
    """M_n = (-zeta)^n L_n^alpha(x / zeta), the scaled recurrence column."""

    def test_degree_zero_and_one(self):
        for alpha, x, zeta in ((3.7, 2.0 + 5.0j, 0.4), (0.5, 1.0 + 2.0j, -0.3j),
                               (-0.5, -3.0, 0.9), (4.0, 0.0, 0.2 + 0.1j)):
            col = _scaled_laguerre_column(2, alpha, zeta, x)
            assert col[0] == 1.0
            assert col[1] == pytest.approx(x - zeta * (1.0 + alpha))

    def test_frozen_oracle_value(self):
        # zeta = -1 turns M_5 into L_5^alpha(-x); explicit-coefficient sum
        got = _scaled_laguerre_column(6, -0.5, -1.0, -(2.0 + 1.0j))[5]
        assert got == pytest.approx(1.5471354166666667 + 0.3848958333333333j,
                                    rel=1e-12)

    @given(
        n=st.integers(min_value=0, max_value=40),
        alpha=st.floats(min_value=-0.9, max_value=8.0),
        re=st.floats(min_value=-20.0, max_value=20.0),
        im=st.floats(min_value=-20.0, max_value=20.0),
        zeta_abs=st.floats(min_value=1e-3, max_value=0.95),
        zeta_arg=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_matches_coefficient_sum(self, n, alpha, re, im,
                                                zeta_abs, zeta_arg):
        x = complex(re, im)
        zeta = complex(zeta_abs * np.exp(1j * zeta_arg))
        exact = complex((-mpmath.mpc(zeta)) ** n * laguerre_coefficient_sum(
            n, alpha, mpmath.mpc(x) / mpmath.mpc(zeta)))
        got = _scaled_laguerre_column(n + 1, alpha, zeta, x)[n]
        assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))

    def test_domain(self):
        # degree, order (alpha = eps - 1 > -1) and argument are all gated
        # before the recurrence runs
        with pytest.raises(DomainError):
            cs_transition(0.3, 1.0, 2.5, -1)
        with pytest.raises(DomainError):
            CsSpec(zeta=0.3, xi=1.0, epsilon=-0.5)
        with pytest.raises(DomainError):
            CsSpec(zeta=0.3, xi=complex(math.inf, 0.0), epsilon=2.5)


class TestBesselI:
    def test_half_integer_closed_forms(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z, I_{-1/2}(z) = same with cosh
        assert bessel_i(0.5, 1.0) == pytest.approx(0.9376748882454876, rel=1e-12)
        assert bessel_i(-0.5, 1.0) == pytest.approx(1.2312002145929674, rel=1e-12)
        for z in (0.3, 2.7, 11.0, 30.0):
            expect = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
            assert bessel_i(0.5, z).real == pytest.approx(expect, rel=1e-11)

    def test_series_leading_terms_at_zero(self):
        assert bessel_i(2.0, 0.0) == 0.0
        assert bessel_i(0.3, 0.0) == 0.0
        assert bessel_i(0.0, 0.0) == 1.0
        assert not math.isfinite(ive(-0.5, 0.0))
        # x = 0 is an ordinary input of the regularized form, continuous
        # with x -> 0+
        for ell in (0, 1):
            spec = CsSpec(zeta=0.3 + 0.2j, xi=0.7 - 0.4j, epsilon=2 * ell + 0.5)
            params = AlgebraParams.from_ell(ell)
            at0 = coordrep.cs_wavefunction(spec, params, 0.0)
            near = coordrep.cs_wavefunction(spec, params, 1e-12)
            assert abs(at0 - near) <= 1e-10

    @pytest.mark.parametrize("kappa", [0.5, 1.5, 2.5])
    def test_recurrence_consistency(self, kappa):
        # I_{k-1}(z) - I_{k+1}(z) = (2 k / z) I_k(z), on and off the real axis
        for z in np.concatenate([np.linspace(0.05, 30.0, 40),
                                 np.linspace(0.05, 30.0, 40) * np.exp(1.2j)]):
            lhs = bessel_i(kappa - 1.0, z) - bessel_i(kappa + 1.0, z)
            rhs = 2.0 * kappa / z * bessel_i(kappa, z)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_half_integer_ladder_from_elementary_seeds(self):
        # climb I_{k+1} = I_{k-1} - (2k/z) I_k from the sinh/cosh seeds up to
        # order 2l + 1/2; upward recurrence in the order is only stable for
        # z comfortably above the order, so the ladder oracle stays there
        for z in (9.0, 16.0, 30.0):
            lo = math.sqrt(2.0 / (math.pi * z)) * math.cosh(z)   # order -1/2
            hi = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)   # order +1/2
            order = 0.5
            while order < 6.0:
                lo, hi = hi, lo - (2.0 * order / z) * hi
                order += 1.0
                assert bessel_i(order, z).real == pytest.approx(hi, rel=1e-10)

    def test_complex_argument_against_mpmath(self):
        for z in (1.0 + 1.0j, 5.0 - 3.0j, 0.2 + 10.0j, 12.0 + 6.0j,
                  3.0 + 30.0j, -5.0 + 25.0j, 30.0 + 30.0j):
            for kappa in (-0.5, 0.5, 2.5, 4.5, 6.5):
                exact = complex(mpmath.besseli(kappa, mpmath.mpc(z)))
                got = bessel_i(kappa, z)
                assert abs(got - exact) <= 1e-11 * max(abs(exact), 1e-30)

    def test_strongly_imaginary_cancellation_absorbed(self):
        # on the imaginary axis I_k(iy) = i^k J_k(y): no cancellation to absorb,
        # so the accuracy holds well beyond |Im z| ~ 18
        for z in (10.0j, 18.0j, 25.0j, 40.0j):
            for kappa in (-0.5, 1.5):
                exact = complex(mpmath.besseli(kappa, mpmath.mpc(z)))
                got = bessel_i(kappa, z)
                assert abs(got - exact) <= 1e-11 * abs(exact)

    def test_domain_and_overflow(self):
        # the scaled function stays finite where I itself overflows, and the
        # wavefunction folds exp(|Re w|) into its Gaussian exponent, so a
        # large real displacement (|Re w| ~ 1e3) is evaluated, not refused
        assert 0.0 < ive(0.5, 800.0) < 1.0
        spec = CsSpec(zeta=0.0, xi=25.0, epsilon=2.5)
        wg = coordrep.probability_density(spec, AlgebraParams.from_ell(1))
        assert np.all(np.isfinite(wg.psi_values))
        assert abs(wg.parity_norm - 1.0) <= 1e-8

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.5, 6.5])
    def test_regularized_normalization_at_zero(self, eps):
        # (I_{eps-1}(y) + I_eps(y)) / (y/2)^(eps-1) -> 1/Gamma(eps)
        assert _log_i_sum(eps, 0.0) == -math.lgamma(eps)
        assert mean_reflection(0.0, 0.0, eps) == 1.0

    def test_regularized_normalization_at_tiny_argument(self):
        # ive(4.5, y) is still a normal double here, so the ive route would
        # cancel ln(lo + hi) ~ -310 against 3.5 ln(y/2) and miss by 2.3e-14
        eps, y = 4.5, 1.27e-38
        lo = mpmath.besseli(eps - 1, y)
        hi = mpmath.besseli(eps, y)
        exact = float(mpmath.log((lo + hi) / mpmath.power(y / 2, eps - 1)))
        assert abs(_log_i_sum(eps, y) - exact) <= 1e-15

    @pytest.mark.parametrize("eps", [0.5, 1.7, 2.5, 6.5])
    @pytest.mark.parametrize("z", [1e-5 + 2e-5j, 0.3 - 0.4j, 3.0 + 4.0j,
                                   10.0j, -2.0 + 1.0j, -20.0 - 5.0j,
                                   -7.0 + 0.0j, 40.0 - 30.0j])
    def test_complex_normalization_against_mpmath(self, eps, z):
        # the overlap's Bessel pair at complex z; for Re z < 0 the two terms
        # cancel, so the error is measured on the scale of the terms
        with mpmath.workdps(40):
            half = mpmath.mpc(z) / 2
            lo = mpmath.besseli(eps - 1, z) / mpmath.power(half, eps - 1)
            hi = mpmath.besseli(eps, z) / mpmath.power(half, eps - 1)
        got = cmath.exp(_log_i_sum(eps, z))
        assert abs(got - complex(lo + hi)) \
            <= 1e-13 * float(abs(lo) + abs(hi))

    @pytest.mark.parametrize("eps", [0.5, 2.5, 6.5])
    def test_real_axis_normalization_against_mpmath(self, eps):
        # ln(I_{eps-1} + I_eps) and the parity ratio, across the small-y
        # series (y < 1e-3) and the old asymptotic seam at 600;
        # _log_i_sum has (y/2)^(eps-1) divided out, here restored
        for y in (1e-300, 1e-8, 1.0, 50.0, 600.0, 601.0, 1e4):
            xi = math.sqrt(y)
            y = xi * xi  # the y that mean_reflection(0, xi, eps) forms
            lo = mpmath.besseli(eps - 1, y)
            hi = mpmath.besseli(eps, y)
            exact = float(mpmath.log(lo + hi))
            got = _log_i_sum(eps, y) + (eps - 1.0) * math.log(0.5 * y)
            assert abs(got - exact) <= 1e-14 * max(1.0, abs(exact))
            ratio = float((lo - hi) / (lo + hi))
            assert abs(mean_reflection(0.0, xi, eps) - ratio) \
                <= 1e-15 + 1e-12 * abs(ratio)


class TestHalfOddBesselRatio:
    """``coordrep._bessel_ratio``: series below the order's radius, the
    elementary form above it up to ``ELEMENTARY_MAX_ORDER``, ``ive`` beyond."""

    @pytest.mark.parametrize(
        "n", range(-1, coordrep.ELEMENTARY_MAX_ORDER + 3))
    def test_against_mpmath(self, n):
        # every elementary order and the first two on ive; measured worst
        # 3.1e-14 for the elementary orders (n = 9) and 3.5e-14 on ive
        # (n = 11).  ive(n + 1/2, w) / (w/2)^(n + 1/2) alone misses these
        # points by up to 4.4e-13 (n = 0) and is not finite at |w| = 1e-300
        radius = coordrep._series_radius(n)
        moduli = [0.0, 1e-300, 1e-8, radius * (1 - 2 ** -51),
                  radius * (1 + 2 ** -51), *np.geomspace(0.01, 300.0, 25)]
        w = np.outer(moduli, DIRECTIONS).ravel()
        exact = np.array([bessel_ratio_mpmath(n, v) for v in w])
        got = coordrep._bessel_ratio(n, w)
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-13

    @pytest.mark.parametrize(
        "n", range(-1, coordrep.ELEMENTARY_MAX_ORDER + 3))
    def test_continuous_across_radius(self, n):
        # one ulp either side of the series radius on 64 directions, so the
        # two branches meet; measured worst 5e-14 (n = 9)
        radius = coordrep._series_radius(n)
        d = np.exp(2j * math.pi * np.arange(64) / 64)
        below, above = d * radius * (1 - 2 ** -51), d * radius * (1 + 2 ** -51)
        assert np.all(np.abs(below) < radius)
        assert np.all(np.abs(above) >= radius)
        inner = coordrep._bessel_ratio(n, below)
        outer = coordrep._bessel_ratio(n, above)
        assert np.max(np.abs(outer - inner) / np.abs(inner)) <= 1e-13
