"""Special functions behind the closed forms, against independent oracles.

The package takes ln Gamma from ``math.lgamma`` (``scipy.special.gammaln``
is checked beside it).  Every modified Bessel I, of the normalization (real
and complex arguments) and of the half-line wavefunction, comes from
``bessel`` as Lambda_nu(z) = Gamma(nu+1) I_nu(z)/(z/2)^nu: the elementary
closed form of the half-odd orders (DLMF 10.49(ii)), the ascending series
(DLMF 10.25.2), and scipy's ``ive`` for other orders above their series
radius wherever it is in range.  sqrt(n!/(alpha+1)_n) (-zeta)^n
L_n^alpha(x/zeta) comes from the package's own normalized recurrence.
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

from parabose import bessel, coordrep
from parabose.bessel import log_pair
from parabose.errors import DomainError
from parabose.fock import AlgebraParams
from parabose.states import CsSpec, _LaguerreColumn, \
    cs_transition, mean_reflection, svs_transition

mpmath.mp.dps = 40


def laguerre_coefficient_sum(n, alpha, x):
    """Oracle: L_n^a(x) = sum_k binom(n+a, n-k) (-x)^k / k! in mpmath."""
    total = mpmath.mpf(0)
    xm = mpmath.mpc(x)
    for k in range(n + 1):
        total += mpmath.binomial(n + alpha, n - k) * (-xm) ** k / mpmath.factorial(k)
    return total


def bessel_ratio_mpmath(nu, w):
    """exp(-|Re w|) Gamma(nu+1) I_nu(w) / (w/2)^nu at 30 digits; at w = 0
    its limit 1."""
    with mpmath.workdps(30):
        wm = mpmath.mpc(w)
        if wm == 0:
            return 1.0 + 0.0j
        return complex(mpmath.besseli(nu, wm) * mpmath.gamma(nu + 1)
                       / (wm / 2) ** nu * mpmath.exp(-abs(wm.real)))


# 16 directions of w at multiples of pi/8, the four axes exact: I_nu has its
# zeros on the imaginary axis, which the figure family (Re w = 0) samples
DIRECTIONS = np.round(np.exp(1j * math.pi * np.arange(16) / 8), 15)
# levels whose Bessel orders have no elementary form: where ive underflows
# (from eps ~ 150 at y ~ 1) the normalization once took a three-term series
# far outside its range
LARGE_LEVELS = [170.5, 200.0, 400.0, 1000.0]
OFF_LATTICE_LEVELS = [0.7397438758804311, 3.3, 170.25, 333.3]
# Amos's ive(999, 1e4) is off 1.4e-13, and I_999 - I_1000 cancels tenfold
# there, so the parity ratio misses its 1e-12 by 1.4x, as the ive route
# before the series did (1.2x)
AMOS_LIMIT = pytest.mark.xfail(
    strict=True, reason="scipy's ive at order 999, y = 1e4 is off 1.4e-13")


def bessel_i(kappa, z):
    """I_kappa(z) from scipy's ive as ``bessel`` uses it past the series
    radius of orders without an elementary form: ive(kappa, z) exp(|Re z|)."""
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


def gamma_weight(n, alpha):
    """sqrt(n!/(alpha+1)_n) at 40 digits: what turns the scaled Laguerre
    value M_n = (-zeta)^n L_n^alpha(x / zeta) into the column entry e_n."""
    return mpmath.sqrt(mpmath.factorial(n) / mpmath.rf(alpha + 1, n))


class TestLaguerre:
    """e_n = sqrt(n!/(alpha+1)_n) (-zeta)^n L_n^alpha(x / zeta), the
    normalized recurrence column."""

    def test_degree_zero_and_one(self):
        for alpha, x, zeta in ((3.7, 2.0 + 5.0j, 0.4), (0.5, 1.0 + 2.0j, -0.3j),
                               (-0.5, -3.0, 0.9), (4.0, 0.0, 0.2 + 0.1j)):
            col = _LaguerreColumn(alpha, zeta, x).extend(2)
            # M_0 = 1 and the weight sqrt(0!/(alpha+1)_0) = 1, so e_0 is 1
            # exactly
            assert col[0] == float(gamma_weight(0, alpha)) == 1.0
            assert col[1] == pytest.approx(
                (x - zeta * (1.0 + alpha)) * float(gamma_weight(1, alpha)))

    def test_grown_column_equals_one_numpy_pass(self):
        # grown in pieces, across the storage chunks, the column equals (==)
        # one pass of the recurrence written out on Python complex, with
        # the same coefficients and the same division by
        # sqrt((n+1)(n+alpha+1))
        rng = np.random.default_rng(3)
        for _ in range(8):
            alpha = float(rng.uniform(-0.5, 6.0))
            # |zeta| near 1 keeps the entries past the first chunk nonzero
            zeta = complex(rng.uniform(0.93, 0.97)
                           * np.exp(2j * np.pi * rng.uniform()))
            x = complex(0.5 * (rng.uniform(0.0, 8.0)
                               * np.exp(2j * np.pi * rng.uniform())) ** 2)
            want = [1.0, (x - zeta * (1.0 + alpha)) / math.sqrt(alpha + 1.0)]
            for n in range(1, 8999):
                want.append(((x - zeta * (2.0 * n + 1.0 + alpha)) * want[n]
                             - zeta * zeta * math.sqrt(n * (n + alpha))
                             * want[n - 1])
                            / math.sqrt((n + 1.0) * (n + alpha + 1.0)))
            column = _LaguerreColumn(alpha, zeta, x)
            for length in (3, 17, 18, 150, 4100, 9000):
                column.extend(length)
            assert np.array_equal(column.values, want)
            assert want[-1] != 0.0

    def test_frozen_oracle_value(self):
        # zeta = -1 turns M_5 into L_5^alpha(-x); explicit-coefficient sum
        got = _LaguerreColumn(-0.5, -1.0, -(2.0 + 1.0j)).extend(6)[5]
        assert got == pytest.approx(
            (1.5471354166666667 + 0.3848958333333333j)
            * float(gamma_weight(5, -0.5)), rel=1e-12)

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
            n, alpha, mpmath.mpc(x) / mpmath.mpc(zeta)) * gamma_weight(n, alpha))
        got = _LaguerreColumn(alpha, zeta, x).extend(n + 1)[n]
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
        # Gamma(eps) (I_{eps-1}(y) + I_eps(y)) / (y/2)^(eps-1) -> 1
        assert log_pair(eps, 0.0) == 0.0
        assert mean_reflection(0.0, 0.0, eps) == 1.0

    def test_regularized_normalization_at_tiny_argument(self):
        # ive(4.5, y) is still a normal double here, so an ive route would
        # cancel ln(lo + hi) ~ -310 against 3.5 ln(y/2) and miss by 2.3e-14
        eps, y = 4.5, 1.27e-38
        lo = mpmath.besseli(eps - 1, y)
        hi = mpmath.besseli(eps, y)
        exact = float(mpmath.log((lo + hi) / mpmath.power(y / 2, eps - 1)
                                 * mpmath.gamma(eps)))
        assert abs(log_pair(eps, y) - exact) <= 1e-15

    @pytest.mark.parametrize("eps", [0.5, 1.7, 2.5, 6.5, *LARGE_LEVELS,
                                     *OFF_LATTICE_LEVELS])
    @pytest.mark.parametrize("z", [1e-5 + 2e-5j, 0.3 - 0.4j, 3.0 + 4.0j,
                                   10.0j, -2.0 + 1.0j, -20.0 - 5.0j,
                                   -7.0 + 0.0j, 40.0 - 30.0j])
    def test_complex_normalization_against_mpmath(self, eps, z):
        # the overlap's Bessel pair at complex z; for Re z < 0 the two terms
        # cancel, so the error is measured on the scale of the terms
        with mpmath.workdps(40):
            half = mpmath.mpc(z) / 2
            scale = mpmath.gamma(eps) / mpmath.power(half, eps - 1)
            lo = mpmath.besseli(eps - 1, z) * scale
            hi = mpmath.besseli(eps, z) * scale
        got = cmath.exp(log_pair(eps, z))
        assert abs(got - complex(lo + hi)) \
            <= 1e-13 * float(abs(lo) + abs(hi))

    @pytest.mark.parametrize("eps", [0.5, 2.5, 6.5, *LARGE_LEVELS[:3],
                                     pytest.param(1000.0, marks=AMOS_LIMIT),
                                     *OFF_LATTICE_LEVELS])
    def test_real_axis_normalization_against_mpmath(self, eps):
        # ln(I_{eps-1} + I_eps) and the parity ratio, across the small-y
        # series (y < 1e-3) and the old asymptotic seam at 600; log_pair
        # has Gamma(eps) / (y/2)^(eps-1) multiplied in, here taken out
        for y in (1e-300, 1e-8, 1.0, 50.0, 600.0, 601.0, 1e4):
            xi = math.sqrt(y)
            y = xi * xi  # the y that mean_reflection(0, xi, eps) forms
            lo = mpmath.besseli(eps - 1, y)
            hi = mpmath.besseli(eps, y)
            exact = float(mpmath.log(lo + hi))
            got = (log_pair(eps, y) - math.lgamma(eps)
                   + (eps - 1.0) * math.log(0.5 * y))
            assert abs(got - exact) <= 1e-14 * max(1.0, abs(exact))
            ratio = float((lo - hi) / (lo + hi))
            assert abs(mean_reflection(0.0, xi, eps) - ratio) \
                <= 1e-15 + 1e-12 * abs(ratio)


def test_pair_cache_is_typed_and_exact():
    # a float and a complex z of equal value take different routes, so
    # they keep separate entries; a pair out of double range raises on
    # every call, since an exception is not cached
    for order in ((3 + 0j, 3.0, np.float64(3.0)), (3.0, 3 + 0j)):
        bessel.pair.cache_clear()
        for z in order:
            got = bessel.pair(2.5, z)
            assert got == bessel.pair.__wrapped__(2.5, z)
            assert bessel.pair(2.5, z) == got
            assert all(isinstance(v, complex) == isinstance(z, complex)
                       for v in got[1:])
    size = bessel.pair.cache_info().currsize
    for _ in range(3):
        with pytest.raises(DomainError, match="below double range"):
            bessel.pair(1500.0, 750.0)
    assert bessel.pair.cache_info().currsize == size


class TestHalfOddBesselRatio:
    """``bessel.ratio_array`` at the half-odd orders n + 1/2: series below
    the order's radius, the elementary form above it up to
    ``ELEMENTARY_MAX_ORDER``, ``ive`` beyond."""

    @pytest.mark.parametrize(
        "n", range(-1, bessel.ELEMENTARY_MAX_ORDER + 3))
    def test_against_mpmath(self, n):
        # every elementary order and the first two past them; measured worst
        # 1.7e-14 for the elementary orders (n = 9) and 3.2e-14 past them
        # (n = 11).  ive(n + 1/2, w) / (w/2)^(n + 1/2) alone misses these
        # points by up to 4.4e-13 (n = 0) and is not finite at |w| = 1e-300
        radius = bessel._rule(n + 0.5)[0]
        moduli = [0.0, 1e-300, 1e-8, radius * (1 - 2 ** -51),
                  radius * (1 + 2 ** -51), *np.geomspace(0.01, 300.0, 25)]
        w = np.outer(moduli, DIRECTIONS).ravel()
        exact = np.array([bessel_ratio_mpmath(n + 0.5, v) for v in w])
        got = bessel.ratio_array(n + 0.5, w)
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-13

    @pytest.mark.parametrize(
        "n", range(-1, bessel.ELEMENTARY_MAX_ORDER + 3))
    def test_continuous_across_radius(self, n):
        # one ulp either side of the series radius on 64 directions, so the
        # two branches meet; measured worst 5e-14 (n = 9)
        radius = bessel._rule(n + 0.5)[0]
        d = np.exp(2j * math.pi * np.arange(64) / 64)
        below, above = d * radius * (1 - 2 ** -51), d * radius * (1 + 2 ** -51)
        assert np.all(np.abs(below) < radius)
        assert np.all(np.abs(above) >= radius)
        inner = bessel.ratio_array(n + 0.5, below)
        outer = bessel.ratio_array(n + 0.5, above)
        assert np.max(np.abs(outer - inner) / np.abs(inner)) <= 1e-13


class TestBesselRoutes:
    """``bessel``'s route rule off the elementary orders, and its two
    entries."""

    @pytest.mark.parametrize("nu", [-0.3, 0.7, 1.7, 10.5, 50.0, 169.5, 199.0,
                                    399.0, 599.0, 999.0])
    def test_general_orders_against_mpmath(self, nu):
        # all 16 directions out to |w| = 300, across the series radius, and
        # the real axis out past where the series yields to ive.  The series
        # keeps 1e-13 (measured worst 7.9e-15).  ive's value carries about nu
        # ulps from the power and Gamma(nu+1) taken in log space (5.3e-13 at
        # nu = 599), and Amos's own error grows with |w| where I_nu
        # oscillates (1.1e-13 at nu = 50, w = 300i; the same ive as before
        # the evaluator moved).  On the imaginary axis, where Lambda has its
        # zeros, ive's error is read against |H^(1)_nu|, whose real part is
        # J_nu (it is 1.7e-13 of Lambda at nu = -0.3, w = 17.8i, beside a
        # zero).  Where ive underflows off the real axis (from
        # nu ~ 395) the series serves, and its terms cancel by about
        # e^((Im w)^2 / (2 (nu+1))): no route here keeps those digits, so
        # that cancellation is their bound (measured at most 0.19 of it:
        # 1.0e-10 at nu = 599, |w| = 148, and no digit left at nu = 999,
        # w = 300i; the three-term fallback before was worse at each)
        radius = bessel._rule(nu)[0]
        moduli = [0.0, 1e-300, *np.geomspace(1e-8, 1.0, 5),
                  *np.geomspace(1.5, 300.0, 16),
                  radius * (1 - 2 ** -51), radius * (1 + 2 ** -51)]
        real = np.geomspace(1e-3, 2000.0, 24)
        w = np.concatenate([np.outer(moduli, DIRECTIONS).ravel(), real, -real])
        exact = np.array([bessel_ratio_mpmath(nu, v) for v in w])
        normal = np.abs(exact) > 1e-290  # at nu = 999 it underflows past 800
        w, exact = w[normal], exact[normal]
        series = np.abs(w) < radius
        series[~series] = bessel._underflows(nu, w[~series])
        lost = (np.abs(w) >= radius) & (w.imag != 0.0) & (np.abs(ive(
            nu, np.where(w.real < 0.0, -w, w))) < math.exp(-bessel.IVE_FLOOR))
        assert np.all(series[lost])
        bound = np.where(series, 1e-13, np.maximum(
            max(1e-13, 1e-15 * nu), 1e-15 * np.abs(w)))
        bound[lost] = 1e-15 * np.exp(w[lost].imag ** 2 / (2.0 * (nu + 1.0)))
        scale = np.abs(exact)
        axis = ~series & (w.real == 0.0)
        with mpmath.workdps(30):
            scale[axis] = [float(mpmath.gamma(nu + 1) * abs(mpmath.hankel1(
                nu, abs(v.imag))) / mpmath.mpf(abs(v.imag) / 2) ** nu)
                for v in w[axis]]
        got = bessel.ratio_array(nu, w)
        assert np.all(np.abs(got - exact) <= bound * scale)
        # the two sides of each switch on the real axis meet to ive's bound
        edges = [radius]
        if bessel._underflows(nu, radius):  # the series' reach, by bisection
            lo, hi = radius, bessel.SERIES_MAX_RADIUS
            while hi - lo > 1e-9 * hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if bessel._underflows(nu, mid) else (lo, mid)
            edges.append(hi)
        for edge in edges:
            sides = bessel.ratio_array(nu, edge * np.array(
                [1 - 2 ** -51, 1 + 2 ** -51, -1 + 2 ** -51, -1 - 2 ** -51]))
            bound = max(1e-13, 1e-15 * nu)
            assert abs(sides[1] - sides[0]) <= bound * sides[0]
            assert abs(sides[3] - sides[2]) <= bound * sides[2]

    def test_scalar_and_array_entries_agree(self):
        # on real arguments the scalar entry (the normalization) and the
        # array entry take the same route through the same tables with the
        # same roundings: within 1 ulp on every route (measured: equal).
        # Complex arguments agree to the evaluator's accuracy only, since
        # numpy rounds complex products and quotients its own way
        y = np.concatenate([[0.0, 1e-300, 1e-8], np.geomspace(1e-3, 1e9, 120)])
        y = np.concatenate([y, -y])
        for nu in [*(n + 0.5 for n in range(-1, 12)), -0.3, 1.7, 169.5, 999.0]:
            scalar = np.array([bessel.ratio(nu, float(v)) for v in y])
            assert np.all(np.abs(scalar - bessel.ratio_array(nu, y))
                          <= np.spacing(np.abs(scalar)))
