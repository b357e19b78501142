"""State constructors: normalization, reductions, transitions, overlaps."""

import cmath
import dataclasses
import hashlib
import inspect
import math
import pathlib
import re
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import parabose.states as states
from parabose.completeness import diagonal_identity_residual
from parabose.dynamics import solve_zeta_xi
from parabose.errors import ConfigError, DomainError, TruncationError
from parabose.fock import AlgebraParams, build_ladder
from parabose.schedules import constant_schedule
from parabose.states import CsSpec, SvsSpec, cs_amplitudes, cs_overlap, \
    cs_transition, mean_reflection, set_sabotage, svs_amplitudes, \
    svs_overlap, svs_transition

zeta_st = st.tuples(
    st.floats(min_value=0.0, max_value=0.8),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
).map(lambda p: p[0] * np.exp(1j * p[1]))
eps_st = st.floats(min_value=0.5, max_value=6.0)

# coherent states with truncations N = 1620, 1274 and 1454
LONG_STATES = [
    (0.75 * np.exp(2.24j), 7.3 * np.exp(2.68j), 2.5),
    (0.75 * np.exp(2.26j), 7.6 * np.exp(-1.06j), 4.5),
    (0.75 * np.exp(-1.17j), 7.0 * np.exp(-1.92j), 1.5),
]
LONG_IDS = ["eps2.5", "eps4.5", "eps1.5"]


def amplitude_mpmath(zeta, xi, eps, n, dps=30):
    """c_n of the coherent state (theta = 0) from the closed form at dps
    digits, as a Python complex."""
    return complex(amplitude_mp(zeta, xi, eps, n, dps))


def amplitude_mp(zeta, xi, eps, n, dps=30):
    """c_n of the coherent state (theta = 0) from the closed form at dps
    digits, with mpmath's Laguerre function and Gamma, as an mpc; at
    zeta = 0, (-zeta)^m L_m^alpha(xi^2/(2 zeta)) is its limit
    (xi^2/2)^m / m!."""
    with mpmath.workdps(dps):
        z, x, e = mpmath.mpc(zeta), mpmath.mpc(xi), mpmath.mpf(eps)
        one = 1 - abs(z) ** 2
        m, parity = divmod(n, 2)
        y = abs(x) ** 2 / one
        pre = ((x / mpmath.sqrt(2)) ** (e - 1)
               * mpmath.sqrt(one / (mpmath.besseli(e - 1, y)
                                    + mpmath.besseli(e, y)))
               * mpmath.exp(mpmath.conj(z) * x * x / (2 * one)))
        if z:
            lag = (-z) ** m * mpmath.laguerre(m, e - 1 + parity,
                                              x * x / (2 * z))
        else:
            lag = (x * x / 2) ** m / mpmath.factorial(m)
        c = (pre * lag
             * mpmath.sqrt(mpmath.factorial(m) / mpmath.gamma(m + e + parity)))
        if parity:
            c *= x / mpmath.sqrt(2)
        return c


class TestSvsAmplitudes:
    def test_zero_squeeze_is_vacuum(self):
        v = svs_amplitudes(SvsSpec(zeta=0.0, epsilon=3.1, theta=0.7))
        assert v.amplitudes[0] == pytest.approx(np.exp(0.7j))
        assert np.max(np.abs(v.amplitudes[1:])) == 0.0

    def test_odd_amplitudes_vanish_exactly(self):
        v = svs_amplitudes(SvsSpec(zeta=0.4 + 0.2j, epsilon=2.5))
        assert np.max(np.abs(v.amplitudes[1::2])) == 0.0

    def test_normalization_series_oracle(self):
        # binomial series: sum Gamma(n+eps) q^n / (n! Gamma(eps)) = (1-q)^-eps
        zeta, eps = 0.3, 2.5
        q = zeta**2
        direct = sum(
            math.exp(math.lgamma(n + eps) - math.lgamma(n + 1.0)
                     - math.lgamma(eps))
            * q**n for n in range(200))
        assert direct == pytest.approx((1.0 - q) ** (-eps), rel=1e-13)
        v = svs_amplitudes(SvsSpec(zeta=zeta, epsilon=eps))
        assert abs(v.norm_sq() - 1.0) <= 1e-12

    def test_canonical_reduction_coefficients(self):
        # eps = 1/2, zeta = e^{i th} tanh r:
        # c_2n = sqrt((2n)!)/(2^n n!) (-zeta)^n / sqrt(cosh r)
        r, th = 0.9, 1.3
        zeta = np.exp(1j * th) * np.tanh(r)
        v = svs_amplitudes(SvsSpec(zeta=zeta, epsilon=0.5))
        for n in range(v.truncation // 2):
            expect = (math.exp(0.5 * math.lgamma(2 * n + 1.0)
                               - math.lgamma(n + 1.0) - n * math.log(2.0))
                      * (-zeta) ** n / math.sqrt(math.cosh(r)))
            assert abs(v.amplitudes[2 * n] - expect) < 1e-12

    @given(zeta=zeta_st, eps=eps_st)
    @settings(max_examples=40, deadline=None)
    def test_normalized_property(self, zeta, eps):
        v = svs_amplitudes(SvsSpec(zeta=zeta, epsilon=eps))
        assert abs(v.norm_sq() - 1.0) <= 1e-9

    def test_nan_norm_warns(self, monkeypatch):
        # |NaN - 1| > NORM_WARN_TOL is False: a NaN norm used to pass quietly
        column = states._svs_coefficient_column

        def planted(*args):
            out = column(*args).copy()
            out[1] = math.nan
            return out

        monkeypatch.setattr(states, "_svs_coefficient_column", planted)
        with pytest.warns(RuntimeWarning, match="normalization residual nan"):
            svs_amplitudes(SvsSpec(zeta=0.3, epsilon=2.5))

    def test_truncation_override_rules(self):
        spec = SvsSpec(zeta=0.3, epsilon=2.5)
        auto = svs_amplitudes(spec).truncation
        up = svs_amplitudes(spec, truncation=auto + 40)
        assert up.truncation == auto + 40
        with pytest.raises(TruncationError):
            svs_amplitudes(spec, truncation=max(2, auto - 10))
        with pytest.raises(ConfigError):
            svs_amplitudes(spec, truncation=auto + 41)  # odd

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SvsSpec(zeta=0.9999999, epsilon=2.5)
        with pytest.raises(DomainError):
            SvsSpec(zeta=0.3, epsilon=0.4)


class TestSvsTransition:
    def test_frozen_values(self):
        # direct high-precision evaluation of the closed form
        assert svs_transition(0.3, 0.5, 0) == pytest.approx(
            0.9539392014169456, rel=1e-13)
        assert svs_transition(0.3, 0.5, 1) == pytest.approx(
            0.04292726406376255, rel=1e-13)

    def test_zero_squeeze(self):
        assert svs_transition(0.0, 1.5, 0) == 1.0
        assert svs_transition(0.0, 1.5, 3) == 0.0

    def test_dispersion_grows_with_level(self):
        spread = []
        for eps in (0.5, 2.5, 4.5, 6.5):
            probs = [svs_transition(0.3, eps, n) for n in range(60)]
            spread.append(max(n for n, p in enumerate(probs) if p > 1e-3))
        assert spread == sorted(spread) and len(set(spread)) == len(spread)

    @given(zeta=zeta_st, eps=eps_st, n=st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_in_unit_interval(self, zeta, eps, n):
        p = svs_transition(zeta, eps, n)
        assert 0.0 <= p <= 1.0

    def test_sabotage_hook_breaks_the_sum(self):
        try:
            set_sabotage(True)
            total = sum(svs_transition(0.3, 2.5, n) for n in range(60))
            assert abs(total - 1.0) > 1e-3
        finally:
            set_sabotage(False)
        total = sum(svs_transition(0.3, 2.5, n) for n in range(60))
        assert abs(total - 1.0) < 1e-12

    def test_line_column_checks_its_state_once(self, monkeypatch):
        check = states._check_state_inputs
        calls = []
        monkeypatch.setattr(states, "_check_state_inputs",
                            lambda *a: calls.append(a) or check(*a))
        zeta, eps = 0.41 - 0.23j, 3.3
        column = [svs_transition(zeta, eps, n) for n in range(30)]
        assert len(calls) == 1
        assert column[29] == svs_transition(complex(zeta), eps, 29.0)
        assert len(calls) == 1
        for _ in range(2):
            with pytest.raises(DomainError, match="zeta"):
                svs_transition(1.0, eps, 0)
        assert len(calls) == 3

    def test_sabotage_flag_is_part_of_the_key(self, monkeypatch):
        # the same constant objects before and after a flip of the flag
        # itself, not through set_sabotage
        zeta, eps = 0.3, 2.5
        clean = sum(svs_transition(zeta, eps, n) for n in range(60))
        monkeypatch.setattr(states, "_SABOTAGE_TRANSITION", True)
        broken = sum(svs_transition(zeta, eps, n) for n in range(60))
        assert abs(broken - clean) > 1e-3
        monkeypatch.setattr(states, "_SABOTAGE_TRANSITION", False)
        assert sum(svs_transition(zeta, eps, n) for n in range(60)) == clean

    def test_mutated_array_reads_its_new_value(self):
        want = svs_transition(0.5, 2.5, 4)
        zeta, eps = np.array(0.3), np.array(2.5)
        assert svs_transition(zeta, eps, 4) != want
        zeta[()] = 0.5
        assert svs_transition(zeta, eps, 4) == want
        eps[()] = 4.5
        assert svs_transition(zeta, eps, 4) == svs_transition(0.5, 4.5, 4)
        # the coherent family reads the same table
        want = cs_transition(0.5, 1.0, 2.5, 4)
        zeta = np.array(0.3)
        assert cs_transition(zeta, 1.0, 2.5, 4) != want
        zeta[()] = 0.5
        assert cs_transition(zeta, 1.0, 2.5, 4) == want

    def test_equal_numbers_share_a_state(self, monkeypatch):
        check = states._check_state_inputs
        calls = []
        monkeypatch.setattr(states, "_check_state_inputs",
                            lambda *a: calls.append(a) or check(*a))
        svs_transition(0.1, 1.5, 0)
        calls.clear()
        lines = {svs_transition(zeta, eps, 7)
                 for zeta, eps in ((0.35, 1.5), (np.float64(0.35), 1.5),
                                   (0.35 + 0j, np.float64(1.5)),
                                   (np.complex128(0.35), np.float32(1.5)))}
        assert len(lines) == 1 and len(calls) == 1


class TestSvsOverlap:
    def test_normalization_and_vacuum_limit(self):
        s = SvsSpec(zeta=0.4 + 0.1j, epsilon=2.5, theta=0.3)
        assert svs_overlap(s, s) == pytest.approx(1.0, abs=1e-14)
        s0 = SvsSpec(zeta=0.0, epsilon=2.5)
        s1 = SvsSpec(zeta=0.37, epsilon=2.5)
        assert svs_overlap(s0, s1) == pytest.approx(
            (1.0 - 0.37**2) ** 1.25, rel=1e-13)

    def test_matches_amplitude_series(self, rng):
        for _ in range(8):
            eps = rng.uniform(0.5, 5.0)
            s1 = SvsSpec(zeta=rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform()),
                         epsilon=eps, theta=rng.uniform(0, 6))
            s2 = SvsSpec(zeta=rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform()),
                         epsilon=eps, theta=rng.uniform(0, 6))
            n = 2 * max(states._svs_pairs(abs(s1.zeta), eps),
                        states._svs_pairs(abs(s2.zeta), eps))
            v1, v2 = svs_amplitudes(s1, n), svs_amplitudes(s2, n)
            closed = svs_overlap(s1, s2)
            assert abs(closed - v1.overlap(v2)) <= 1e-10
            assert abs(closed) <= 1.0 + 1e-12

    def test_level_mismatch(self):
        with pytest.raises(DomainError):
            svs_overlap(SvsSpec(zeta=0.1, epsilon=1.5),
                        SvsSpec(zeta=0.1, epsilon=2.5))


def zero_squeeze_reference(xi, eps, theta, n_total):
    """Direct zero-squeeze coherent series: prefactor over the Bessel sum,
    even terms (xi^2/2)^n / sqrt(n! Gamma(n+eps)), odd with xi/sqrt(2)."""
    y = abs(xi) ** 2
    pre = ((xi / math.sqrt(2.0)) ** (eps - 1.0)
           / math.sqrt(mpmath.besseli(eps - 1.0, y) + mpmath.besseli(eps, y))
           * np.exp(1j * theta))
    amps = np.zeros(n_total, dtype=complex)
    for n in range(n_total // 2):
        log_even = -0.5 * (math.lgamma(n + 1.0) + math.lgamma(n + eps))
        log_odd = -0.5 * (math.lgamma(n + 1.0)
                          + math.lgamma(n + eps + 1.0))
        amps[2 * n] = pre * (xi * xi / 2.0) ** n * math.exp(log_even)
        amps[2 * n + 1] = pre * xi / math.sqrt(2.0) \
            * (xi * xi / 2.0) ** n * math.exp(log_odd)
    return amps


class TestCsAmplitudes:
    def test_zero_squeeze_limit_series(self):
        # the uniform evaluation must land exactly on the zeta = 0 series
        xi, eps, theta = 0.9 + 0.4j, 2.5, 0.31
        v = cs_amplitudes(CsSpec(zeta=0.0, xi=xi, epsilon=eps, theta=theta))
        ref = zero_squeeze_reference(xi, eps, theta, v.truncation)
        assert np.max(np.abs(v.amplitudes - ref)) < 1e-13

    def test_zero_squeeze_continuity(self):
        # gap to the limit series shrinks linearly in |zeta|
        xi, eps = 0.9 + 0.4j, 2.5
        gaps = []
        for mag in (1e-5, 1e-7):
            v = cs_amplitudes(CsSpec(zeta=mag * np.exp(0.6j), xi=xi, epsilon=eps))
            ref = zero_squeeze_reference(xi, eps, 0.0, v.truncation)
            gaps.append(np.max(np.abs(v.amplitudes - ref)))
        assert gaps[0] < 1e-4 and gaps[1] < 1e-6
        assert gaps[1] < gaps[0] * 1e-1

    def test_canonical_coherent_state(self):
        # eps = 1/2, zeta = 0: exp(-|xi|^2/2) xi^n / sqrt(n!) up to a phase
        xi = 0.8 + 0.3j
        v = cs_amplitudes(CsSpec(zeta=0.0, xi=xi, epsilon=0.5))
        canon = np.array([
            np.exp(-abs(xi) ** 2 / 2.0) * xi ** n
            * math.exp(-0.5 * math.lgamma(n + 1.0))
            for n in range(v.truncation)])
        phase = v.amplitudes[0] / canon[0]
        assert abs(abs(phase) - 1.0) < 1e-13
        assert np.max(np.abs(v.amplitudes - phase * canon)) < 1e-12

    def test_zero_displacement_collapses_to_svs(self):
        zeta, eps, theta = 0.4 + 0.1j, 2.5, 0.9
        v = cs_amplitudes(CsSpec(zeta=zeta, xi=0.0, epsilon=eps, theta=theta))
        s = svs_amplitudes(SvsSpec(zeta=zeta, epsilon=eps, theta=theta),
                           truncation=v.truncation)
        assert np.max(np.abs(v.amplitudes - s.amplitudes)) < 1e-14
        assert np.max(np.abs(v.amplitudes[1::2])) == 0.0

    def test_eigenrelation(self):
        # (a + zeta a' - xi) annihilates the state (eigenvalue route)
        zeta, xi, eps = 0.45, 1.0j, 2.5
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=eps)
        n = 2 * (states._cs_pairs(zeta, xi, eps) + 64)
        v = cs_amplitudes(spec, truncation=n)
        a, ad, _ = build_ladder(AlgebraParams(epsilon=eps), n)
        op = a + zeta * ad - xi * np.eye(n)
        assert np.linalg.norm(op @ v.amplitudes) <= 1e-8

    @given(zeta=zeta_st, eps=eps_st,
           xi_mag=st.floats(min_value=0.0, max_value=2.0),
           xi_arg=st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_normalized_property(self, zeta, eps, xi_mag, xi_arg):
        xi = xi_mag * np.exp(1j * xi_arg)
        v = cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
        assert abs(v.norm_sq() - 1.0) <= 1e-9

    def test_negative_real_displacement_branch(self):
        # displacement exactly on the negative real axis: the prefactor power
        # takes the branch from above; observables stay consistent
        v = cs_amplitudes(CsSpec(zeta=0.3, xi=-1.0, epsilon=2.5))
        assert abs(v.norm_sq() - 1.0) <= 1e-12
        for n in range(10):
            assert abs(cs_transition(0.3, -1.0, 2.5, n)
                       - abs(v.amplitudes[n]) ** 2) <= 1e-12
        a, ad, _ = build_ladder(AlgebraParams(epsilon=2.5), v.truncation)
        op = a + 0.3 * ad + 1.0 * np.eye(v.truncation)
        assert np.linalg.norm(op @ v.amplitudes) <= 1e-8

    def test_column_overflow_fails_loudly(self):
        # the pair masses before normalization peak near exp(y), y =
        # |xi|^2/(1-|zeta|^2): the truncation search once settled on 2
        # pairs past double range, and then raised DomainError from y ~ 722
        # (at eps = 400, y = 3000, a bare ValueError first).  The columns
        # are now scaled by P_0 = |pre|^2, so these states read, and a state
        # whose P_0 is below e^-2125 raises at once, naming y and the bound,
        # and leaves nothing in the cache
        assert cs_amplitudes(CsSpec(zeta=0.0, xi=26j, epsilon=2.5)) \
            .truncation == 902
        for xi, eps in ((27j, 2.5), (30j, 2.5), (math.sqrt(3000.0), 400.0)):
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v = cs_amplitudes(CsSpec(zeta=0.0, xi=xi, epsilon=eps))
            assert time.perf_counter() - start < 1.0
            assert abs(v.norm_sq() - 1.0) <= 1e-12
        # ln P_0 = -2286 at y = 1758, and -2485 at y = 2500
        for zeta, xi, eps, y in ((-0.3, 40.0, 0.5, "1758.24"),
                                 (0.0, 50.0, 2.5, "2500")):
            size = states._state.cache_info().currsize
            start = time.perf_counter()
            with pytest.raises(DomainError,
                               match=f"y = .* = {y} .* below the -2125"):
                cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
            with pytest.raises(DomainError, match=f"y = .* = {y} "):
                cs_transition(zeta, xi, eps, 3)
            assert time.perf_counter() - start < 1.0
            assert states._state.cache_info().currsize == size

    def test_bessel_pair_below_double_range_fails_loudly(self):
        # past |z| = 700, from eps ~ 1056, ive underflows and the series'
        # scale e^-|z| does too; the normalization then raised a bare
        # OverflowError and the parity mean read NaN (the three-term
        # fallback before read it 3% off, 0.600 for 0.618)
        xi, eps = math.sqrt(750.0), 1500.0
        with pytest.raises(DomainError, match="below double range"):
            cs_amplitudes(CsSpec(zeta=0.0, xi=xi, epsilon=eps))
        with pytest.raises(DomainError, match="below double range"):
            mean_reflection(0.0, xi, eps)

    @pytest.mark.parametrize("xi", [26.88, 26.9, 26.93])
    def test_mass_sum_overflow_fails_loudly(self, xi):
        # y ~ 722-725: every pair mass before normalization is finite but
        # their sum is not; the search once read the inf total as a
        # converged tail and returned a 4-entry vector of norm 0, and then
        # raised DomainError.  Scaled by P_0 the sum is about 1, and the
        # state reads whole
        v = cs_amplitudes(CsSpec(zeta=0.0, xi=xi, epsilon=2.5))
        assert v.truncation > 900
        assert abs(v.norm_sq() - 1.0) <= 1e-12
        peak = int(np.argmax(np.abs(v.amplitudes)))
        assert abs(v.amplitudes[peak]) == pytest.approx(
            abs(amplitude_mpmath(0.0, xi, 2.5, peak, dps=40)),
            rel=1e-12, abs=0.0)

    def test_overflow_verdict_ignores_column_scale(self):
        # below eps = 1 the scale once had two more branches (3 for the even
        # weight, 1 for Gamma(eps)^(1/2)), and an overflow verdict on the
        # unscaled sum raised from y ~ 711.8 at eps = 0.75.  One rule now
        # holds at every eps: s = floor(-log_4 P_0), so the even lines'
        # factor 4^s P_0 is in (1/4, 1], and the state past the old edge
        # reads whole
        xi, eps = 26.69, 0.75
        assert cs_amplitudes(CsSpec(zeta=0.0, xi=26.6, epsilon=eps)) \
            .truncation == 940
        v = cs_amplitudes(CsSpec(zeta=0.0, xi=xi, epsilon=eps))
        assert abs(v.norm_sq() - 1.0) <= 1e-12
        state = states._state(0j, complex(xi), eps)
        log_p0 = 2.0 * math.log(abs(v.amplitudes[0]))
        assert state.scale == math.floor(-0.5 * log_p0 / math.log(2.0))
        assert 0.25 < state.factors[0] <= 1.0

    @pytest.mark.parametrize("zeta, xi, eps", LONG_STATES, ids=LONG_IDS)
    def test_amplitudes_against_mpmath(self, zeta, xi, eps):
        # every 15th amplitude of a state with N = 1274 to 1620 within 2e-13
        # relative of 30-digit mpmath (about 1e-13 at most); the Gamma
        # weights ln n! - ln Gamma(n+alpha+1), as a difference of two
        # gammaln values, once cost up to 6.5e-13
        amps = cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps)).amplitudes
        assert len(amps) > 1000
        errors = []
        for n in range(0, len(amps), 15):
            ref = amplitude_mpmath(zeta, xi, eps, n)
            if abs(ref) ** 2 >= 1e-300:
                errors.append(abs(amps[n] - ref) / abs(ref))
        assert len(errors) > 80
        assert max(errors) < 2e-13

    @pytest.mark.parametrize("eps", [170.5, 200.0])
    def test_large_epsilon_amplitudes_against_mpmath(self, eps):
        # |e_n| ~ Gamma(eps)^(-1/2) underflowed through the truncation
        # search's window, which at eps = 200 then scanned to MAX_PAIRS and
        # raised TruncationError
        zeta, xi = 0.5j, 3.0 - 1.0j
        amps = cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps)).amplitudes
        assert len(amps) > 300
        for n in range(0, len(amps), 15):
            ref = amplitude_mpmath(zeta, xi, eps, n)
            assert abs(amps[n] - ref) < 2e-13 * abs(ref)

    @pytest.mark.parametrize("zeta_abs", [0.98, 0.99, 0.999])
    def test_deep_squeeze_truncation_search(self, zeta_abs):
        # the smoothed window ratio is floored at |zeta|^2, so past
        # |zeta|^2 = 0.95 the search once scanned to MAX_PAIRS (~1 s a state)
        spec = CsSpec(zeta=zeta_abs * np.exp(0.3j), xi=0.5, epsilon=2.5)
        start = time.perf_counter()
        n_pairs = cs_amplitudes(spec).truncation // 2
        assert time.perf_counter() - start < 0.5
        # the pair masses |c_2n|^2 + |c_{2n+1}|^2 over |pre|^2, eight times
        # further out
        even, odd = states._state(
            complex(spec.zeta), complex(spec.xi),
            spec.epsilon).grow(8 * n_pairs)[:8 * n_pairs].T
        w = np.abs(even) ** 2 + 0.5 * abs(spec.xi) ** 2 / spec.epsilon \
            * np.abs(odd) ** 2
        assert np.sum(w[n_pairs:]) < states.CS_TAIL_BOUND * np.sum(w)

    def test_search_window_columns_reused(self, monkeypatch):
        # the amplitudes slice the columns the truncation search grew (its
        # last window), or grow them on past an explicit truncation, and
        # equal (==) the prefactor times a fresh column build at the chosen
        # length; the search itself runs once per state, also when the
        # count is asked for before an explicit truncation
        rng = np.random.default_rng(5)
        searches = []
        search = states._search_pairs
        monkeypatch.setattr(states, "_search_pairs",
                            lambda *args: searches.append(args) or search(*args))
        for _ in range(12):
            zeta = complex(rng.uniform(0.0, 0.8) * np.exp(2j * np.pi * rng.uniform()))
            xi = complex(rng.uniform(0.0, 6.0) * np.exp(2j * np.pi * rng.uniform()))
            eps = float(rng.uniform(0.5, 6.0))
            spec = CsSpec(zeta=zeta, xi=xi, epsilon=eps)
            searches.clear()
            states._cs_pairs(zeta, xi, eps)
            state = states._state(zeta, xi, eps)
            window = len(state.columns)
            for truncation in (None, 2 * window, 2 * window + 64):
                v = cs_amplitudes(spec, truncation=truncation)
                n_pairs = v.truncation // 2
                assert [len(c) for c in state.columns.T] \
                    == [max(n_pairs, window)] * 2
                even, odd = (states._laguerre(
                    alpha, zeta, 0.5 * xi * xi,
                    np.empty(n_pairs, dtype=complex))
                    for alpha in (eps - 1.0, eps))
                pre = cmath.exp(states._cs_log_prefactor(spec))
                amps = np.zeros(v.truncation, dtype=complex)
                amps[0::2] = pre * even
                amps[1::2] = pre * (xi / math.sqrt(2.0 * eps)) * odd
                assert np.array_equal(v.amplitudes,
                                      states._finalize(amps, "").amplitudes)
            assert len(searches) == 1

    def test_explicit_truncation_reads_up_to_the_bound(self, monkeypatch):
        # truncation 400,002 once built its amplitudes (0.2 s), and
        # 2,000,000 took 1.0 s and 107 MB
        monkeypatch.setattr(states, "MAX_PAIRS", 100)
        states._state.cache_clear()
        try:
            for build, spec in ((svs_amplitudes, SvsSpec(zeta=0.3, epsilon=2.5)),
                                (cs_amplitudes, CsSpec(zeta=0.3, xi=1.0,
                                                       epsilon=2.5))):
                assert build(spec, truncation=200).truncation == 200
                with pytest.raises(DomainError, match="2 MAX_PAIRS = 200$"):
                    build(spec, truncation=202)
        finally:
            states._state.cache_clear()

    def test_over_bound_truncation_leaves_the_columns(self):
        # the cached state keeps the columns its truncation search grew
        spec = CsSpec(zeta=0.3, xi=1.0, epsilon=2.5)
        states._state.cache_clear()
        try:
            cs_amplitudes(spec)
            state = states._state(complex(spec.zeta), complex(spec.xi),
                                     spec.epsilon)
            lengths = [len(column) for column in state.columns.T]
            with pytest.raises(DomainError, match="400000"):
                cs_amplitudes(spec, truncation=2 * states.MAX_PAIRS + 2)
            assert [len(c) for c in state.columns.T] == lengths
        finally:
            states._state.cache_clear()

    def test_schrodinger_property_constant_schedule(self):
        # analytic parameters propagated by the ODE solver keep the state on
        # the closed form (fidelity against the frozen-time constructor)
        eps, zeta0, xi0 = 2.5, 0.3, 0.9
        traj = solve_zeta_xi(constant_schedule(0.0, 1.0, 0.0), zeta0, xi0,
                             t_final=1.7, epsilon=eps)
        p = traj.at(float(traj.times[-1]))
        v0 = cs_amplitudes(CsSpec(zeta=zeta0, xi=xi0, epsilon=eps))
        v1 = cs_amplitudes(CsSpec(zeta=p.zeta, xi=p.xi, epsilon=eps,
                                  theta=p.theta_cs),
                           truncation=v0.truncation)
        # phases of individual amplitudes must follow the closed forms
        expect0 = v0.amplitudes[0] * np.exp(
            1j * (p.theta_cs - (eps - 1.0) * 1.7))
        assert abs(v1.amplitudes[0] - expect0) < 1e-9


class TestCsTransition:
    def test_far_line_raises_before_the_column_grows(self):
        # P_4,000,000 of this state once took 1.5 s and 214 MB, then stayed
        # cached at that size
        cs_transition(0.3, 1.0, 2.5, 40)
        state = states._state(0.3, 1.0, 2.5)
        lengths = (len(state.lines), len(state.columns[:, 0]),
                   len(state.columns[:, 1]))
        for n in (4_000_000, 2 * states.MAX_PAIRS):
            with pytest.raises(DomainError, match="400000"):
                cs_transition(0.3, 1.0, 2.5, n)
        assert (len(state.lines), len(state.columns[:, 0]),
                len(state.columns[:, 1])) == lengths

    def test_lines_read_up_to_the_bound(self, monkeypatch):
        monkeypatch.setattr(states, "MAX_PAIRS", 100)
        states._state.cache_clear()
        try:
            assert 0.0 <= cs_transition(0.3, 1.0, 2.5, 199) < 1e-100
            state = states._state(0.3, 1.0, 2.5)
            assert len(state.columns[:, 0]) == 100
            with pytest.raises(DomainError, match="< 2 MAX_PAIRS = 200,"):
                cs_transition(0.3, 1.0, 2.5, 200)
        finally:
            states._state.cache_clear()

    def test_odd_lines_gated_by_displacement(self):
        for n in (1, 3, 9):
            assert cs_transition(0.45, 0.0, 2.5, n) == 0.0
            assert cs_transition(0.45, 1.0, 2.5, n) > 0.0
        assert cs_transition(0.45, 0.0, 2.5, 4) == \
            pytest.approx(svs_transition(0.45, 2.5, 2), rel=1e-14, abs=0.0)

    def test_matches_amplitude_moduli(self, rng):
        for _ in range(6):
            eps = rng.uniform(0.5, 5.0)
            zeta = rng.uniform(0, 0.75) * np.exp(2j * np.pi * rng.uniform())
            xi = rng.uniform(0.1, 2.0) * np.exp(2j * np.pi * rng.uniform())
            v = cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
            for n in range(min(40, v.truncation)):
                assert abs(cs_transition(zeta, xi, eps, n)
                           - abs(v.amplitudes[n]) ** 2) <= 1e-10

    def test_sum_to_one(self):
        zeta, xi, eps = 0.5, 1.2j, 4.5
        n_total = cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps)).truncation
        total = sum(cs_transition(zeta, xi, eps, n) for n in range(n_total))
        assert abs(total - 1.0) <= 1e-9

    def test_distribution_time_independent(self):
        # evolved parameters: zeta, xi rotate but |zeta|, |xi|, xi^2/zeta are
        # constant, so every line is frozen
        zeta0, xi0, eps = 0.5, 1.0j, 4.5
        for t in (0.0, 0.7, 2.1):
            zeta = zeta0 * np.exp(-2j * t)
            xi = xi0 * np.exp(-1j * t)
            for n in range(10):
                assert cs_transition(zeta, xi, eps, n) == pytest.approx(
                    cs_transition(zeta0, xi0, eps, n), abs=1e-12)

    @staticmethod
    def _per_n(zeta, xi, eps, n):
        # the O(n) per-call evaluation the cached columns must reproduce, on
        # the production primitives: a fresh column of one parity at the
        # scale rule's power of two, and 4^scale |pre|^2 from the
        # prefactor's logarithm, times |xi|^2/(2 eps) on the odd lines;
        # one-entry arrays, since numpy's array loop for abs may round
        # differently from its scalar one
        m, parity = divmod(n, 2)
        log_k = 2.0 * states._cs_log_prefactor(
            CsSpec(zeta=zeta, xi=xi, epsilon=eps)).real
        scale = min(math.floor(-0.5 * log_k / math.log(2.0)), 1022)
        col = states._laguerre((eps - 1.0, eps)[parity], zeta, 0.5 * xi * xi,
                               np.empty(m + 2, dtype=complex), 0, scale)
        k = states._scaled_exp(log_k, 2 * scale, np.exp)
        if parity:
            k = abs(xi) ** 2 / (2.0 * eps) * k
        p = np.abs(col[[m]]) ** 2 * k
        return min(float(p[0]), 1.0)

    def test_cached_columns_independent_of_call_order(self):
        a, b = (0.6 * np.exp(0.4j), 2.5 - 1.5j, 2.5), (0.3j, -4.0 + 1.0j, 6.5)
        ns = range(300)

        def fresh(state):
            states._state.cache_clear()
            return [cs_transition(*state, n) for n in ns]

        want_a, want_b = fresh(a), fresh(b)
        assert want_a == [self._per_n(*map(complex, a[:2]), a[2], n)
                          for n in ns]
        states._state.cache_clear()
        assert [cs_transition(*a, n) for n in reversed(ns)] == want_a[::-1]
        states._state.cache_clear()
        mixed = [(cs_transition(*a, n), cs_transition(*b, n)) for n in ns]
        assert [p for p, _ in mixed] == want_a
        assert [q for _, q in mixed] == want_b

    def test_cache_keyed_on_the_callers_numbers(self):
        # equal values of any numeric type hash and compare equal, so they
        # reach one cached state, which converts them once as it enters
        states._state.cache_clear()
        lines = {cs_transition(zeta, xi, eps, 5)
                 for zeta, xi, eps in ((0, 2, 3), (0.0, 2.0, 3.0),
                                       (0j, 2 + 0j, 3.0 + 0j),
                                       (np.float64(0.0), np.complex128(2.0),
                                        np.float32(3.0)))}
        assert len(lines) == 1
        assert states._state.cache_info().currsize == 1

    def test_state_forms_its_prefactor_once(self, monkeypatch):
        # the state keeps ln pre at theta = 0, and each read adds its phase
        prefactor = states._cs_log_prefactor
        calls = []
        monkeypatch.setattr(states, "_cs_log_prefactor",
                            lambda spec: calls.append(spec) or prefactor(spec))
        zeta, xi, eps = 0.45 + 0.15j, -1.5 + 2.0j, 3.5
        states._state.cache_clear()
        first = cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
        cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps, theta=0.8))
        for n in range(first.truncation):
            cs_transition(zeta, xi, eps, n)
        assert len(calls) == 1

    def test_cache_clear_drops_the_last_state(self, monkeypatch):
        # a read that repeats the last call's three objects skips the
        # cache's lookup; cache_clear drops that entry too, so the next read
        # builds a fresh state, and equal numbers that are other objects
        # reach the one cached state without building another
        built = []
        init = states._CsState.__init__
        monkeypatch.setattr(states._CsState, "__init__",
                            lambda self, *args: built.append(args)
                            or init(self, *args))
        zeta, xi, eps = 0.3j, 1.5 - 0.5j, 2.5
        states._state.cache_clear()
        first = [cs_transition(zeta, xi, eps, n) for n in range(9)]
        assert len(built) == 1
        assert states._state.cache_info().hits == 0
        states._state.cache_clear()
        assert [cs_transition(zeta, xi, eps, n) for n in range(9)] == first
        assert len(built) == 2
        hits = states._state.cache_info().hits
        assert cs_transition(complex(zeta.real, zeta.imag),
                             xi + 0.0, float("2.5"), 4) == first[4]
        assert len(built) == 2
        assert states._state.cache_info().hits == hits + 1
        assert states._state.cache_info().currsize == 1

    def test_index_forms_read_their_line(self):
        # the plain-int fast path and check_index's rule read one line
        zeta, xi, eps = 0.4 - 0.2j, 2.0 + 1.0j, 1.5
        lines = [cs_transition(zeta, xi, eps, n) for n in range(6)]
        assert cs_transition(zeta, xi, eps, True) == lines[1]
        assert cs_transition(zeta, xi, eps, 4.0) == lines[4]
        assert cs_transition(zeta, xi, eps, np.int64(4)) == lines[4]

    @pytest.mark.parametrize("zeta, xi, eps", [
        (0.5, 20.0, 2.5), (0.3 + 0.2j, 4.0 - 3.0j, 1.5), (0.6, 3.0j, 4.5)])
    def test_lines_past_the_truncation(self, zeta, xi, eps):
        # the first read past the automatic truncation grows the columns
        # the search left; measured gap to the amplitudes 2.6e-16 at most
        states._state.cache_clear()
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=eps)
        n = cs_amplitudes(spec).truncation + 37
        line = cs_transition(zeta, xi, eps, n)
        amps = cs_amplitudes(spec, truncation=n + 63).amplitudes
        assert line == pytest.approx(abs(amps[n]) ** 2, rel=1e-15, abs=0.0)

    def test_cache_is_bounded(self):
        for k in range(20):
            cs_transition(0.01 * k, 1.0, 2.5, 40)
        assert states._state.cache_info().currsize \
            <= states.STATE_CACHE < 20

    def test_nan_displacement_rejected_after_cached_call(self):
        cs_transition(0.3, 1.0, 2.5, 3)
        size = states._state.cache_info().currsize
        with pytest.raises(DomainError, match="xi must be finite"):
            cs_transition(0.3, math.nan, 2.5, 3)
        assert states._state.cache_info().currsize == size

    def test_shared_columns_prefix_stable(self):
        # the search, the amplitudes and the distribution read one growing
        # column per parity; whichever reads first, every amplitude and
        # every P_n equals (==) the value from a fresh cache
        rng = np.random.default_rng(11)
        for _ in range(6):
            zeta = complex(rng.uniform(0.0, 0.8)
                           * np.exp(2j * np.pi * rng.uniform()))
            xi = complex(rng.uniform(0.0, 6.0)
                         * np.exp(2j * np.pi * rng.uniform()))
            eps = float(rng.uniform(0.5, 6.0))
            spec = CsSpec(zeta=zeta, xi=xi, epsilon=eps)

            def fresh(read):
                states._state.cache_clear()
                return read()

            def distribution():
                return [cs_transition(zeta, xi, eps, n) for n in range(wide)]

            def window():
                states._cs_pairs(zeta, xi, eps)
                return len(states._state(zeta, xi, eps).columns)

            window = fresh(window)
            wide = 2 * window + 64
            amps = fresh(lambda: cs_amplitudes(spec).amplitudes)
            wide_amps = fresh(
                lambda: cs_amplitudes(spec, truncation=wide).amplitudes)
            dist = fresh(distribution)
            states._state.cache_clear()
            assert np.array_equal(cs_amplitudes(spec).amplitudes, amps)
            assert distribution() == dist
            states._state.cache_clear()
            assert [cs_transition(zeta, xi, eps, n)
                    for n in range(len(amps))] == dist[:len(amps)]
            assert np.array_equal(
                cs_amplitudes(spec, truncation=wide).amplitudes, wide_amps)

    def test_overflow_fails_loudly(self):
        # |e_n|^2 past double range: min(P, 1) once turned inf into 1.0 and
        # inf * 0 into NaN (xi = 30), and then the lines of the overflow
        # window raised: the even column's peak near P_728 at xi = 27, P_500
        # at xi = 30.  Scaled by P_0 every line reads, equal to |c_n|^2 of
        # the amplitudes, whatever the order of the calls
        p100 = cs_transition(0.0, 27.0, 2.5, 100)
        amps = cs_amplitudes(CsSpec(zeta=0.0, xi=27.0, epsilon=2.5)).amplitudes
        assert cs_transition(0.0, 27.0, 2.5, 728) == pytest.approx(
            abs(amps[728]) ** 2, rel=1e-13, abs=0.0)
        assert cs_transition(0.0, 27.0, 2.5, 729) == pytest.approx(
            0.0146933982536429186, rel=1e-13, abs=0.0)
        assert cs_transition(0.0, 27.0, 2.5, 100) == p100 > 0.0
        assert cs_transition(0.0, 27.0, 2.5, 1000) == pytest.approx(
            1.76652066726395e-22, rel=1e-8, abs=0.0)  # 50-digit mpmath
        assert cs_transition(0.0, 30.0, 2.5, 500) == pytest.approx(
            abs(amplitude_mpmath(0.0, 30.0, 2.5, 500, dps=40)) ** 2,
            rel=1e-12, abs=0.0)

    def test_overflowed_state_keeps_no_columns(self, monkeypatch):
        # at y = 3e4 the search's first window is ~21,000 pairs; the cache
        # once kept both of its Laguerre columns (0.68 MB) for a state that
        # raises on every use, and then rebuilt that window on every call.
        # The state is refused as it enters (ln P_0 = -20981): no column is
        # built, no search runs and the cache keeps nothing, on every call;
        # its lines, once a mix of raises and 0.0, raise too
        zeta, eps = 0.3, 2.5
        xi = math.sqrt(3e4 * (1.0 - zeta**2))
        states._state.cache_clear()
        searches = []
        search = states._search_pairs
        monkeypatch.setattr(states, "_search_pairs",
                            lambda *args: searches.append(args) or search(*args))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                with pytest.raises(DomainError, match="y = .* = 30000"):
                    cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
                with pytest.raises(DomainError, match="y = .* = 30000"):
                    cs_transition(zeta, xi, eps, 3)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 0.5e6
        assert searches == []
        assert states._state.cache_info().currsize == 0

    @pytest.mark.parametrize("zeta, xi, eps", LONG_STATES + [
        (-0.7701509910417981 - 0.36074694507234856j,
         8.113711870289373 + 10.522788008682607j, 6.375459123273524),
        (0.534628470477825 + 0.5631772518505997j,
         1.3741827424151583 - 12.924093800025657j, 5.681324933499843),
    ], ids=LONG_IDS + ["y638", "y425"])
    def test_relative_agreement_with_amplitudes(self, zeta, xi, eps):
        # P_n and |c_n|^2 read one Laguerre column, so they agree to ~1e-15
        # relative on every representable line at N = 1274 to 6858; with
        # P_n's Gamma weights from math.lgamma the gap was 1.8e-12 to
        # 2.3e-12, growing with N, and 1.5e-14 from the amplitudes' gammaln
        # weights.  At y ~ 638 and y ~ 425 (N = 6858 and 4512) |M_n|^2 of
        # the unweighted column once overflowed, so P_n raised on 4,000 and
        # 236 lines where the amplitudes were whole
        amps = cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps)).amplitudes
        assert len(amps) > 1000
        p = np.array([cs_transition(zeta, xi, eps, n)
                      for n in range(len(amps))])
        keep = p >= 1e-300
        assert np.max(np.abs(p - np.abs(amps) ** 2)[keep] / p[keep]) < 1e-13

    def test_lines_within_the_stated_envelope(self):
        # y ~ 1973 and N = 8840, P_0 ~ e^-2099: the references stay mpf,
        # since complex() would underflow; the peak, a middle line and the
        # last line, against the docstring's 4 (y + n) 1e-16 (they read
        # 3.9e-13, 1.3e-13 and 3.4e-13 relative)
        zeta, xi, eps = 0.6394 - 0.3473j, -25.381 - 16.854j, 3.137
        y = abs(xi) ** 2 / (1.0 - abs(zeta) ** 2)
        n_total = cs_amplitudes(CsSpec(zeta=zeta, xi=xi,
                                       epsilon=eps)).truncation
        p = [cs_transition(zeta, xi, eps, n) for n in range(n_total)]
        assert n_total == 8840 and int(np.argmax(p)) == 7010
        for n in (7010, 5000, 8839):
            with mpmath.workdps(40):
                ref = abs(amplitude_mp(zeta, xi, eps, n, dps=40)) ** 2
                rel = abs(mpmath.mpf(p[n]) - ref) / ref
            assert rel <= 4 * (y + n) * 1e-16

    @pytest.mark.parametrize("eps", [170.5, 200.0])
    def test_large_epsilon_against_mpmath(self, eps):
        # |pre|^2 ~ Gamma(eps) passes double range from eps ~ 171.6, and
        # |e_n|^2 ~ 1/Gamma(eps) underflows from eps ~ 100; with both in one
        # product P_n once read 0.0 at n = 500 (eps 170.5) and raised on
        # every line (eps 200), where the log-space form was finite
        zeta, xi = 0.5j, 3.0 - 1.0j
        for n in (0, 7, 100, 300, 400, 500):
            ref = abs(amplitude_mpmath(zeta, xi, eps, n)) ** 2
            assert 1e-46 < ref < 1.0
            assert cs_transition(zeta, xi, eps, n) == pytest.approx(
                ref, rel=2e-13, abs=0.0)

    @pytest.mark.parametrize("zeta, xi, eps, lines, rel", [
        pytest.param(0.3, 1.0, 170.5, (), 1e-13, id="0.3-1.0-170.5"),
        pytest.param(0.3, 1.0, 200.0, (), 1e-13, id="0.3-1.0-200.0"),
        pytest.param(0.5, 3.0, 400.0, (), 1e-13, id="0.5-3.0-400.0"),
        pytest.param(0.026820996453728783 - 0.12629925689098528j,
                     -19.1819147698663 - 16.882265784250247j,
                     1.0421952356432294, (1127,), 1e-12, id="y664"),
        pytest.param(0.01214 - 5.05e-5j, -11.93 - 24.75j, 0.598, (516,),
                     1e-12, id="y755"),
        pytest.param(0.0, 27.0, 2.5, (728, 729, 1000), 1e-12, id="y729"),
        pytest.param(0.0, 30.0, 2.5, (401, 900, 1511), 1e-12, id="y900"),
        pytest.param(0.5j, 25.0 + 10.0j, 4.5, (), 1e-12, id="y967"),
        pytest.param(0.0, math.sqrt(2100.0), 2.5, (), 1e-12, id="y2100"),
    ])
    def test_ive_underflow_states_against_mpmath(self, zeta, xi, eps, lines,
                                                 rel):
        # ive(eps, y) underflows in the first three, and the normalization
        # once took a three-term series far outside its range: every line
        # was off by 9.1e-10, 5.6e-10 and 1.1e-4, and the lines of the last
        # state summed to 1.000113.  In the others 4^s |pre|^2 was once
        # subnormal or 0 (y664: P_1127 off 4.7e-3; y755: P_516 read 0.0),
        # or the columns overflowed and the lines raised or read 0.0.  The
        # head (the first line in normal range), the peak, the tail and the
        # named lines read within 1.2e-14 (the first three) and 3e-13 of
        # 40-digit mpmath
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n_total = cs_amplitudes(CsSpec(zeta=zeta, xi=xi,
                                           epsilon=eps)).truncation
        p = [cs_transition(zeta, xi, eps, n) for n in range(n_total)]
        head = next(n for n, v in enumerate(p) if v >= 1e-300)
        peak = int(np.argmax(p))
        for n in (head, head + 1, peak, peak + 1, n_total - 2, n_total - 1,
                  *lines):
            ref = abs(amplitude_mpmath(zeta, xi, eps, n, dps=40)) ** 2
            assert cs_transition(zeta, xi, eps, n) == pytest.approx(
                ref, rel=rel, abs=0.0)
        assert abs(math.fsum(p) - 1.0) <= 1e-12

    def test_even_weight_below_eps_one(self):
        # below eps = 1 the even column's weight sqrt(n!/Gamma(n+eps))
        # grows with n, so at y ~ 694 |e_n|^2 once overflowed on 102 even
        # lines in n = 1568..1934 where the unweighted |M_n|^2 did not
        zeta = 0.36933419965976905 - 0.5246373942029723j
        xi = -19.088121943906774 - 6.635988194015919j
        eps = 0.7397438758804311
        for n in range(1568, 1936, 8):
            ref = abs(amplitude_mpmath(zeta, xi, eps, n)) ** 2
            assert cs_transition(zeta, xi, eps, n) == pytest.approx(
                ref, rel=2e-13, abs=0.0)

    @pytest.mark.parametrize("xi", [4e4, 1e200, complex(1e308, 1e308)])
    def test_displacement_past_limit_rejected(self, xi):
        # past y = 1e9 ive is NaN, and ln of the Bessel pair once raised a
        # bare ValueError; past |xi| ~ 1.3e154, |xi|^2 a bare OverflowError
        with pytest.raises(DomainError, match="xi must be finite"):
            CsSpec(zeta=0.0, xi=xi, epsilon=2.5)
        with pytest.raises(DomainError, match="xi must be finite"):
            cs_transition(0.0, xi, 2.5, 0)
        with pytest.raises(DomainError, match="xi must be finite"):
            mean_reflection(0.0, xi, 2.5)
        # just inside y = |xi|^2/(1-|zeta|^2) = 1e9 the numbers are finite
        xi_max = 0.999 * math.sqrt(1e9 * (1.0 - 0.99 ** 2)) * 1j
        assert 0.0 < mean_reflection(0.99, xi_max, 2.5) < 1e-8
        # P_0 = e^-2e9 there, past the columns' reach
        with pytest.raises(DomainError, match="y = .* = 9.98001e"):
            cs_transition(0.99, xi_max, 2.5, 0)


class TestCsOverlap:
    def test_identical_specs(self):
        s = CsSpec(zeta=0.3 + 0.2j, xi=0.9 - 0.4j, epsilon=2.5, theta=0.7)
        assert cs_overlap(s, s) == pytest.approx(1.0, abs=1e-11)

    @staticmethod
    def _fock_overlap(s1, s2):
        eps = s1.epsilon
        n = 2 * max(states._cs_pairs(s1.zeta, s1.xi, eps),
                    states._cs_pairs(s2.zeta, s2.xi, eps))
        return cs_amplitudes(s1, n).overlap(cs_amplitudes(s2, n))

    def test_matches_amplitude_series(self, rng):
        for _ in range(40):
            eps = rng.uniform(0.5, 6.0)
            def draw():
                return CsSpec(
                    zeta=rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform()),
                    xi=rng.uniform(0, 5.0) * np.exp(2j * np.pi * rng.uniform()),
                    epsilon=eps, theta=rng.uniform(0, 6))
            s1, s2 = draw(), draw()
            got = cs_overlap(s1, s2)
            assert abs(got - self._fock_overlap(s1, s2)) <= 1e-10
            assert abs(got) <= 1.0 + 1e-12

    def test_zero_displacement_reduces_to_svs_overlap(self):
        eps = 2.5
        c1 = CsSpec(zeta=0.2 + 0.3j, xi=0.0, epsilon=eps)
        c2 = CsSpec(zeta=0.5, xi=0.0, epsilon=eps)
        s1 = SvsSpec(zeta=c1.zeta, epsilon=eps)
        s2 = SvsSpec(zeta=c2.zeta, epsilon=eps)
        assert abs(cs_overlap(c1, c2) - svs_overlap(s1, s2)) <= 1e-10

    def test_mixed_zero_displacement_limit(self):
        eps = 1.5
        s1 = CsSpec(zeta=0.3, xi=0.0, epsilon=eps)
        s2 = CsSpec(zeta=0.2, xi=0.8, epsilon=eps)
        n = 2 * (states._cs_pairs(s2.zeta, s2.xi, eps) + 16)
        v1, v2 = cs_amplitudes(s1, n), cs_amplitudes(s2, n)
        assert abs(cs_overlap(s1, s2) - v1.overlap(v2)) <= 1e-10

    @pytest.mark.parametrize("eps", [0.5, 1.5, 4.5])
    @pytest.mark.parametrize("zeta1, xi1, zeta2, xi2", [
        # anti-aligned displacements: Re z < 0, where the Bessel pair cancels
        (0.5j, 3.0 + 2.0j, 0.45j, -3.0 - 2.1j),
        (0.0, 5.0, 0.0, -5.0),
        (0.8, -1.0j, 0.7 + 0.1j, 1.1j),
        # zero displacement on one side and on both
        (0.3 + 0.1j, 0.0, -0.4, 1.3 - 0.4j),
        (0.6j, 2.0, 0.2, 0.0),
        (0.3 + 0.1j, 0.0, -0.4, 0.0),
        # zero squeeze
        (0.0, 1.0 + 1.0j, 0.0, 2.0 - 0.5j),
        (0.0, 0.0, 0.5, 1.0),
    ])
    def test_closed_form_edge_cases(self, eps, zeta1, xi1, zeta2, xi2):
        s1 = CsSpec(zeta=zeta1, xi=xi1, epsilon=eps, theta=0.4)
        s2 = CsSpec(zeta=zeta2, xi=xi2, epsilon=eps)
        assert abs(cs_overlap(s1, s2) - self._fock_overlap(s1, s2)) <= 1e-10

    @pytest.mark.parametrize("y", [800.0, 1200.0])
    @pytest.mark.parametrize("zeta", [0.0, 0.5, 0.3 + 0.6j])
    def test_unit_norm_past_amplitude_range(self, y, zeta):
        # the columns once overflowed past y ~ 700, the log-space closed
        # form not; both now read, and agree
        xi = math.sqrt(y * (1.0 - abs(zeta) ** 2)) * np.exp(2.0j)
        s = CsSpec(zeta=zeta, xi=xi, epsilon=2.5, theta=0.3)
        assert abs(cs_amplitudes(s).norm_sq() - 1.0) <= 1e-12
        assert abs(cs_overlap(s, s) - 1.0) <= 1e-12

    def test_no_truncation_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cs_overlap chose a truncation")
        monkeypatch.setattr(states, "_cs_pairs", refuse)
        s1 = CsSpec(zeta=0.3, xi=1.0 + 0.5j, epsilon=2.5)
        s2 = CsSpec(zeta=0.2j, xi=0.8, epsilon=2.5)
        assert 0.0 < abs(cs_overlap(s1, s2)) < 1.0


class TestMeanReflection:
    def test_pure_even_at_zero_displacement(self):
        assert mean_reflection(0.3 + 0.4j, 0.0, 2.5) == 1.0

    def test_half_level_closed_form(self):
        # eps = 1/2 reduces to exp(-2y); frozen value exp(-2)
        assert mean_reflection(0.0, 1.0, 0.5) == pytest.approx(
            0.1353352832366127, rel=1e-12)
        for zeta, xi in ((0.3, 0.7), (0.5j, 1.3)):
            y = abs(xi) ** 2 / (1.0 - abs(zeta) ** 2)
            assert mean_reflection(zeta, xi, 0.5) == pytest.approx(
                math.exp(-2.0 * y), rel=1e-11)

    def test_parity_sum_oracle(self, rng):
        for _ in range(6):
            eps = rng.uniform(0.5, 5.0)
            zeta = rng.uniform(0, 0.7) * np.exp(2j * np.pi * rng.uniform())
            xi = rng.uniform(0, 2.0) * np.exp(2j * np.pi * rng.uniform())
            v = cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
            signs = (-1.0) ** np.arange(v.truncation)
            direct = float(np.sum(signs * np.abs(v.amplitudes) ** 2))
            assert abs(mean_reflection(zeta, xi, eps) - direct) <= 1e-10

    def test_large_argument_branch_continuity(self):
        # y = 600 was a branch seam; keep points on either side of it
        eps = 4.5
        with mpmath.workdps(40):
            for y in (550.0, 650.0, 2000.0):
                xi = math.sqrt(y)
                y = xi * xi  # the y that mean_reflection(0, xi, eps) forms
                lo, hi = mpmath.besseli(eps - 1, y), mpmath.besseli(eps, y)
                exact = float((lo - hi) / (lo + hi))
                got = mean_reflection(0.0, xi, eps)
                assert got == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("eps", [0.5, 0.75, 1.0, 1.5, 2.5, 4.5, 6.5, 12.3])
    def test_against_mpmath_grid(self, eps):
        # the Bessel pair at -y over the pair at y, across the small-y
        # series (y < 1e-3) and out to y = 700; measured worst 1.4e-14
        with mpmath.workdps(40):
            for y in np.geomspace(1e-8, 700.0, 60):
                xi = math.sqrt(y)
                y = xi * xi  # the y that mean_reflection(0, xi, eps) forms
                lo, hi = mpmath.besseli(eps - 1, y), mpmath.besseli(eps, y)
                exact = float((lo - hi) / (lo + hi))
                assert abs(mean_reflection(0.0, xi, eps) - exact) <= 1e-13

    def test_value_range(self):
        for xi in (0.1, 1.0, 3.0, 10.0):
            r = mean_reflection(0.2, xi, 3.5)
            assert -1.0 < r <= 1.0


@pytest.mark.parametrize("xi", [math.nan, complex(0.3, math.nan), math.inf])
@pytest.mark.parametrize("call", [
    lambda xi: CsSpec(zeta=0.3, xi=xi, epsilon=2.5),
    lambda xi: cs_transition(0.3, xi, 2.5, 1),
    lambda xi: mean_reflection(0.3, xi, 2.5),
])
def test_non_finite_displacement_rejected(call, xi):
    # cs_transition and mean_reflection returned nan for a NaN xi
    with pytest.raises(DomainError, match="xi must be finite"):
        call(xi)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda theta: CsSpec(zeta=0.3, xi=1.0, epsilon=2.5, theta=theta),
    lambda theta: SvsSpec(zeta=0.3, epsilon=2.5, theta=theta),
])
def test_non_finite_phase_rejected(build, theta):
    # a NaN or infinite phase built an all-NaN amplitude vector
    with pytest.raises(DomainError, match="theta must be finite"):
        build(theta)


def test_squeezed_spec_needs_a_trajectory_solved_with_epsilon():
    # without epsilon the trajectory carries theta_svs = NaN, which the
    # squeezed-vacuum spec used to accept
    traj = solve_zeta_xi(constant_schedule(), 0.3, 1.0, t_final=1.0)
    with pytest.raises(DomainError, match="theta must be finite"):
        states.svs_spec_from_params(traj.at(0.5), 2.5)
    solved = solve_zeta_xi(constant_schedule(), 0.3, 1.0, t_final=1.0,
                           epsilon=2.5)
    assert math.isfinite(states.svs_spec_from_params(solved.at(0.5), 2.5).theta)


@pytest.mark.parametrize("n", [math.nan, math.inf, -1, 1.5, 2.5])
@pytest.mark.parametrize("call", [
    lambda n: svs_transition(0.3, 2.5, n),
    lambda n: cs_transition(0.3, 1.0, 2.5, n),
    lambda n: diagonal_identity_residual(2.5, n),
])
def test_index_must_be_a_nonnegative_integer(call, n):
    # n = nan raised a bare ValueError from int(n)
    with pytest.raises(DomainError, match="nonnegative integer"):
        call(n)


@pytest.mark.parametrize("n, index", [
    (3, 3), (np.int64(3), 3), (3.0, 3), (True, 1),
    (-1, None), (2.5, None), (math.nan, None), (math.inf, None),
    pytest.param("3", None, id="str"), pytest.param(b"3", None, id="bytes"),
])
def test_index_verdicts(n, index):
    # the plain-int fast path gives every input the verdict of the general
    # rule: a nonnegative integer comes back as a Python int
    if index is None:
        with pytest.raises(DomainError, match="nonnegative integer"):
            states.check_index(n)
    else:
        got = states.check_index(n)
        assert type(got) is int and got == index


STATE_NUMBERS = {"zeta": 0.3, "xi": 1.0, "epsilon": 2.5, "theta": 0.0}
STATE_ENTRIES = [
    ("CsSpec", lambda a: CsSpec(a["zeta"], a["xi"], a["epsilon"], a["theta"]),
     ("zeta", "xi", "epsilon", "theta")),
    ("SvsSpec", lambda a: SvsSpec(a["zeta"], a["epsilon"], a["theta"]),
     ("zeta", "epsilon", "theta")),
    ("cs_transition", lambda a: cs_transition(a["zeta"], a["xi"],
                                              a["epsilon"], 3),
     ("zeta", "xi", "epsilon")),
    ("svs_transition", lambda a: svs_transition(a["zeta"], a["epsilon"], 3),
     ("zeta", "epsilon")),
    ("mean_reflection", lambda a: mean_reflection(a["zeta"], a["xi"],
                                                  a["epsilon"]),
     ("zeta", "xi", "epsilon")),
]


@pytest.mark.parametrize("call, name", [
    pytest.param(call, name, id=f"{entry}-{name}")
    for entry, call, names in STATE_ENTRIES for name in names])
def test_numeric_strings_refused_by_every_entry(call, name):
    # cs_transition('0.3', '1.0', '2.5', 3) used to return 0.0139: complex()
    # and float() parse strings, and it converted before it checked
    states._state.cache_clear()
    numbers = dict(STATE_NUMBERS, **{name: str(STATE_NUMBERS[name])})
    with pytest.raises(DomainError, match=f"{name} must be a number"):
        call(numbers)


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_svs_transition_refuses_strings_in_either_memo(warm):
    # svs_transition('0.3', 2.5, 3) raised TypeError on a fresh memo and
    # returned 0.00378 right after a read of (0.3, 2.5)
    states._state.cache_clear()
    if warm:
        svs_transition(0.3, 2.5, 3)
    for zeta, eps in (("0.3", 2.5), (0.3, "2.5"), (0.3, b"2.5")):
        with pytest.raises(DomainError, match="must be a number"):
            svs_transition(zeta, eps, 3)
    assert svs_transition(0.3, 2.5, 3) == svs_transition(0.3 + 0j, 2.5, 3.0)


@pytest.mark.parametrize("read", [
    lambda n: svs_transition(0.3, 2.5, n),
    lambda n: cs_transition(0.3, 1.0, 2.5, n),
], ids=["svs_transition", "cs_transition"])
def test_string_index_refused(read):
    # check_index's float('3') parses, and '3' >= 0 then raised a bare
    # TypeError (test_index_verdicts holds the rule's own str and bytes cases)
    with pytest.raises(DomainError,
                       match="^n must be a nonnegative integer, got '3'$"):
        read("3")


@pytest.mark.parametrize("read", [
    lambda zeta: svs_transition(zeta, 2.5, 3),
    lambda zeta: cs_transition(zeta, 1.0, 2.5, 3),
], ids=["svs_transition", "cs_transition"])
def test_refused_type_checked_once(read, monkeypatch):
    # a type the rule refuses (np.bool_ has no unary plus) once met the rule
    # in the table's build step and again in _state's TypeError handler
    check = states._check_state_inputs
    with pytest.raises(TypeError) as direct:
        check(np.bool_(False), 1.0, 2.5)
    calls = []
    monkeypatch.setattr(states, "_check_state_inputs",
                        lambda *a: calls.append(a) or check(*a))
    states._state.cache_clear()
    with pytest.raises(TypeError) as got:
        read(np.bool_(False))
    assert type(got.value) is type(direct.value) and len(calls) == 1


# one pair of objects, so that the squeezed vacuum read first leaves them,
# with xi None, as the last read of the state table
NO_XI_ZETA, NO_XI_EPS = 0.3, 2.5


@pytest.mark.parametrize("call", [
    lambda: CsSpec(NO_XI_ZETA, None, NO_XI_EPS),
    lambda: cs_transition(NO_XI_ZETA, None, NO_XI_EPS, 3),
    lambda: mean_reflection(NO_XI_ZETA, None, NO_XI_EPS),
], ids=["CsSpec", "cs_transition", "mean_reflection"])
def test_coherent_entries_refuse_no_displacement(call):
    # xi None was read as the squeezed vacuum's: CsSpec(0.3, None, 2.5)
    # held eps = 0.0, cs_transition raised a bare math domain error and
    # mean_reflection a failed unpacking
    states._state.cache_clear()
    svs_transition(NO_XI_ZETA, NO_XI_EPS, 3)
    with pytest.raises(DomainError, match="^xi must be a number, got None$"):
        call()


def test_specs_are_frozen_values():
    cs, svs = CsSpec(0.3, 1.0, 2.5), SvsSpec(0.3, 2.5, theta=0.1)
    for spec, name in ((cs, "xi"), (cs, "theta"), (svs, "zeta")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, 0.0)
    same = CsSpec(zeta=0.3 + 0j, xi=np.float64(1.0), epsilon=2.5, theta=0)
    assert cs == same and hash(cs) == hash(same)
    assert svs == SvsSpec(np.float64(0.3), 2.5, 0.1)
    assert hash(svs) == hash(SvsSpec(np.float64(0.3), 2.5, 0.1))
    assert cs != CsSpec(0.3, 1.0, 2.5, 0.1)
    assert repr(cs) == "CsSpec(zeta=(0.3+0j), xi=(1+0j), epsilon=2.5, theta=0.0)"
    assert repr(svs) == "SvsSpec(zeta=(0.3+0j), epsilon=2.5, theta=0.1)"
    assert dataclasses.replace(cs, theta=0.1) == CsSpec(0.3, 1.0, 2.5, 0.1)


def test_specs_hold_python_complex_and_float():
    spec = CsSpec(np.float64(0.3), 1, 2.5)
    assert type(spec.zeta) is complex and type(spec.xi) is complex
    assert type(spec.epsilon) is float and type(spec.theta) is float
    assert spec == CsSpec(0.3 + 0j, 1.0 + 0j, 2.5, 0.0)
    # numpy scalars and 0-d arrays read the doubles complex() and float() do
    svs = SvsSpec(np.float32(0.35), np.array(2.5), np.float32(0.1))
    assert (svs.zeta, svs.epsilon, svs.theta) == (
        complex(np.float32(0.35)), 2.5, float(np.float32(0.1)))
    assert (type(svs.zeta), type(svs.epsilon), type(svs.theta)) == (
        complex, float, float)


def test_squeeze_gap_written_once():
    # 1 - |zeta|^2 is formed by states.squeeze_gap alone, and no module
    # converts a spec's numbers again
    gap = re.compile(r"1(\.0)?\s*-\s*(abs\(.*?\)|z_abs)\s*\*\*\s*2")
    hits, conversions = [], []
    for path in sorted(pathlib.Path(states.__file__).parent.glob("*.py")):
        for line in path.read_text().splitlines():
            if gap.search(line):
                hits.append((path.name, line.strip()))
            if re.search(r"(complex|float)\(spec", line):
                conversions.append((path.name, line.strip()))
    inside = inspect.getsource(states.squeeze_gap)
    assert [hit for hit in hits
            if hit[0] != "states.py" or hit[1] not in inside] == []
    assert conversions == []


def test_state_columns_written_in_one_class():
    # a coherent state's column block is rebound only by _CsState (its empty
    # block, then grow) and its lines appended only by grow, with its rows
    writers = {".columns =": (states._CsState.__init__, states._CsState.grow),
               "lines.frombytes": (states._CsState.grow,)}
    hits = []
    for path in sorted(pathlib.Path(states.__file__).parent.glob("*.py")):
        for line in path.read_text().splitlines():
            hits += [(path.name, text, line.strip()) for text in writers
                     if text in line]
    assert len(hits) == 3
    for name, text, line in hits:
        assert name == "states.py"
        assert any(line in inspect.getsource(writer)
                   for writer in writers[text])


# one fresh coherent state read from four threads at once: unguarded, its
# growth raised ValueError in about half of such trials, returned a wrong
# line in some and left the cached state wrong in others
RACE_STATE = (0.3 + 0.2j, 1.5 - 0.7j, 2.5)
RACE_LINES = [2000 + 37 * k for k in range(4)]


def race(read, check, trials=20):
    """Each trial: a cleared state table, then read(i) in thread i of four
    behind a barrier, at a short switch interval, then check(results) on the
    four results (None where a thread raised) before the next trial; the
    interval is restored however a check ends."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(trials):
            states._state.cache_clear()
            barrier, got = threading.Barrier(4, timeout=60.0), [None] * 4

            def run(i):
                barrier.wait()
                got[i] = read(i)

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            check(got)
    finally:
        sys.setswitchinterval(interval)
        states._state.cache_clear()


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("amplitudes", [False, True],
                         ids=["lines", "lines_and_amplitudes"])
def test_concurrent_first_reads_equal_one_thread(amplitudes):
    # with amplitudes, the odd threads build amplitudes of about as many
    # rows as the lines of the even ones need, growing the same block

    def read(i):
        if amplitudes and i % 2:
            return cs_amplitudes(CsSpec(*RACE_STATE),
                                 truncation=RACE_LINES[i] // 2 * 2).amplitudes
        return cs_transition(*RACE_STATE, RACE_LINES[i])

    states._state.cache_clear()
    lines = range(RACE_LINES[-1] + 1)
    want_lines = [cs_transition(*RACE_STATE, n) for n in lines]
    want = [read(i) for i in range(4)]

    def check(got):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # every line of the cached state the threads grew reads the same
        # afterwards, in one thread
        assert [cs_transition(*RACE_STATE, n) for n in lines] == want_lines

    race(read, check)


def test_concurrent_first_reads_build_each_state_once(monkeypatch):
    # racing first reads of a fresh state build it in one thread; the others
    # find it in the table, and read what one thread reads alone
    built = []
    init = states._CsState.__init__
    monkeypatch.setattr(states._CsState, "__init__", lambda self, spec:
                        built.append(self) or init(self, spec))
    states._state.cache_clear()
    want = [cs_transition(*RACE_STATE, n) for n in RACE_LINES]
    assert len(built) == 1

    def check(got):
        assert got == want
        assert len(built) == 1
        built.clear()

    built.clear()
    race(lambda i: cs_transition(*RACE_STATE, RACE_LINES[i]), check)


def test_every_growth_holds_the_lock(monkeypatch):
    # the search, the amplitudes past its window and the lines each grow
    # the block, and every level they grow runs under the growth lock
    owned = []
    laguerre = states._laguerre
    monkeypatch.setattr(states, "_laguerre", lambda *args: owned.append(
        states._growth._is_owned()) or laguerre(*args))
    states._state.cache_clear()
    cs_amplitudes(CsSpec(*RACE_STATE), truncation=RACE_LINES[0])
    cs_transition(*RACE_STATE, RACE_LINES[-1])
    states._state.cache_clear()
    # two levels for each of the three growths at least
    assert len(owned) >= 6 and all(owned)


def test_search_runs_once_per_state_under_threads(monkeypatch):
    # racing first reads build the state once, under the growth lock, and
    # no state object runs its truncation search twice
    searched = []
    search = states._search_pairs
    monkeypatch.setattr(states, "_search_pairs",
                        lambda *args: searched.append(args[0])
                        or search(*args))
    states._state.cache_clear()
    want = states._cs_pairs(*RACE_STATE)

    def check(got):
        assert got == [want] * 4

    race(lambda i: states._cs_pairs(*RACE_STATE), check, trials=5)
    assert len(searched) > 5
    assert len({id(state) for state in searched}) == len(searched)


# SHA-256 over the state layer's outputs on PIN_STATES, pinned on these numpy
# and scipy versions, as the figure bytes are: every truncation, amplitude
# and P_n of a state is computed once per state and must not move by an ulp
STATE_LIBRARIES = {"numpy": "2.4.6", "scipy": "1.17.1"}
STATE_SHA256 = \
    "da849edb3972d3e45f57dfe4c7563da764452a99f5e8588731c24684a3e53a41"


def pin_states():
    """60 seeded (zeta, xi, eps, theta): |zeta| <= 0.85, |xi| <= 6, eps in
    [0.5, 6.5], every tenth with xi = 0."""
    rng = np.random.default_rng(2026)
    out = []
    for k in range(60):
        zeta = complex(0.85 * rng.uniform() * cmath.exp(2j * math.pi
                                                        * rng.uniform()))
        xi = complex(6.0 * rng.uniform() * cmath.exp(2j * math.pi
                                                     * rng.uniform()))
        out.append((zeta, 0j if k % 10 == 3 else xi,
                    float(rng.uniform(0.5, 6.5)),
                    float(rng.uniform(-math.pi, math.pi))))
    return out


def state_digest():
    """One SHA-256 over each pinned state's coherent truncation, amplitudes
    (at its phase) and P_n for n < N, its squeezed-vacuum amplitudes and P_2n for n < 40,
    its mean reflection and its overlap with the previous state's (zeta, xi)
    at its own level."""
    digest = hashlib.sha256()
    previous = None
    for zeta, xi, eps, theta in pin_states():
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=eps, theta=theta)
        amps = cs_amplitudes(spec).amplitudes
        lines = [cs_transition(zeta, xi, eps, n) for n in range(len(amps))]
        svs = svs_amplitudes(SvsSpec(zeta=zeta, epsilon=eps,
                                     theta=theta)).amplitudes
        svs_lines = [svs_transition(zeta, eps, n) for n in range(40)]
        overlap = 0j if previous is None else cs_overlap(
            CsSpec(zeta=previous[0], xi=previous[1], epsilon=eps), spec)
        for part in (np.array([len(amps)]), amps, np.array(lines), svs,
                     np.array(svs_lines), np.array([
                         mean_reflection(zeta, xi, eps)]),
                     np.array([overlap])):
            digest.update(part.tobytes())
        previous = (zeta, xi)
    return digest.hexdigest()


class TestStateBytes:
    def test_state_bytes_pinned(self):
        found = {"numpy": np.__version__, "scipy": scipy.__version__}
        if found != STATE_LIBRARIES:
            pytest.skip(f"state bytes pinned on {STATE_LIBRARIES}, "
                        f"found {found}")
        states._state.cache_clear()
        assert state_digest() == STATE_SHA256
