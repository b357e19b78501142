"""State constructors: normalization, reductions, transitions, overlaps."""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest
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
        n = 2 * (states._cs_pairs(zeta, xi, eps)[0] + 64)
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
        # the pair masses peak near exp(y), y = |xi|^2/(1-|zeta|^2); past
        # double range the truncation search once settled on 2 pairs
        assert cs_amplitudes(CsSpec(zeta=0.0, xi=26j, epsilon=2.5)) \
            .truncation == 902
        for xi, y in ((27j, "729"), (30j, "900")):
            start = time.perf_counter()
            with pytest.raises(DomainError, match=f"y = .* = {y}"):
                cs_amplitudes(CsSpec(zeta=0.0, xi=xi, epsilon=2.5))
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("zeta_abs", [0.98, 0.99, 0.999])
    def test_deep_squeeze_truncation_search(self, zeta_abs):
        # the smoothed window ratio is floored at |zeta|^2, so past
        # |zeta|^2 = 0.95 the search once scanned to MAX_PAIRS (~1 s a state)
        spec = CsSpec(zeta=zeta_abs * np.exp(0.3j), xi=0.5, epsilon=2.5)
        start = time.perf_counter()
        n_pairs = cs_amplitudes(spec).truncation // 2
        assert time.perf_counter() - start < 0.5
        w, _, _ = states._pair_masses(8 * n_pairs, spec.zeta, spec.xi, spec.epsilon)
        assert np.sum(w[n_pairs:]) < states.CS_TAIL_BOUND * np.sum(w)

    def test_search_window_columns_reused(self, monkeypatch):
        # the amplitudes slice the truncation search's last window and equal
        # (==) a fresh column build at the chosen length; only an explicit
        # truncation past that window builds the columns again
        rng = np.random.default_rng(5)
        builds = []
        build = states._cs_columns
        monkeypatch.setattr(states, "_cs_columns",
                            lambda n, *args: builds.append(n) or build(n, *args))
        for _ in range(12):
            zeta = complex(rng.uniform(0.0, 0.8) * np.exp(2j * np.pi * rng.uniform()))
            xi = complex(rng.uniform(0.0, 6.0) * np.exp(2j * np.pi * rng.uniform()))
            eps = float(rng.uniform(0.5, 6.0))
            spec = CsSpec(zeta=zeta, xi=xi, epsilon=eps)
            window = len(states._cs_pairs(zeta, xi, eps)[1])
            for truncation in (None, 2 * window, 2 * window + 64):
                builds.clear()
                v = cs_amplitudes(spec, truncation=truncation)
                n_pairs = v.truncation // 2
                assert builds[-1] == (n_pairs if n_pairs > window else window)
                even, odd = build(n_pairs, zeta, xi, eps)
                pre = cmath.exp(states._cs_log_prefactor(spec))
                amps = np.zeros(v.truncation, dtype=complex)
                amps[0::2] = pre * even
                amps[1::2] = pre * (xi / math.sqrt(2.0)) * odd
                assert np.array_equal(v.amplitudes,
                                      states._finalize(amps, "").amplitudes)

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
        # the O(n) per-call evaluation the cached columns must reproduce
        m, parity = divmod(n, 2)
        alpha = eps - 1.0 + parity
        one = 1.0 - abs(zeta) ** 2
        col = states._scaled_laguerre_column(m + 1, alpha, zeta, 0.5 * xi * xi)
        log_p = (eps * math.log(one)
                 + (np.conj(zeta) * xi * xi).real / one
                 - states._log_i_sum(eps, abs(xi) ** 2 / one)
                 + math.lgamma(m + 1.0) - math.lgamma(m + alpha + 1.0))
        return min(float(abs(col[m]) ** 2 * (0.5 * abs(xi) ** 2) ** parity
                         * math.exp(log_p)), 1.0)

    def test_cached_columns_independent_of_call_order(self):
        a, b = (0.6 * np.exp(0.4j), 2.5 - 1.5j, 2.5), (0.3j, -4.0 + 1.0j, 6.5)
        ns = range(300)

        def fresh(state):
            states._cs_distribution.cache_clear()
            return [cs_transition(*state, n) for n in ns]

        want_a, want_b = fresh(a), fresh(b)
        assert want_a == [self._per_n(*map(complex, a[:2]), a[2], n)
                          for n in ns]
        states._cs_distribution.cache_clear()
        assert [cs_transition(*a, n) for n in reversed(ns)] == want_a[::-1]
        states._cs_distribution.cache_clear()
        mixed = [(cs_transition(*a, n), cs_transition(*b, n)) for n in ns]
        assert [p for p, _ in mixed] == want_a
        assert [q for _, q in mixed] == want_b

    def test_cache_is_bounded(self):
        for k in range(20):
            cs_transition(0.01 * k, 1.0, 2.5, 40)
        assert states._cs_distribution.cache_info().currsize \
            <= states.DISTRIBUTION_CACHE < 20

    def test_nan_displacement_rejected_after_cached_call(self):
        cs_transition(0.3, 1.0, 2.5, 3)
        size = states._cs_distribution.cache_info().currsize
        with pytest.raises(DomainError, match="xi must be finite"):
            cs_transition(0.3, math.nan, 2.5, 3)
        assert states._cs_distribution.cache_info().currsize == size


class TestCsOverlap:
    def test_identical_specs(self):
        s = CsSpec(zeta=0.3 + 0.2j, xi=0.9 - 0.4j, epsilon=2.5, theta=0.7)
        assert cs_overlap(s, s) == pytest.approx(1.0, abs=1e-11)

    @staticmethod
    def _fock_overlap(s1, s2):
        eps = s1.epsilon
        n = 2 * max(states._cs_pairs(s1.zeta, s1.xi, eps)[0],
                    states._cs_pairs(s2.zeta, s2.xi, eps)[0])
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
        n = 2 * (states._cs_pairs(s2.zeta, s2.xi, eps)[0] + 16)
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
        # the columns overflow past y ~ 700, the log-space closed form not
        xi = math.sqrt(y * (1.0 - abs(zeta) ** 2)) * np.exp(2.0j)
        s = CsSpec(zeta=zeta, xi=xi, epsilon=2.5, theta=0.3)
        with pytest.raises(DomainError):
            cs_amplitudes(s)
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


@pytest.mark.parametrize("n", [math.nan, math.inf, -1, 1.5])
@pytest.mark.parametrize("call", [
    lambda n: svs_transition(0.3, 2.5, n),
    lambda n: cs_transition(0.3, 1.0, 2.5, n),
    lambda n: diagonal_identity_residual(2.5, n),
])
def test_index_must_be_a_nonnegative_integer(call, n):
    # n = nan raised a bare ValueError from int(n)
    with pytest.raises(DomainError, match="nonnegative integer"):
        call(n)
