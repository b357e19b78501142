"""Moments and uncertainty products against the truncated-matrix oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parabose.states as states
from parabose.errors import DomainError
from parabose.fock import AlgebraParams, build_ladder
from parabose.observables import cs_moments, uncertainty_products, xi_from_means
from parabose.states import CsSpec, cs_amplitudes


def matrix_moments(spec, params, extra=48):
    """Expectation values straight from the dense operator matrices."""
    n = 2 * (states._cs_pairs(spec.zeta, spec.xi, spec.epsilon) + extra)
    psi = cs_amplitudes(spec, truncation=n).amplitudes
    a, ad, refl = build_ladder(AlgebraParams(epsilon=spec.epsilon,
                                             length_scale=params.length_scale,
                                             hbar=params.hbar), n)
    l, hbar = params.length_scale, params.hbar
    x_op = (a + ad) * l / math.sqrt(2.0)
    p_op = hbar * (a - ad) / (1j * math.sqrt(2.0) * l)

    def ev(op):
        return complex(np.vdot(psi, op @ psi))

    mean_x, mean_p = ev(x_op).real, ev(p_op).real
    return {
        "mean_x": mean_x,
        "mean_p": mean_p,
        "var_x": ev(x_op @ x_op).real - mean_x**2,
        "var_p": ev(p_op @ p_op).real - mean_p**2,
        "cov_xp": 0.5 * (ev(x_op @ p_op) + ev(p_op @ x_op)).real
                  - mean_x * mean_p,
        "mean_r": ev(refl).real,
    }


class TestMoments:
    def test_zero_displacement_centers(self):
        params = AlgebraParams.from_ell(1)
        m = cs_moments(CsSpec(zeta=0.4 + 0.2j, xi=0.0, epsilon=2.5), params)
        assert m.mean_x == 0.0 and m.mean_p == 0.0
        assert m.mean_r == 1.0

    def test_canonical_vacuum(self):
        params = AlgebraParams(epsilon=0.5, length_scale=1.3, hbar=0.7)
        m = cs_moments(CsSpec(zeta=0.0, xi=0.0, epsilon=0.5), params)
        assert m.sigma_x == pytest.approx(1.3 / math.sqrt(2.0))
        assert m.sigma_p == pytest.approx(0.7 / (1.3 * math.sqrt(2.0)))
        assert m.sigma_x * m.sigma_p == pytest.approx(0.7 / 2.0)

    def test_matches_matrix_oracle(self, rng):
        worst = 0.0
        for _ in range(12):
            eps = rng.uniform(0.5, 4.5)
            spec = CsSpec(
                zeta=rng.uniform(0, 0.7) * np.exp(2j * np.pi * rng.uniform()),
                xi=rng.uniform(0, 1.8) * np.exp(2j * np.pi * rng.uniform()),
                epsilon=eps)
            params = AlgebraParams(epsilon=eps,
                                   length_scale=rng.uniform(0.5, 2.0))
            closed = cs_moments(spec, params)
            oracle = matrix_moments(spec, params)
            for key, val in oracle.items():
                worst = max(worst, abs(getattr(closed, key) - val))
        assert worst <= 1e-8

    def test_fig4_point_against_matrix(self):
        # the l = 1 configuration of the density figure, all six fields
        spec = CsSpec(zeta=0.45, xi=1j, epsilon=2.5)
        params = AlgebraParams.from_ell(1)
        closed = cs_moments(spec, params)
        oracle = matrix_moments(spec, params)
        for key, val in oracle.items():
            assert getattr(closed, key) == pytest.approx(val, abs=1e-8)

    def test_epsilon_mismatch(self):
        with pytest.raises(DomainError):
            cs_moments(CsSpec(zeta=0.0, xi=0.0, epsilon=2.5),
                       AlgebraParams(epsilon=1.5))


class TestUncertainty:
    def test_real_squeeze_minimizes_heisenberg(self):
        params = AlgebraParams(epsilon=2.5)
        for zeta in (0.0, 0.3, -0.5):
            spec = CsSpec(zeta=zeta, xi=0.7, epsilon=2.5)
            m = cs_moments(spec, params)
            heis, _ = uncertainty_products(zeta, m.mean_r, params)
            expect = 0.5 * (1.0 + 4.0 * m.mean_r)  # hbar = 1, eps = 5/2
            assert heis == pytest.approx(expect, rel=1e-13)

    def test_direct_formula_cross_check(self):
        # zeta = 0.3i, eps = 1/2, displacement large enough that the parity
        # mean is tiny: product ~ (1/2) sqrt(1 + 4 * 0.09 / 0.8281)
        params = AlgebraParams(epsilon=0.5)
        zeta = 0.3j
        spec = CsSpec(zeta=zeta, xi=4.0, epsilon=0.5)
        m = cs_moments(spec, params)
        heis, _ = uncertainty_products(zeta, m.mean_r, params)
        bare = 0.5 * math.sqrt(1.0 + 4.0 * 0.09 / (1.0 - 0.09) ** 2)
        assert heis == pytest.approx(bare * (1.0 + 0.0 * m.mean_r), rel=1e-10)
        assert heis == pytest.approx(m.sigma_x * m.sigma_p, rel=1e-12)

    def test_sr_value_independent_of_squeeze_phase(self):
        params = AlgebraParams(epsilon=2.5)
        vals = []
        for zeta in (0.3, 0.3j, 0.3 * np.exp(1j * np.pi / 4)):
            spec = CsSpec(zeta=zeta, xi=1.0, epsilon=2.5)
            m = cs_moments(spec, params)
            vals.append(uncertainty_products(zeta, m.mean_r, params)[1])
        assert max(vals) - min(vals) <= 1e-12

    @given(
        zeta_mag=st.floats(min_value=0.0, max_value=0.8),
        zeta_arg=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        xi_mag=st.floats(min_value=0.0, max_value=2.0),
        eps=st.floats(min_value=0.5, max_value=6.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_sr_saturation_property(self, zeta_mag, zeta_arg, xi_mag, eps):
        zeta = zeta_mag * np.exp(1j * zeta_arg)
        params = AlgebraParams(epsilon=eps)
        m = cs_moments(CsSpec(zeta=zeta, xi=xi_mag, epsilon=eps), params)
        _, sr = uncertainty_products(zeta, m.mean_r, params)
        assert abs((m.var_x * m.var_p - m.cov_xp**2) - sr) <= 1e-10

    def test_squeezing_order_relations(self):
        params = AlgebraParams(epsilon=2.5)
        sx, sp = [], []
        for zeta in np.linspace(0.0, 0.8, 9):
            m = cs_moments(CsSpec(zeta=zeta, xi=0.0, epsilon=2.5), params)
            sx.append(m.sigma_x)
            sp.append(m.sigma_p)
        assert all(b < a for a, b in zip(sx, sx[1:]))
        assert all(b > a for a, b in zip(sp, sp[1:]))


class TestXiRoundTrip:
    def test_round_trip(self, rng):
        for _ in range(15):
            params = AlgebraParams(epsilon=rng.uniform(0.5, 5.0),
                                   length_scale=rng.uniform(0.4, 2.0),
                                   hbar=rng.uniform(0.5, 1.5))
            zeta = rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform())
            xi = rng.uniform(0, 2.0) * np.exp(2j * np.pi * rng.uniform())
            m = cs_moments(CsSpec(zeta=zeta, xi=xi, epsilon=params.epsilon),
                           params)
            assert abs(xi_from_means(m.mean_x, m.mean_p, zeta, params) - xi) \
                <= 1e-12
