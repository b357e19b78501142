"""Coordinate sector: vacuum, wavefunctions, densities, Hamiltonian mapping."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, simpson

from conftest import fock_basis_wavefunction
from parabose import bessel, coordrep
from parabose.errors import DomainError, QuadratureError
from parabose.fock import AlgebraParams, build_hamiltonian, build_ladder
from parabose.states import CsSpec, cs_amplitudes

FIG_SPEC = CsSpec(zeta=0.45, xi=1j, epsilon=2.5)
FIG_PARAMS = AlgebraParams.from_ell(1)
# (ell, zeta, xi) pairs that once failed their parity norm (1.259, 1.007)
# while the ascending Bessel series lost accuracy off the real axis
FORMERLY_FAILING = ((1, -0.4 + 0.3j, 6j), (0, 0.6j, 2 + 5j))
# (ell, zeta, xi) squeezed states that failed a norm taken on the emission grid
NARROW_STATES = ((0, 0.7, 0.0), (2, 0.9, 0.0), (0, 0.95, 1j), (1, 0.95, 1j),
                 (2, 0.97, 0.5))
# (ell, zeta, xi) whose even-odd interference starts at x^(4 ell + 1): one
# trapezoid sum of |even + odd|^2 missed quad by 2.2e-4, -5.2e-4 and 1.3e-7
INTERFERING_STATES = ((0, 0.6j, 2 + 5j), (0, 0.3 + 0.2j, 1 + 1j),
                      (1, 0.6j, 2 + 5j))


def half_line_quad(spec, params, combine):
    """Adaptive factor-2 integral over x >= 0 of combine(even, odd)."""
    def integrand(x):
        even, odd = coordrep.wavefunction_parity_parts(spec, params, x)
        return 2.0 * float(combine(even[0], odd[0]))

    value, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13,
                    limit=200)
    return value


def parity_parts_mpmath(spec, l, x):
    """(even, odd) from the module docstring's formula, all in mpmath."""
    ell = coordrep.ell_from_epsilon(spec.epsilon)
    zeta, xi = mpmath.mpc(spec.zeta), mpmath.mpc(spec.xi)
    one = 1 - abs(zeta) ** 2
    y = abs(xi) ** 2 / one
    lo, hi = 2 * ell - mpmath.mpf(1) / 2, 2 * ell + mpmath.mpf(1) / 2
    w = mpmath.sqrt(2) * xi * x / ((1 - zeta) * l)
    common = (mpmath.sqrt(one) / (1 - zeta) * mpmath.sqrt(x) / l
              / mpmath.sqrt(mpmath.besseli(lo, y) + mpmath.besseli(hi, y))
              * mpmath.exp(-(1 + zeta) / (1 - zeta) * x ** 2 / (2 * l ** 2)
                           - (1 - mpmath.conj(zeta)) * xi ** 2
                           / (2 * (1 - zeta) * one)
                           + 1j * spec.theta))
    return (complex(common * mpmath.besseli(lo, w)),
            complex(common * mpmath.besseli(hi, w)))


class TestVacuum:
    def test_origin_value(self):
        # x = 0 with l = 0: Gamma(1/2) = sqrt(pi) gives pi^(-1/4)
        assert coordrep.vacuum_wavefunction(0, 1.0, 0.0) == pytest.approx(
            0.7511255444649425, rel=1e-12)

    def test_vanishes_at_origin_for_positive_ell(self):
        for ell in (1, 2, 3):
            assert coordrep.vacuum_wavefunction(ell, 1.0, 0.0) == 0.0
            assert coordrep.vacuum_wavefunction(ell, 1.0, 1e-6) < 1e-11

    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_half_line_normalization(self, ell):
        x = np.linspace(0.0, 16.0, 20001)
        psi = coordrep.vacuum_wavefunction(ell, 1.0, x)
        assert 2.0 * simpson(psi**2, x=x) == pytest.approx(1.0, abs=1e-10)

    def test_annihilation_condition_stencil(self):
        # first-order operator (d/dx + x/l^2 - (2 eps - 1)/(2x)) kills it
        h = 1e-3
        x = np.linspace(0.1, 6.0, 1201)
        for ell in (0, 1, 2):
            eps = 2 * ell + 0.5
            psi = lambda xx, _l=ell: coordrep.vacuum_wavefunction(_l, 1.0, xx)
            d = (-psi(x + 2 * h) + 8 * psi(x + h) - 8 * psi(x - h)
                 + psi(x - 2 * h)) / (12 * h)
            resid = d + (x - (2 * eps - 1) / (2 * x)) * psi(x)
            assert np.max(np.abs(resid)) <= 1e-6

    def test_quantization_gate(self):
        with pytest.raises(DomainError):
            coordrep.vacuum_wavefunction(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            coordrep.ell_from_epsilon(2.0)
        assert coordrep.ell_from_epsilon(6.5) == 3


class TestCsWavefunction:
    def test_matches_fock_series_oracle(self):
        # sum of c_n <x|n> across parities, all phases included
        x = np.linspace(0.01, 8.0, 40)
        for ell, zeta, xi in ((0, 0.3, 1.0), (1, 0.45, 1j),
                              (2, 0.2 + 0.1j, 0.8 - 0.3j)):
            spec = CsSpec(zeta=zeta, xi=xi, epsilon=2 * ell + 0.5, theta=0.23)
            c = cs_amplitudes(spec)
            series = sum(c.amplitudes[n] * fock_basis_wavefunction(n, ell, 1.0, x)
                         for n in range(c.truncation))
            direct = coordrep.cs_wavefunction(spec, AlgebraParams.from_ell(ell), x)
            assert np.max(np.abs(series - direct)) <= 1e-8

    def test_collapses_to_vacuum(self):
        x = np.linspace(0.0, 6.0, 200)
        for ell in (0, 2):
            spec = CsSpec(zeta=0.0, xi=0.0, epsilon=2 * ell + 0.5)
            got = coordrep.cs_wavefunction(spec, AlgebraParams.from_ell(ell), x)
            assert np.max(np.abs(got - coordrep.vacuum_wavefunction(ell, 1.0, x))) \
                <= 1e-12

    def test_tiny_argument_equals_origin_value(self):
        # complex ive(-1/2, w) is NaN below |w| ~ 2e-305; the regularized
        # Bessel factor takes its leading series term there
        spec = CsSpec(zeta=0.3, xi=1e-5, epsilon=0.5)
        params = AlgebraParams.from_ell(0)
        at0 = coordrep.cs_wavefunction(spec, params, 0.0)
        tiny = coordrep.cs_wavefunction(spec, params, 1e-300)
        assert np.isfinite(tiny)
        assert abs(tiny - at0) <= 1e-12 * abs(at0)

    def test_gaussian_reduction_with_anchored_phase(self):
        # the two closed forms share a branch when theta tracks arg(xi)
        params = AlgebraParams.from_ell(0)
        x = np.linspace(0.01, 8.0, 300)
        for zeta, phi in ((0.0, 0.0), (0.45, 0.0), (0.3, -0.7),
                          (0.2 - 0.4j, 0.9)):
            spec = CsSpec(zeta=zeta, xi=np.exp(1j * phi), epsilon=0.5,
                          theta=phi)
            a = coordrep.cs_wavefunction(spec, params, x)
            b = coordrep.cs_wavefunction_gaussian(spec, params, x)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_gaussian_reduction_branch_offset(self):
        # away from the anchored phase the gap is the constant
        # exp(i (theta - arg xi)/2)
        params = AlgebraParams.from_ell(0)
        x = np.array([0.4, 1.0, 2.5])
        spec = CsSpec(zeta=0.3, xi=1j, epsilon=0.5, theta=0.2)
        a = coordrep.cs_wavefunction(spec, params, x)
        b = coordrep.cs_wavefunction_gaussian(spec, params, x)
        expect = np.exp(0.5j * (0.2 - math.pi / 2.0))
        assert np.max(np.abs(a / b - expect)) <= 1e-12

    def test_parity_parts_against_mpmath(self):
        # Bessel arguments reach |Im w| ~ 40 (beyond the old series' ~18),
        # and ell = 0 exercises order -1/2
        with mpmath.workdps(30):
            for ell, zeta, xi in ((0, 0.3 + 0.2j, 8j), (1, -0.4 + 0.3j, 6j),
                                  (0, 0.6j, 2 + 5j)):
                spec = CsSpec(zeta=zeta, xi=xi, epsilon=2 * ell + 0.5,
                              theta=0.4)
                x = np.array([0.3, 1.0, 2.0, 3.5, 5.0])
                even, odd = coordrep.wavefunction_parity_parts(
                    spec, AlgebraParams.from_ell(ell), x)
                for j, xv in enumerate(x):
                    e_ref, o_ref = parity_parts_mpmath(spec, 1.0, float(xv))
                    assert abs(even[j] - e_ref) <= 1e-11 * abs(e_ref)
                    assert abs(odd[j] - o_ref) <= 1e-11 * abs(o_ref)

    def test_parity_parts_masses(self):
        # factor-2 masses of the components equal the Fock parity masses
        x = np.linspace(1e-5, 14.0, 28001)
        even, odd = coordrep.wavefunction_parity_parts(FIG_SPEC, FIG_PARAMS, x)
        c = cs_amplitudes(FIG_SPEC)
        even_mass = float(np.sum(np.abs(c.amplitudes[0::2]) ** 2))
        odd_mass = float(np.sum(np.abs(c.amplitudes[1::2]) ** 2))
        assert 2.0 * simpson(np.abs(even)**2, x=x) == pytest.approx(
            even_mass, abs=1e-9)
        assert 2.0 * simpson(np.abs(odd)**2, x=x) == pytest.approx(
            odd_mass, abs=1e-9)


class TestDensity:
    def test_two_routes_agree(self):
        for ell, zeta, xi in ((0, 0.45, 1j), (1, 0.45, 1j),
                              (2, 0.2 + 0.1j, 0.8), (3, 0.45, 1j)):
            spec = CsSpec(zeta=zeta, xi=xi, epsilon=2 * ell + 0.5)
            wg = coordrep.probability_density(spec, AlgebraParams.from_ell(ell))
            assert wg.two_route_residual <= 1e-10

    @pytest.mark.parametrize("ell, zeta, xi", [
        *((ell, 0.45, 1j) for ell in range(4)),   # configs/fig_density.conf
        *FORMERLY_FAILING,
    ])
    def test_fock_sum_route(self, ell, zeta, xi):
        # rho = |sum_n c_n <x|n>|^2 shares no Bessel evaluation with either
        # route inside probability_density: c_n are Laguerre columns, <x|n>
        # the conftest Laguerre oracle.  The automatic truncation leaves 1e-16
        # of mass, ~1e-8 of amplitude, so the sum runs to twice that length.
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=2 * ell + 0.5)
        wg = coordrep.probability_density(spec, AlgebraParams.from_ell(ell))
        c = cs_amplitudes(spec, truncation=2 * cs_amplitudes(spec).truncation)
        psi = sum(c.amplitudes[n]
                  * fock_basis_wavefunction(n, ell, 1.0, wg.x_values)
                  for n in range(c.truncation))
        peak = np.max(wg.rho_values)
        assert np.max(np.abs(np.abs(psi) ** 2 - wg.rho_values)) <= 1e-10 * peak

    @pytest.mark.parametrize("ell", [5, 6])
    def test_orders_past_the_elementary_cutoff(self, ell):
        # ell = 6 takes both Bessel orders from the general series and ive,
        # ell = 5 its odd one
        assert 2 * ell > bessel.ELEMENTARY_MAX_ORDER
        spec = CsSpec(zeta=0.45, xi=1j, epsilon=2 * ell + 0.5, theta=0.4)
        params = AlgebraParams.from_ell(ell)
        wg = coordrep.probability_density(spec, params)
        assert wg.two_route_residual <= 1e-10
        assert abs(wg.parity_norm - 1.0) <= 1e-9
        x = np.array([0.5, 2.0, 3.5, 5.0])
        even, odd = coordrep.wavefunction_parity_parts(spec, params, x)
        with mpmath.workdps(30):
            for j, xv in enumerate(x):
                e_ref, o_ref = parity_parts_mpmath(spec, 1.0, float(xv))
                assert abs(even[j] - e_ref) <= 1e-11 * abs(e_ref)
                assert abs(odd[j] - o_ref) <= 1e-11 * abs(o_ref)

    @pytest.mark.parametrize("ell, zeta, xi", FORMERLY_FAILING)
    def test_formerly_failing_states_normalized(self, ell, zeta, xi):
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=2 * ell + 0.5)
        wg = coordrep.probability_density(spec, AlgebraParams.from_ell(ell))
        assert abs(wg.parity_norm - 1.0) <= 1e-9
        assert wg.two_route_residual <= 1e-10

    def test_half_line_normalization_figure_family(self):
        # real squeeze with imaginary or zero displacement: plain integral = 1
        for ell, zeta, xi in ((0, 0.45, 1j), (1, 0.45, 1j), (2, -0.5, 1.2j),
                              (1, 0.6, 0.0)):
            spec = CsSpec(zeta=zeta, xi=xi, epsilon=2 * ell + 0.5)
            wg = coordrep.probability_density(spec, AlgebraParams.from_ell(ell))
            assert abs(wg.integral - 1.0) <= 1e-8
            assert abs(wg.parity_norm - 1.0) <= 1e-8

    def test_parity_norm_beats_interference(self):
        # real displacement at complex squeeze: the plain half-line integral
        # carries even-odd interference, the parity-resolved norm does not
        spec = CsSpec(zeta=0.2 + 0.1j, xi=0.8, epsilon=4.5)
        wg = coordrep.probability_density(spec, AlgebraParams.from_ell(2))
        assert abs(wg.parity_norm - 1.0) <= 1e-8
        assert abs(wg.integral - 1.0) > 0.1  # interference is real and large

    def test_figure_peak_progression(self):
        peaks = []
        for ell in range(4):
            spec = CsSpec(zeta=0.45, xi=1j, epsilon=2 * ell + 0.5)
            params = AlgebraParams.from_ell(ell)
            x = np.linspace(0.005, 6.0, 4000)
            rho = coordrep.density_closed_form(spec, params, x)
            interior_maxima = int(np.sum((np.diff(rho) > 0)[:-1]
                                         & (np.diff(rho) < 0)[1:]))
            assert interior_maxima <= 1
            peaks.append(float(x[np.argmax(rho)]))
        assert all(b > a for a, b in zip(peaks, peaks[1:]))

    def test_golden_section_peak_regression(self):
        # frozen regression: ell = 1 peak location via golden-section search
        x_peak = 0.7290151481163982
        rho_peak = 0.8010210572171329
        params = AlgebraParams.from_ell(1)
        assert coordrep.density_closed_form(FIG_SPEC, params, x_peak) == \
            pytest.approx(rho_peak, rel=1e-10)
        for dx in (-1e-4, 1e-4):
            assert coordrep.density_closed_form(FIG_SPEC, params, x_peak + dx) \
                < rho_peak

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_continuous_through_zero_displacement(self, ell):
        # displacements on both sides of 1e-20 and zero share one formula
        params = AlgebraParams.from_ell(ell)
        x = np.linspace(0.0, 6.0, 121)
        rho = [coordrep.density_closed_form(
            CsSpec(zeta=0.45 + 0.1j, xi=xi, epsilon=2 * ell + 0.5), params, x)
            for xi in (1e-19, 1e-21, 0.0)]
        for other in rho[:2]:
            assert np.max(np.abs(other - rho[2])) <= 1e-12 * np.max(rho[2])

    def test_vacuum_config_density(self):
        # ell = 0, no squeeze, no displacement: half-Gaussian peaked at 0+
        spec = CsSpec(zeta=0.0, xi=0.0, epsilon=0.5)
        params = AlgebraParams.from_ell(0)
        x = np.linspace(0.0, 5.0, 1000)
        rho = coordrep.density_closed_form(spec, params, x)
        assert np.argmax(rho) == 0
        assert rho[0] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)

    def test_negative_coordinate_rejected(self):
        for evaluate in (coordrep.cs_wavefunction, coordrep.density_closed_form):
            with pytest.raises(DomainError):
                evaluate(FIG_SPEC, FIG_PARAMS, -1.0)

    def test_bad_grid_rejected(self):
        with pytest.raises(DomainError):
            coordrep.probability_density(FIG_SPEC, FIG_PARAMS,
                                         np.array([1.0, 0.5, 2.0]))

    @pytest.mark.parametrize("ell, zeta, xi", NARROW_STATES)
    def test_narrow_states_normalized(self, ell, zeta, xi):
        # adaptive quadrature over the same parity parts, no shared rule
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=2 * ell + 0.5)
        params = AlgebraParams.from_ell(ell)
        wg = coordrep.probability_density(spec, params)
        reference = half_line_quad(
            spec, params, lambda even, odd: abs(even) ** 2 + abs(odd) ** 2)
        assert abs(wg.parity_norm - reference) <= 1e-12

    @pytest.mark.parametrize("ell, zeta, xi", INTERFERING_STATES)
    def test_interfering_integral_against_quad(self, ell, zeta, xi):
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=2 * ell + 0.5)
        params = AlgebraParams.from_ell(ell)
        wg = coordrep.probability_density(spec, params)
        reference = half_line_quad(spec, params,
                                   lambda even, odd: abs(even + odd) ** 2)
        assert abs(wg.integral - reference) <= 1e-10

    def test_figure_family_settles_after_two_sums(self, monkeypatch):
        # no interference, so the Romberg gate on the integral adds no halving
        parts = coordrep.wavefunction_parity_parts
        calls = []
        monkeypatch.setattr(coordrep, "wavefunction_parity_parts",
                            lambda *a: calls.append(a) or parts(*a))
        for ell in range(4):
            spec = CsSpec(zeta=0.45, xi=1j, epsilon=2 * ell + 0.5)
            coordrep._half_line_sums(spec, AlgebraParams.from_ell(ell), ell)
        assert len(calls) == 8

    def test_density_evaluates_its_grid_terms_once(self, monkeypatch):
        # psi and the closed form share one Bessel pair on the grid, and each
        # of the two half-line sums (the figure family settles after two)
        # evaluates its own pair on its own nodes
        ratio, parts = coordrep.ratio_array, coordrep.wavefunction_parity_parts
        ratios, sums = [], []
        monkeypatch.setattr(coordrep, "ratio_array",
                            lambda *a: ratios.append(a) or ratio(*a))
        monkeypatch.setattr(coordrep, "wavefunction_parity_parts",
                            lambda *a: sums.append(a) or parts(*a))
        grid = coordrep.default_grid(FIG_PARAMS, FIG_SPEC)
        wg = coordrep.probability_density(FIG_SPEC, FIG_PARAMS, grid)
        assert len(sums) == 2 and len(ratios) == 2 + 2 * len(sums)
        monkeypatch.undo()
        even, odd = coordrep.wavefunction_parity_parts(FIG_SPEC, FIG_PARAMS,
                                                       grid)
        assert np.array_equal(wg.psi_values, even + odd)
        assert np.array_equal(
            wg.rho_values,
            coordrep.density_closed_form(FIG_SPEC, FIG_PARAMS, grid))

    def test_default_grid_head_is_not_shared(self):
        first = coordrep.default_grid(FIG_PARAMS, FIG_SPEC, points=64)
        head = first[:16].copy()
        first[:16] = -1.0
        again = coordrep.default_grid(FIG_PARAMS, FIG_SPEC, points=64)
        assert np.array_equal(again[:16], head)
        assert np.array_equal(head, np.geomspace(1e-3, 0.2, 16, endpoint=False))

    def test_norm_independent_of_grid(self):
        grids = (None, coordrep.default_grid(FIG_PARAMS, FIG_SPEC, points=512),
                 np.linspace(0.1, 1.0, 64))
        sums = {(wg.parity_norm, wg.integral) for wg in (
            coordrep.probability_density(FIG_SPEC, FIG_PARAMS, grid)
            for grid in grids)}
        assert len(sums) == 1

    def test_norm_gate_fires(self, monkeypatch):
        # a normalization off by 1e-7 moves both density routes together, so
        # the two-route check (run first) passes and the norm gate must fire
        log_pair = coordrep.log_pair
        with monkeypatch.context() as m:
            m.setattr(coordrep, "log_pair",
                      lambda eps, y: log_pair(eps, y) + 1e-7)
            with pytest.raises(QuadratureError, match="misses 1"):
                coordrep.probability_density(FIG_SPEC, FIG_PARAMS)
        monkeypatch.setattr(coordrep, "NORM_NODE_CAP", 100)
        with pytest.raises(QuadratureError, match="did not settle"):
            coordrep.probability_density(FIG_SPEC, FIG_PARAMS)

    @pytest.mark.parametrize("evaluate", [
        coordrep.wavefunction_parity_parts, coordrep.cs_wavefunction,
        coordrep.cs_wavefunction_gaussian, coordrep.density_closed_form,
        lambda spec, params, x: coordrep.probability_density(spec, params),
        lambda spec, params, x: coordrep.default_grid(params, spec),
    ], ids=["parity_parts", "wavefunction", "gaussian", "closed_form",
            "probability_density", "default_grid"])
    def test_spec_params_epsilon_mismatch_rejected(self, evaluate):
        with pytest.raises(DomainError, match="disagree on epsilon"):
            evaluate(CsSpec(zeta=0.45, xi=1j, epsilon=4.5),
                     AlgebraParams.from_ell(0), np.array([0.5, 1.0]))


class TestHamiltonianMapping:
    def test_free_oscillator_values(self):
        params = AlgebraParams.from_ell(0)
        hm = coordrep.hamiltonian_mapping(0.0, 2.0, 0.0, params)
        assert hm.mass == pytest.approx(0.5)   # hbar/(l^2 beta)
        assert hm.omega == pytest.approx(2.0)
        assert hm.cross == 0.0 and hm.offset == 0.0

    def test_free_particle_edge(self):
        params = AlgebraParams.from_ell(0)
        hm = coordrep.hamiltonian_mapping(1.0, 1.0, 0.0, params)
        assert hm.omega == 0.0 and math.isinf(hm.mass)

    def test_negative_mass_rejected(self):
        with pytest.raises(DomainError):
            coordrep.hamiltonian_mapping(1.5, 1.0, 0.0,
                                         AlgebraParams.from_ell(0))

    def test_two_route_matrix_assembly(self):
        # mechanical form applied to the ladder matrices must rebuild the
        # ladder-form Hamiltonian entry for entry
        params = AlgebraParams.from_ell(1)
        alpha, beta, delta = 0.3 + 0.2j, 1.0, 0.5
        hm = coordrep.hamiltonian_mapping(alpha, beta, delta, params)
        assert hm.omega**2 == pytest.approx(beta**2 - alpha.real**2, abs=1e-12)
        n = 64
        a, ad, _ = build_ladder(params, n)
        l, hbar = params.length_scale, params.hbar
        x_op = (a + ad) * l / math.sqrt(2.0)
        p_op = hbar * (a - ad) / (1j * math.sqrt(2.0) * l)
        h_mech = (p_op @ p_op / (2.0 * hm.mass)
                  + 0.5 * hm.mass * hm.omega**2 * (x_op @ x_op)
                  + 0.5 * hm.cross * (p_op @ x_op + x_op @ p_op)
                  + hm.offset * np.eye(n))
        h_ladder = build_hamiltonian(params, alpha, beta, delta, n)
        assert np.max(np.abs(h_mech - h_ladder)) <= 1e-10
