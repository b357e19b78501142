"""Constant-frequency application: closed forms, oracle fidelity, asymptotics."""

import cmath
import math
import os

import mpmath
import numpy as np
import pytest

from parabose.config import parse_scenario
from parabose.dynamics import solve_zeta_xi
from parabose.errors import DomainError
from parabose.fock import evolve_trajectory
from parabose.observables import cs_moments
from parabose.oscillator import OscillatorConfig, asymptotic_uncertainties, \
    calibrate_l, closed_form_parameters, cs_state, mean_trajectories, \
    stationary_transition, uncertainty_trajectory
from parabose.schedules import constant_schedule
from parabose.states import CsSpec, cs_amplitudes, cs_transition

CFG = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.3, xi0=1.0)


class TestOscillatorConfig:
    def test_nan_displacement_rejected(self):
        # it used to construct, then give NaN means and a bare ValueError
        for xi0 in (math.nan, complex(1.0, math.nan), complex(math.inf, 0.0)):
            with pytest.raises(DomainError, match="xi0"):
                OscillatorConfig(omega0=1, ell=1, zeta0=0.3, xi0=xi0)

    def test_infinite_frequency_rejected(self):
        # omega0 = inf used to give period 0.0 and NaN means
        for omega0 in (math.inf, math.nan):
            with pytest.raises(DomainError, match="omega0"):
                OscillatorConfig(omega0=omega0, ell=1, zeta0=0.3, xi0=1.0)


class TestClosedFormParameters:
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(DomainError, match="finite"):
            closed_form_parameters(CFG, t)

    def test_initial_point(self):
        p = closed_form_parameters(CFG, 0.0)
        assert p.zeta == CFG.zeta0 and p.xi == CFG.xi0
        assert p.theta_svs == 0.0 and p.theta_cs == 0.0

    def test_half_period_flips_displacement(self):
        p = closed_form_parameters(CFG, math.pi / CFG.omega0)
        assert p.zeta == pytest.approx(CFG.zeta0, abs=1e-14)
        assert p.xi == pytest.approx(-CFG.xi0, abs=1e-14)

    def test_matches_ode_route(self):
        cfg = OscillatorConfig(omega0=1.3, ell=1, zeta0=0.4 * np.exp(0.5j),
                               xi0=0.9j)
        traj = solve_zeta_xi(constant_schedule(0.0, cfg.omega0, 0.0),
                             cfg.zeta0, cfg.xi0, t_final=cfg.period,
                             epsilon=cfg.epsilon)
        worst = 0.0
        for idx in range(0, len(traj.times), 256):
            p = closed_form_parameters(cfg, float(traj.times[idx]))
            worst = max(worst, abs(traj.zeta[idx] - p.zeta),
                        abs(traj.xi[idx] - p.xi),
                        abs(traj.theta_svs()[idx] - p.theta_svs),
                        abs(traj.theta_cs()[idx] - p.theta_cs))
        assert worst <= 1e-9


class TestAnalyticState:
    def test_explicit_time_evolved_amplitudes(self):
        # phases per parity: even amplitudes rotate as
        # exp(-2 i w (n + l) t) exp(-i w t / 2), odd pick an extra
        # exp(-i w t); checked against the frozen-time constructor away from
        # the displacement branch cut
        cfg = OscillatorConfig(omega0=1.0, ell=2, zeta0=0.4, xi0=1.0)
        t = 0.9  # arg xi(t) stays inside (-pi, pi)
        v0 = cs_amplitudes(CsSpec(zeta=cfg.zeta0, xi=cfg.xi0,
                                  epsilon=cfg.epsilon))
        vt = cs_state(cfg, t, truncation=v0.truncation)
        w = cfg.omega0 * t
        worst = 0.0
        for n in range(v0.truncation // 2):
            even = v0.amplitudes[2 * n] * cmath.exp(
                -2j * w * (n + cfg.ell) - 0.5j * w)
            odd = v0.amplitudes[2 * n + 1] * cmath.exp(
                -2j * w * (n + cfg.ell) - 1.5j * w)
            worst = max(worst, abs(vt.amplitudes[2 * n] - even),
                        abs(vt.amplitudes[2 * n + 1] - odd))
        assert worst <= 1e-10

    def test_oracle_fidelity_over_period(self):
        cfg = OscillatorConfig(omega0=1.0, ell=2, zeta0=0.6,
                               xi0=2.0 * np.exp(0.4j))
        t_final = cfg.period
        psi0 = cs_state(cfg, 0.0, truncation=256)
        times, psis = evolve_trajectory(
            psi0, constant_schedule(0.0, 1.0, 0.0), t_final, t_final / 8192,
            cfg.algebra_params(), n_samples=8)
        for t, psi in zip(times, psis):
            ana = cs_state(cfg, float(t), truncation=256)
            assert abs(complex(np.vdot(ana.amplitudes, psi))) >= 1.0 - 1e-7

    def test_oracle_phase_exact_over_period(self):
        # stronger than fidelity: the winding-corrected analytic state keeps
        # the inner product at +1 across the displacement-argument wrap
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.3, xi0=1.0)
        t_final = cfg.period
        psi0 = cs_state(cfg, 0.0, truncation=128)
        times, psis = evolve_trajectory(
            psi0, constant_schedule(0.0, 1.0, 0.0), t_final, t_final / 8192,
            cfg.algebra_params(), n_samples=8)
        for t, psi in zip(times, psis):
            ana = cs_state(cfg, float(t), truncation=128)
            assert abs(complex(np.vdot(ana.amplitudes, psi)) - 1.0) <= 1e-9


class TestMeanTrajectories:
    def test_zero_displacement_rests(self):
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.5, xi0=0.0)
        ts = np.linspace(0.0, cfg.period, 40)
        x, p = mean_trajectories(cfg, ts)
        assert np.max(np.abs(x)) == 0.0 and np.max(np.abs(p)) == 0.0

    def test_figure_configuration_initials(self):
        # ell = 2, |xi0| = 1, arg xi0 = pi/2, real squeeze: the mean starts
        # at the origin with momentum sqrt(2) l m w (1 + z)/(1 - z^2)
        for z0 in (0.0, 0.25, 0.5, 0.75):
            cfg = OscillatorConfig(omega0=1.0, ell=2, zeta0=z0, xi0=1j)
            x0, p0 = mean_trajectories(cfg, 0.0)
            expect = (math.sqrt(2.0) * cfg.l * cfg.mass * cfg.omega0
                      * (1.0 + z0) / (1.0 - z0**2))
            assert abs(x0) <= 1e-15
            assert p0 == pytest.approx(expect, rel=1e-13)

    def test_array_call_equals_scalar_calls(self):
        # the oscillator command takes its means from one array call
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "configs", "fig_oscillator.conf"),
                  encoding="utf-8") as fh:
            conf = parse_scenario(fh.read())
        cfg = OscillatorConfig(omega0=conf["schedule.beta"],
                               ell=conf["algebra.ell"], zeta0=conf.zeta0(),
                               xi0=conf.xi0(), l=conf["algebra.l"],
                               hbar=conf["algebra.hbar"])
        times = np.linspace(0.0, conf["run.t_final"], conf["run.samples"] + 1)
        assert len(times) == 129
        x, p = mean_trajectories(cfg, times)
        for i, t in enumerate(times.tolist()):
            assert mean_trajectories(cfg, t) == (x[i], p[i])

    def test_energy_invariant(self):
        cfg = OscillatorConfig(omega0=1.4, ell=1, zeta0=0.4 * np.exp(1.1j),
                               xi0=1.2j, l=0.8)
        ts = np.linspace(0.0, cfg.period, 63)
        x, p = mean_trajectories(cfg, ts)
        energy = 0.5 * cfg.mass * cfg.omega0**2 * x**2 + p**2 / (2 * cfg.mass)
        assert np.max(np.abs(energy - energy[0])) <= 1e-12

    def test_consistent_with_moment_formulas(self):
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.3 * np.exp(0.7j),
                               xi0=0.8 - 0.5j)
        params = cfg.algebra_params()
        for t in (0.0, 0.6, 2.2):
            p = closed_form_parameters(cfg, t)
            m = cs_moments(CsSpec(zeta=p.zeta, xi=p.xi, epsilon=cfg.epsilon),
                           params)
            x_t, p_t = mean_trajectories(cfg, t)
            assert x_t == pytest.approx(m.mean_x, abs=1e-12)
            assert p_t == pytest.approx(m.mean_p, abs=1e-12)

    def test_oracle_evolved_means_follow_closed_forms(self):
        # Ehrenfest loop closed end to end: expectation values taken on the
        # RK4-evolved state reproduce the harmonic mean trajectories
        import math
        from parabose.fock import build_ladder
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.4 * np.exp(0.6j),
                               xi0=0.9 - 0.3j, l=1.2)
        params = cfg.algebra_params()
        n = 128
        psi0 = cs_state(cfg, 0.0, truncation=n)
        t_final = cfg.period
        times, psis = evolve_trajectory(
            psi0, constant_schedule(0.0, cfg.omega0, 0.0), t_final,
            t_final / 8192, params, n_samples=8)
        a, ad, _ = build_ladder(params, n)
        x_op = (a + ad) * cfg.l / math.sqrt(2.0)
        p_op = cfg.hbar * (a - ad) / (1j * math.sqrt(2.0) * cfg.l)
        for t, psi in zip(times, psis):
            x_t, p_t = mean_trajectories(cfg, float(t))
            assert complex(np.vdot(psi, x_op @ psi)).real == pytest.approx(
                x_t, abs=1e-8)
            assert complex(np.vdot(psi, p_op @ psi)).real == pytest.approx(
                p_t, abs=1e-8)


class TestUncertainty:
    def test_real_squeeze_minimum_at_zero(self):
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.5, xi0=1.0)
        snap = uncertainty_trajectory(cfg, 0.0)
        assert 0.0 in snap.minima_times
        r_bar = cfg.mean_r()
        assert snap.heisenberg == pytest.approx(
            0.5 * (1.0 + 4.0 * r_bar), rel=1e-13)

    def test_minima_are_sampled_minima(self):
        cfg = OscillatorConfig(omega0=1.0, ell=1,
                               zeta0=0.5 * np.exp(0.8j), xi0=1.0)
        snap = uncertainty_trajectory(cfg, cfg.period)
        heis = [uncertainty_trajectory(cfg, float(t)).heisenberg
                for t in np.linspace(0.0, cfg.period, 1501)]
        floor = min(heis)
        assert snap.minima_times
        for tk in snap.minima_times:
            assert 0.0 <= tk <= cfg.period
            assert uncertainty_trajectory(cfg, float(tk)).heisenberg \
                <= floor + 1e-12

    def test_sr_constant_in_time(self):
        cfg = OscillatorConfig(omega0=1.0, ell=2, zeta0=0.4j, xi0=0.7)
        vals = {uncertainty_trajectory(cfg, float(t)).schrodinger_robertson
                for t in np.linspace(0.0, cfg.period, 17)}
        assert len(vals) == 1

    def test_oscillation_extremes(self):
        # |zeta0| = 0.5, real, l = 0, displacement large enough that the
        # parity mean is negligible: product swings between 1/2 and
        # (1/2) sqrt(1 + 4 * 0.25 / 0.5625)
        cfg = OscillatorConfig(omega0=1.0, ell=0, zeta0=0.5, xi0=6.0)
        heis = [uncertainty_trajectory(cfg, float(t)).heisenberg
                for t in np.linspace(0.0, cfg.period, 2001)]
        lo, hi = min(heis), max(heis)
        assert lo == pytest.approx(0.5, rel=1e-6)
        assert hi == pytest.approx(0.5 * math.sqrt(1 + 1.0 / 0.5625), rel=1e-6)


class TestCalibrateL:
    def test_round_trip(self, rng):
        for _ in range(12):
            ell = int(rng.integers(0, 4))
            z0 = rng.uniform(-0.7, 0.7)
            xi0 = rng.uniform(0, 2) * np.exp(2j * np.pi * rng.uniform())
            l = rng.uniform(0.4, 2.5)
            from parabose.fock import AlgebraParams
            params = AlgebraParams.from_ell(ell, length_scale=l)
            m = cs_moments(CsSpec(zeta=z0, xi=xi0, epsilon=2 * ell + 0.5),
                           params)
            assert calibrate_l(m.sigma_x, z0, xi0, ell) == pytest.approx(
                l, rel=1e-12)

    def test_unsqueezed_vacuum_value(self):
        # zeta0 = 0, l = 0, xi0 = 0: parity mean 1, so l = sigma sqrt(2)
        assert calibrate_l(0.7, 0.0, 0.0, 0) == pytest.approx(
            0.7 * math.sqrt(2.0), rel=1e-14)

    def test_domain_gates(self):
        with pytest.raises(DomainError):
            calibrate_l(1.0, 0.3 + 0.2j, 0.0, 1)
        with pytest.raises(DomainError):
            calibrate_l(1.0, 1.0, 0.0, 1)
        with pytest.raises(DomainError):
            calibrate_l(-1.0, 0.0, 0.0, 1)

    def test_nan_squeeze_parts_rejected(self):
        # a NaN imaginary part used to pass the real-squeeze gate
        for zeta0 in (complex(0.3, math.nan), complex(math.nan, 0.0)):
            with pytest.raises(DomainError):
                calibrate_l(1.0, zeta0, 1.0, 1)
        with pytest.raises(DomainError, match="sigma_x0"):
            calibrate_l(math.inf, 0.3, 1.0, 1)

    def test_pole_toward_unit_squeeze(self):
        assert calibrate_l(1.0, 0.999, 0.0, 0) > 30.0


class TestStationaryTransition:
    def test_matches_time_evolved_distribution(self):
        cfg = OscillatorConfig(omega0=1.0, ell=2, zeta0=0.5, xi0=1j)
        for t in (0.0, 0.7, 2.1):
            p = closed_form_parameters(cfg, t)
            for n in range(12):
                assert stationary_transition(cfg, n) == pytest.approx(
                    cs_transition(p.zeta, p.xi, cfg.epsilon, n), abs=1e-10)

    def test_zero_displacement_kills_odd(self):
        cfg = OscillatorConfig(omega0=1.0, ell=2, zeta0=0.5, xi0=0.0)
        assert all(stationary_transition(cfg, n) == 0.0 for n in (1, 3, 7))

    def test_zero_squeeze_recovers_undeformed_coherent_family(self):
        # zeta0 = 0 panel: lines are the zero-squeeze series moduli
        cfg = OscillatorConfig(omega0=1.0, ell=2, zeta0=0.0, xi0=1j)
        eps, xi = cfg.epsilon, 1j
        norm = float(mpmath.besseli(eps - 1.0, 1.0)
                     + mpmath.besseli(eps, 1.0))
        for n in range(10):
            m, parity = divmod(n, 2)
            if parity == 0:
                expect = (0.5 ** (eps - 1.0) / norm
                          * 0.25 ** m
                          * math.exp(-math.lgamma(m + 1.0)
                                     - math.lgamma(m + eps)))
            else:
                expect = (0.5 ** (eps - 1.0) / norm * 0.5
                          * 0.25 ** m
                          * math.exp(-math.lgamma(m + 1.0)
                                     - math.lgamma(m + eps + 1.0)))
            assert stationary_transition(cfg, n) == pytest.approx(
                expect, rel=1e-11)

    def test_fig5_sweep_is_time_independent_and_normalized(self):
        for z0 in (0.0, 0.25, 0.5, 0.75):
            cfg = OscillatorConfig(omega0=1.0, ell=2, zeta0=z0, xi0=1j)
            total = sum(stationary_transition(cfg, n) for n in range(400))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestAsymptotics:
    def test_small_regime_zero_displacement(self):
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.3, xi0=0.0)
        approx = asymptotic_uncertainties(cfg, "small")
        assert approx.mean_r == 1.0

    def test_small_regime_monotone_convergence(self):
        errs = []
        for mag in (0.3, 0.1, 0.03):
            cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.4, xi0=mag)
            exact = uncertainty_trajectory(cfg, 0.0).heisenberg
            approx = asymptotic_uncertainties(cfg, "small",
                                              small_xi_max=0.5).heisenberg
            errs.append(abs(exact - approx) / exact)
        assert errs[0] > errs[1] > errs[2]

    def test_large_regime_monotone_convergence(self):
        errs = []
        for mag in (5.0, 10.0, 20.0):
            cfg = OscillatorConfig(omega0=1.0, ell=2, zeta0=0.3, xi0=mag)
            exact = uncertainty_trajectory(cfg, 0.0).heisenberg
            approx = asymptotic_uncertainties(cfg, "large",
                                              large_y_min=20.0).heisenberg
            errs.append(abs(exact - approx) / exact)
        assert errs[0] > errs[1] > errs[2]

    def test_large_regime_canonical_limit(self):
        # l = 0 drives the products to the undeformed floor
        cfg = OscillatorConfig(omega0=1.0, ell=0, zeta0=0.2, xi0=10.0)
        approx = asymptotic_uncertainties(cfg, "large")
        assert approx.schrodinger_robertson == pytest.approx(0.25, abs=1e-15)
        assert approx.mean_r == 0.0

    def test_large_regime_negative_parity_window(self):
        # approximant turns negative when |xi0|^2 < 2 l^2 (1 - z0^2); the
        # exact parity mean need not follow at moderate argument, so the
        # assertion is on the approximant alone
        ell, z0 = 3, 0.2
        xi = math.sqrt(2.0 * ell**2 * (1.0 - z0**2)) * 0.9
        cfg = OscillatorConfig(omega0=1.0, ell=ell, zeta0=z0, xi0=xi)
        approx = asymptotic_uncertainties(cfg, "large", large_y_min=1.0)
        assert approx.mean_r < 0.0

    def test_regime_gates(self):
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.3, xi0=1.0)
        with pytest.raises(DomainError):
            asymptotic_uncertainties(cfg, "small")
        with pytest.raises(DomainError):
            asymptotic_uncertainties(cfg, "large")
        with pytest.raises(DomainError):
            asymptotic_uncertainties(cfg, "medium")
