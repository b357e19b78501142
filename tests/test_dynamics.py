"""Integrals of motion: coefficient ODEs, conserved quantities, operator assembly."""

import math

import numpy as np
import pytest

from parabose.dynamics import assemble_A, solve_fg, solve_zeta_xi
from parabose.errors import DomainError, IntegrationError
from parabose.fock import AlgebraParams, build_ladder, evolve_trajectory
from parabose.oscillator import OscillatorConfig, cs_state
from parabose.schedules import constant_schedule, sinusoidal_schedule, \
    tabulated_schedule

T = 2.0 * math.pi


class TestSolveFG:
    def test_free_rotation_closed_form(self):
        # alpha = 0, beta = w0: f, g rotate with opposite phases
        w0 = 1.3
        mi = solve_fg(constant_schedule(0.0, w0, 0.0), 1.0, 0.4, 0.0,
                      t_final=T)
        assert np.max(np.abs(mi.f - np.exp(1j * w0 * mi.times))) < 1e-11
        assert np.max(np.abs(mi.g - 0.4 * np.exp(-1j * w0 * mi.times))) < 1e-11

    def test_mu_for_unsqueezed_initials(self):
        mi = solve_fg(sinusoidal_schedule(alpha_amp=0.2, beta0=1.0),
                      1.0, 0.0, 0.0, t_final=T)
        assert mi.mu == 1.0
        assert mi.mu_drift <= 1e-9

    def test_step_halving_self_consistency(self):
        sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0)
        mi = solve_fg(sched, 1.0, 0.3, 0.0, t_final=T)
        mi_half = solve_fg(sched, 1.0, 0.3, 0.0, t_final=T, dt=T / 8192)
        assert abs(mi.f[-1] - mi_half.f[-1]) < 1e-8

    def test_singular_initials_rejected(self):
        with pytest.raises(DomainError):
            solve_fg(constant_schedule(), 0.5, 0.5, 0.0, t_final=1.0)

    def test_step_halving_guard(self):
        # 64 steps per period leave a ~4e-6 gap to the halved-step rerun
        with pytest.raises(IntegrationError, match="halved-step"):
            solve_fg(sinusoidal_schedule(alpha_amp=0.2, beta0=1.0),
                     1.0, 0.3, 0.0, t_final=T, dt=T / 64)


class TestSolveZetaXi:
    def test_free_rotation_closed_form(self):
        w0 = 0.9
        traj = solve_zeta_xi(constant_schedule(0.0, w0, 0.0), 0.35, 0.8,
                             t_final=T, epsilon=2.5)
        assert np.max(np.abs(traj.zeta - 0.35 * np.exp(-2j * w0 * traj.times))) < 1e-11
        assert np.max(np.abs(traj.xi - 0.8 * np.exp(-1j * w0 * traj.times))) < 1e-11

    def test_zero_squeeze_fixed_point(self):
        traj = solve_zeta_xi(constant_schedule(0.0, 1.0, 0.3), 0.0, 0.5,
                             t_final=T)
        assert np.max(np.abs(traj.zeta)) == 0.0

    def test_two_route_equivalence(self):
        sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0)
        mi = solve_fg(sched, 1.0, 0.25, 0.0, t_final=T)
        traj = solve_zeta_xi(sched, 0.25, 0.4, t_final=T)
        assert np.max(np.abs(mi.zeta() - traj.zeta)) < 1e-8

    def test_phase_accumulation_free_case(self):
        # alpha = delta = 0: theta_cs = -w0 t, theta_svs = -eps w0 t
        traj = solve_zeta_xi(constant_schedule(0.0, 1.0, 0.0), 0.2, 0.3,
                             t_final=T, epsilon=2.5)
        assert traj.theta_cs()[-1] == pytest.approx(-T, abs=1e-9)
        assert traj.theta_svs()[-1] == pytest.approx(-2.5 * T, abs=1e-9)

    def test_f_reconstruction_route(self):
        sched = sinusoidal_schedule(alpha_amp=0.25, beta0=1.1, omega=1.3)
        mi = solve_fg(sched, 1.0, 0.35, 0.0, t_final=T)
        traj = solve_zeta_xi(sched, 0.35, 0.4, t_final=T)
        rel = np.abs(mi.f - traj.f_reconstructed(1.0)) / np.abs(mi.f)
        assert np.max(rel) < 1e-7

    def test_step_halving_guard(self):
        with pytest.raises(IntegrationError, match="halved-step"):
            solve_zeta_xi(sinusoidal_schedule(alpha_amp=0.2, beta0=1.0),
                          0.3, 0.5, t_final=T, dt=T / 64)

    def test_squeeze_blowup_guard(self):
        # resonant drive at twice the trap frequency squeezes without bound
        sched = sinusoidal_schedule(alpha0=0.45, beta0=1.0, omega=2.0)
        with pytest.raises(IntegrationError):
            solve_zeta_xi(sched, 0.97, 0.0, t_final=40 * T, dt=T / 256)


class TestAssembleA:
    def test_identity_bogoliubov(self):
        params = AlgebraParams(epsilon=1.5)
        mi = solve_fg(constant_schedule(), 1.0, 0.0, 0.0, t_final=1.0)
        a, _, _ = build_ladder(params, 16)
        # at t = 0 with f = 1, g = 0 the map is the bare lowering operator
        assert np.max(np.abs(assemble_A(mi, 0.0, params, 16) - a)) == 0.0

    def test_commutator_on_vacuum(self):
        params = AlgebraParams.from_ell(1)
        mi = solve_fg(sinusoidal_schedule(alpha_amp=0.2, beta0=1.0),
                      1.2, 0.5j, 0.0, t_final=T)
        for idx in (0, 640, 2048, 4096):  # on-grid times (no interpolation)
            op = assemble_A(mi, float(mi.times[idx]), params, 48)
            comm = (op @ op.conj().T - op.conj().T @ op)[0, 0].real
            assert comm == pytest.approx(mi.mu * (1.0 + params.nu), rel=1e-10)

    def test_eigenrelation_on_oracle_evolved_state(self):
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.3, xi0=1.0)
        params = cfg.algebra_params()
        sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0)
        psi0 = cs_state(cfg, 0.0, truncation=160)
        times, states = evolve_trajectory(psi0, sched, T, T / 8192, params,
                                          n_samples=16)
        mi = solve_fg(sched, 1.0, 0.3, 0.0, t_final=T, dt=T / 8192)
        z = complex(cfg.xi0)
        for t, psi in zip(times, states):
            op = assemble_A(mi, float(t), params, 160)
            assert np.linalg.norm(op @ psi - z * psi) <= 1e-6


class TestBranchCorrectedSpecs:
    def test_phase_exact_against_oracle_across_wraps(self):
        # the displacement argument wraps once per period; the winding-
        # corrected spec keeps the analytic state on the continuous solution
        # (inner product +1, not merely |inner product| = 1)
        from parabose.states import cs_amplitudes, cs_spec_from_params
        eps = 2.5
        params = AlgebraParams(epsilon=eps)
        sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0)
        traj = solve_zeta_xi(sched, 0.25, 0.6, t_final=T, dt=T / 8192,
                             epsilon=eps)
        psi0 = cs_amplitudes(cs_spec_from_params(traj.at(0.0), eps),
                             truncation=96)
        times, psis = evolve_trajectory(psi0, sched, T, T / 8192, params,
                                        n_samples=8)
        assert any(traj.at(float(t)).xi_winding != 0 for t in times)
        for t, psi in zip(times, psis):
            ana = cs_amplitudes(cs_spec_from_params(traj.at(float(t)), eps),
                                truncation=96)
            assert abs(complex(np.vdot(ana.amplitudes, psi)) - 1.0) <= 1e-9

    def test_overlap_invariant_under_shared_evolution(self):
        from parabose.states import cs_overlap, cs_spec_from_params
        eps = 2.5
        sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0)
        t1 = solve_zeta_xi(sched, 0.25, 0.6, t_final=T, epsilon=eps)
        t2 = solve_zeta_xi(sched, 0.1 + 0.2j, -0.4 + 0.9j, t_final=T,
                           epsilon=eps)
        vals = []
        for idx in (0, 1024, 2048, 3072, 4096):
            s1 = cs_spec_from_params(t1.at(float(t1.times[idx])), eps)
            s2 = cs_spec_from_params(t2.at(float(t2.times[idx])), eps)
            vals.append(cs_overlap(s1, s2))
        assert max(abs(v - vals[0]) for v in vals) <= 1e-9

    def test_svs_phase_exact_and_overlap_invariant(self):
        # the squeezed-vacuum phase (level-weighted integral minus the
        # energy-offset integral) keeps the analytic state on the continuous
        # solution, and co-evolving overlaps are frozen
        from parabose.states import svs_amplitudes, svs_overlap, \
            svs_spec_from_params
        eps = 2.5
        params = AlgebraParams(epsilon=eps)
        sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0, delta0=0.3)
        t1 = solve_zeta_xi(sched, 0.25, 0.0, t_final=T, dt=T / 8192,
                           epsilon=eps)
        psi0 = svs_amplitudes(svs_spec_from_params(t1.at(0.0), eps),
                              truncation=96)
        times, psis = evolve_trajectory(psi0, sched, T, T / 8192, params,
                                        n_samples=8)
        for t, psi in zip(times, psis):
            ana = svs_amplitudes(svs_spec_from_params(t1.at(float(t)), eps),
                                 truncation=96)
            assert abs(complex(np.vdot(ana.amplitudes, psi)) - 1.0) <= 1e-9
        t2 = solve_zeta_xi(sched, 0.45 * np.exp(0.9j), 0.0, t_final=T,
                           dt=T / 8192, epsilon=eps)
        vals = []
        for idx in (0, 2048, 4096, 8192):
            s1 = svs_spec_from_params(t1.at(float(t1.times[idx])), eps)
            s2 = svs_spec_from_params(t2.at(float(t2.times[idx])), eps)
            vals.append(svs_overlap(s1, s2))
        assert max(abs(v - vals[0]) for v in vals) <= 1e-10


def test_tabulated_schedule_tracks_its_smooth_source():
    # a finely sampled table reproduces the smooth schedule's trajectory to
    # the table's interpolation order
    smooth = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0)
    ts = np.linspace(0.0, T, 2049)
    tab = tabulated_schedule(
        ts, np.array([smooth.alpha(t) for t in ts]),
        np.array([smooth.beta(t) for t in ts]),
        np.array([smooth.delta(t) for t in ts]))
    a = solve_zeta_xi(smooth, 0.25, 0.6, t_final=T)
    b = solve_zeta_xi(tab, 0.25, 0.6, t_final=T)
    assert np.max(np.abs(a.zeta - b.zeta)) < 1e-6


def test_run_past_tabulated_domain_fails():
    ts = np.linspace(0.0, 1.0, 5)
    tab = tabulated_schedule(ts, np.zeros(5), np.ones(5), np.zeros(5))
    with pytest.raises(DomainError, match="outside"):
        solve_zeta_xi(tab, 0.25, 0.6, t_final=1.5, dt=0.01)
    with pytest.raises(DomainError, match="outside"):
        solve_fg(tab, 1.0, 0.3, 0.0, t_final=1.5, dt=0.01)


def test_mu_conservation_random_schedules(rng):
    worst = 0.0
    for _ in range(20):
        if rng.uniform() < 0.5:
            beta = rng.uniform(0.6, 1.4)
            alpha = rng.uniform(0, 0.6 * beta) * np.exp(2j * np.pi * rng.uniform())
            sched = constant_schedule(alpha, beta, rng.uniform(-0.5, 0.5))
        else:
            sched = sinusoidal_schedule(
                alpha_amp=rng.uniform(0, 0.4) * np.exp(2j * np.pi * rng.uniform()),
                beta0=rng.uniform(0.8, 1.3), omega=rng.uniform(0.5, 2.0))
        mi = solve_fg(sched, 1.0 + rng.uniform(-0.2, 0.4),
                      rng.uniform(0, 0.6) * np.exp(2j * np.pi * rng.uniform()),
                      0.0, t_final=T)
        worst = max(worst, mi.mu_drift)
    assert worst <= 1e-9
