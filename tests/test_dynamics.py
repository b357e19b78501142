"""Integrals of motion: coefficient ODEs, conserved quantities, operator assembly."""

import math
import pathlib
import runpy

import numpy as np
import pytest

from parabose import dynamics
from parabose.dynamics import _grid_index, _output_grid, apply_A, solve_fg, \
    solve_zeta_xi
from parabose.errors import ConfigError, DomainError, IntegrationError
from parabose.fock import AlgebraParams, FockVector, build_ladder, \
    evolve_trajectory
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
        # parametric resonance (omega = 2 beta) grows |f| and |g| to ~1e6 in
        # ten periods, so the runs' relative errors differ by ~7e-6 in absolute
        with pytest.raises(IntegrationError, match="disagrees by"):
            solve_fg(sinusoidal_schedule(alpha_amp=0.45, beta0=1.0, omega=2.0),
                     1.0, 0.3, 0.0, t_final=10 * T, dt=T / 64)


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
        rel = np.abs(mi.f - traj.f_reconstructed()) / np.abs(mi.f)
        assert np.max(rel) < 1e-7

    def test_step_halving_guard(self):
        # under the resonant drive |zeta| stays below the blow-up guard for
        # four periods; a displacement of 1e5 turns the runs' relative
        # difference into an absolute one above the certification bound
        with pytest.raises(IntegrationError, match="disagrees by"):
            solve_zeta_xi(sinusoidal_schedule(alpha_amp=0.45, beta0=1.0,
                                              omega=2.0),
                          0.3, 1e5, t_final=4 * T, dt=T / 64)

    def test_squeeze_blowup_guard(self):
        # resonant drive at twice the trap frequency squeezes without bound
        sched = sinusoidal_schedule(alpha_amp=0.45, beta0=1.0, omega=2.0)
        with pytest.raises(IntegrationError, match="squeeze blow-up"):
            solve_zeta_xi(sched, 0.97, 0.0, t_final=40 * T, dt=T / 256)


def dense_A(mi, t, params, n):
    """f(t) a + g(t) a' + phi0 from the dense ``build_ladder`` matrices."""
    a, ad, _ = build_ladder(params, n)
    f, g = mi.at(t)
    return f * a + g * ad + mi.phi0 * np.eye(n)


class TestAssembleA:
    """A(t) = f a + g a' + phi0 applied by ``apply_A`` against its dense
    assembly from the ``build_ladder`` matrices."""

    def test_identity_bogoliubov(self, rng):
        params = AlgebraParams(epsilon=1.5)
        mi = solve_fg(constant_schedule(), 1.0, 0.0, 0.0, t_final=1.0)
        a, _, _ = build_ladder(params, 16)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        # at t = 0 with f = 1, g = 0 the map is the bare lowering operator
        assert np.max(np.abs(apply_A(mi, 0.0, params, psi) - a @ psi)) == 0.0

    def test_apply_matches_matrix(self, rng):
        params = AlgebraParams(epsilon=2.5)
        mi = solve_fg(sinusoidal_schedule(alpha_amp=0.2, beta0=1.0),
                      1.2, 0.5j, 0.7 - 0.2j, t_final=T)
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        for idx in (0, 1024, 4096):
            t = float(mi.times[idx])
            assert np.max(np.abs(apply_A(mi, t, params, psi)
                                 - dense_A(mi, t, params, 32) @ psi)) <= 1e-13

    def test_commutator_on_vacuum(self):
        params = AlgebraParams.from_ell(1)
        mi = solve_fg(sinusoidal_schedule(alpha_amp=0.2, beta0=1.0),
                      1.2, 0.5j, 0.0, t_final=T)
        for idx in (0, 640, 2048, 4096):  # on-grid times (no interpolation)
            t = float(mi.times[idx])
            # A(t) as a matrix, one apply_A per basis vector
            op = np.column_stack([apply_A(mi, t, params, e)
                                  for e in np.eye(48, dtype=complex)])
            assert np.max(np.abs(op - dense_A(mi, t, params, 48))) <= 1e-13
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
            assert np.linalg.norm(apply_A(mi, float(t), params, psi)
                                  - z * psi) <= 1e-6


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
    alpha, beta, delta = zip(*(smooth.coefficients(t) for t in ts.tolist()))
    tab = tabulated_schedule(ts, np.array(alpha), np.array(beta), np.array(delta))
    a = solve_zeta_xi(smooth, 0.25, 0.6, t_final=T)
    b = solve_zeta_xi(tab, 0.25, 0.6, t_final=T)
    assert np.max(np.abs(a.zeta - b.zeta)) < 1e-6


def test_negative_horizon_rejected():
    # the output grids must increase: trajectory lookups bisect them
    sched = constant_schedule(0.0, 1.0, 0.0)
    with pytest.raises(ConfigError, match="positive"):
        solve_zeta_xi(sched, 0.3, 0.5, t_final=-1.0)
    with pytest.raises(ConfigError, match="positive"):
        solve_fg(sched, 1.0, 0.3, 0.0, t_final=-1.0)
    with pytest.raises(ConfigError, match="positive"):
        evolve_trajectory(FockVector(np.eye(16, dtype=complex)[0]), sched,
                          -1.0, 0.01, AlgebraParams(epsilon=0.5))


@pytest.mark.parametrize("solve", [
    lambda: solve_fg(constant_schedule(), 1, 0.1, t_final=math.inf),
    lambda: solve_zeta_xi(constant_schedule(), 0.1, 0.2, t_final=math.nan),
    lambda: solve_fg(constant_schedule(), 1, 0.1, dt=math.nan),
])
def test_non_finite_horizon_rejected_at_once(solve):
    # an inf or NaN horizon built a grid the solver never finished
    with pytest.raises(ConfigError):
        solve()


def test_output_grid_counts_round_off_quotients_exactly():
    # (2 pi / 1.3) / ((2 pi / 1.3) / 1000) is 1000 plus round-off
    t_final = 2.0 * math.pi / 1.3
    assert len(_output_grid(t_final, t_final / 1000)) == 1001
    # a genuine remainder still rounds the interval count up
    assert len(_output_grid(1.0, 0.3)) == 5


def test_trajectories_read_only_on_their_grid():
    sched = constant_schedule(0.0, 1.0, 0.0)
    traj = solve_zeta_xi(sched, 0.3, 0.5, t_final=1.0, dt=0.25)
    mi = solve_fg(sched, 1.0, 0.3, 0.0, t_final=1.0, dt=0.25)
    assert traj.at(0.5).zeta == traj.zeta[2]
    assert mi.at(0.5) == (mi.f[2], mi.g[2])
    for read in (traj.at, mi.at):
        with pytest.raises(DomainError, match="t=0.6 is not on"):
            read(0.6)
        with pytest.raises(DomainError, match="t=1.5 is not on"):
            read(1.5)


def test_grid_lookup_tolerates_round_off_at_long_horizons():
    # 100 evolve samples on the 4,100-interval parameter grid miss their
    # grid points by 3.6e-12 at t_final ~ 2.7e4, more than 1e-12 absolute
    t_final = 1e4 * math.e
    grid = _output_grid(t_final, t_final / 4100)
    assert ([_grid_index(grid, t) for t in np.linspace(0.0, t_final, 101)]
            == list(range(0, 4101, 41)))


def test_nan_states_fail_the_guards_and_the_drift(monkeypatch):
    # NaN < bound and NaN >= bound are both False: the |f| = |g| crossing
    # and squeeze blow-up guards and the mu drift gate used to pass NaN
    def guarded(deriv, y0, schedule, times, guard):
        return guard(times, np.full((len(times), len(y0)), math.nan + 0j))

    def unguarded(deriv, y0, schedule, times, guard):
        return np.full((len(times), len(y0)), math.nan + 0j)

    monkeypatch.setattr(dynamics, "integrate_verified", guarded)
    with pytest.raises(IntegrationError, match="crossing at t=0.0"):
        solve_fg(constant_schedule(), 1.0, 0.1)
    with pytest.raises(IntegrationError, match="blow-up.* at t=0.0"):
        solve_zeta_xi(constant_schedule(), 0.1, 0.5)
    monkeypatch.setattr(dynamics, "integrate_verified", unguarded)
    with pytest.raises(IntegrationError, match="mu drift nan"):
        solve_fg(constant_schedule(), 1.0, 0.1)


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


def test_drive_frequency_sweep_reports_saturation():
    # the script's resonant run squeezes into the |zeta| -> 1 guard and is
    # reported as saturated; the detuned runs finish with mu conserved
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
        / "drive_frequency_sweep.py"
    sweep = runpy.run_path(str(script), run_name="drive_frequency_sweep")["sweep"]
    rows = list(sweep(amplitude=0.45, periods=6, points=3))
    assert [status for *_, status in rows] == ["ok", "saturated", "ok"]
    for w, max_zeta, drift, status in rows:
        if status == "ok":
            assert 0.0 < max_zeta < 1.0 and drift <= 1e-9
