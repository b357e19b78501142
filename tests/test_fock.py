"""Truncated basis: algebra relations, Hamiltonian assembly, evolution oracle."""

import inspect
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from parabose import dynamics, fock, states
from parabose.dynamics import solve_fg, solve_zeta_xi
from parabose.errors import ConfigError, DomainError, IntegrationError, \
    TruncationError
from parabose.fock import AlgebraParams, FockVector, build_hamiltonian, \
    build_ladder, evolve_trajectory, integrate_verified, ladder_products, \
    _schrodinger_deriv
from parabose.oscillator import OscillatorConfig, cs_state
from parabose.schedules import CoefficientSchedule, constant_schedule, \
    sinusoidal_schedule, tabulated_schedule

N = 96


def _vacuum(truncation):
    return FockVector(np.eye(truncation, dtype=complex)[0])


def evolve_final(psi0, schedule, t_final, dt, params):
    """Final state of a one-sample trajectory (the step count dt gives)."""
    _, states = evolve_trajectory(psi0, schedule, t_final, dt, params,
                                  n_samples=1)
    return FockVector(states[-1])


class TestAlgebraParams:
    def test_nu_relation(self):
        assert AlgebraParams(epsilon=2.5).nu == 4.0
        assert AlgebraParams(epsilon=0.5).nu == 0.0

    def test_ell_consistency(self):
        p = AlgebraParams.from_ell(3)
        assert p.epsilon == 6.5 and p.ell == 3
        for bad in (1.7, -1, True, math.nan):
            with pytest.raises(DomainError):
                AlgebraParams.from_ell(bad)
        assert AlgebraParams(epsilon=2.0).ell is None
        assert AlgebraParams(epsilon=4.5).ell == 2
        assert AlgebraParams(epsilon=2.5 + 1e-13).ell == 1
        with pytest.raises(DomainError):
            AlgebraParams(epsilon=0.3)
        with pytest.raises(DomainError):
            AlgebraParams(epsilon=0.5, length_scale=-1.0)
        for bad in ({"epsilon": math.nan},
                    {"epsilon": 0.5, "length_scale": math.nan},
                    {"epsilon": 0.5, "hbar": math.nan}):
            with pytest.raises(DomainError):
                AlgebraParams(**bad)

    @pytest.mark.parametrize("name", ["length_scale", "hbar"])
    def test_infinite_scale_rejected(self, name):
        # an infinite l or hbar would give inf/NaN moments downstream
        for bad in (math.inf, -math.inf):
            with pytest.raises(DomainError, match=name):
                AlgebraParams(epsilon=2.5, **{name: bad})


class TestLadder:
    def test_canonical_first_entry(self):
        a, _, _ = build_ladder(AlgebraParams(epsilon=0.5), 8)
        assert a[0, 1] == 1.0  # sqrt(2 eps) = 1 for the plain oscillator

    def test_deformed_first_entry(self):
        a, _, _ = build_ladder(AlgebraParams.from_ell(1), 8)
        assert a[0, 1] == pytest.approx(2.2360679774997896, rel=1e-15)  # sqrt 5

    @pytest.mark.parametrize("eps", [0.5, 1.5, 2.5, 6.5])
    def test_commutator_on_vacuum(self, eps):
        params = AlgebraParams(epsilon=eps)
        a, ad, _ = build_ladder(params, N)
        comm = a @ ad - ad @ a
        assert comm[0, 0].real == pytest.approx(1.0 + params.nu, rel=1e-14)

    @pytest.mark.parametrize("eps", [0.5, 1.7, 2.5])
    def test_wha_relations_on_leading_block(self, eps):
        params = AlgebraParams(epsilon=eps)
        a, ad, r = build_ladder(params, N)
        k = N - 2
        comm = (a @ ad - ad @ a)[:k, :k]
        target = (np.eye(N) + params.nu * r)[:k, :k]
        assert np.max(np.abs(comm - target)) < 1e-12
        assert np.max(np.abs((r @ a + a @ r)[:k, :k])) < 1e-12
        assert np.max(np.abs((r @ ad + ad @ r)[:k, :k])) < 1e-12

    @pytest.mark.parametrize("eps", [0.5, 2.5])
    def test_trilinear_relations(self, eps):
        a, ad, _ = build_ladder(AlgebraParams(epsilon=eps), N)
        sym = a @ ad + ad @ a
        k = N - 4
        assert np.max(np.abs((sym @ a - a @ sym + 2 * a)[:k, :k])) < 1e-12
        assert np.max(np.abs((sym @ ad - ad @ sym - 2 * ad)[:k, :k])) < 1e-12

    def test_number_operator_integers(self):
        eps = 3.2
        a, ad, _ = build_ladder(AlgebraParams(epsilon=eps), N)
        num = np.diag(0.5 * (a @ ad + ad @ a) - eps * np.eye(N)).real
        assert np.max(np.abs(num[: N - 2] - np.arange(N - 2))) < 1e-12

    def test_truncation_floor(self):
        with pytest.raises(ConfigError):
            build_ladder(AlgebraParams(epsilon=0.5), 1)

    @pytest.mark.parametrize("eps", [0.5, 1.7, 6.5])
    @pytest.mark.parametrize("n", [2, 7, N])
    def test_banded_products_match_dense(self, eps, n):
        # a psi and a' psi as shifts by the ladder diagonal, last entries
        # included, against the dense matrices
        rng = np.random.default_rng(n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        params = AlgebraParams(epsilon=eps)
        a, ad, _ = build_ladder(params, n)
        a_psi, ad_psi = ladder_products(params, psi)
        scale = np.max(np.abs(a @ psi))
        assert np.max(np.abs(a_psi - a @ psi)) <= 1e-15 * scale
        assert np.max(np.abs(ad_psi - ad @ psi)) <= 1e-15 * scale


class TestHamiltonian:
    def test_oscillator_spectrum(self):
        # alpha = 0: diagonal hbar beta (n + 2l + 1/2)
        params = AlgebraParams.from_ell(1)
        h = build_hamiltonian(params, 0.0, 0.7, 0.0, 32)
        expect = 0.7 * (np.arange(30) + 2.5)
        assert np.max(np.abs(np.diag(h).real[:30] - expect)) < 1e-12

    def test_zero_point(self):
        h = build_hamiltonian(AlgebraParams(epsilon=0.5), 0.0, 1.0, 0.0, 16)
        assert h[0, 0].real == pytest.approx(0.5)

    def test_hermiticity(self):
        h = build_hamiltonian(AlgebraParams(epsilon=1.5), 0.3, 1.0, 0.5, 64)
        assert np.max(np.abs((h - h.conj().T)[:62, :62])) < 1e-12

    def test_hbar_scales_linearly(self):
        h1 = build_hamiltonian(AlgebraParams(epsilon=1.5), 0.2j, 1.0, 0.3, 32)
        h2 = build_hamiltonian(AlgebraParams(epsilon=1.5, hbar=2.0),
                               0.2j, 1.0, 0.3, 32)
        assert np.max(np.abs(h2 - 2.0 * h1)) == 0.0


class TestFockVector:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FockVector(np.array([1.0]))
        v = _vacuum(8)
        assert v.is_normalized() and v.truncation == 8


class TestEvolution:
    def test_stationary_vacuum(self):
        # alpha = 0 leaves the vacuum invariant up to a phase
        params = AlgebraParams.from_ell(1)
        psi = evolve_final(_vacuum(24), constant_schedule(0, 1, 0),
                           3.0, 3.0 / 1024, params)
        assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-10

    def test_diagonal_phases(self):
        # alpha = 0: amplitudes rotate as exp(-i beta (n + eps) t), moduli fixed
        params = AlgebraParams.from_ell(0)
        amps = np.zeros(24, dtype=complex)
        amps[[0, 2, 5]] = [0.6, 0.64, 0.48]
        psi0 = FockVector(amps)
        t = 1.7
        psi = evolve_final(psi0, constant_schedule(0, 1.0, 0.0),
                           t, t / 4096, params)
        phases = np.exp(-1j * (np.arange(24) + params.epsilon) * t)
        assert np.max(np.abs(psi.amplitudes - phases * amps)) < 1e-10
        assert np.max(np.abs(np.abs(psi.amplitudes) - np.abs(amps))) < 1e-10

    def test_coherent_state_period_fidelity(self):
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.3, xi0=1.0)
        t = cfg.period
        psi0 = cs_state(cfg, 0.0, truncation=128)
        psi = evolve_final(psi0, constant_schedule(0, 1, 0), t, t / 8192,
                           cfg.algebra_params())
        ana = cs_state(cfg, t, truncation=128)
        assert abs(ana.overlap(psi)) >= 1.0 - 1e-7

    def test_initial_state_gates(self):
        params = AlgebraParams(epsilon=0.5)
        bad = FockVector(np.full(16, 0.25 + 0j))  # normalized but tail-heavy
        with pytest.raises(TruncationError):
            evolve_final(bad, constant_schedule(), 1.0, 0.01, params)
        unnorm = FockVector(np.eye(16, dtype=complex)[0] * 2.0)
        with pytest.raises(DomainError):
            evolve_final(unnorm, constant_schedule(), 1.0, 0.01, params)

    def test_nan_horizon_rejected_at_once(self):
        # a NaN horizon used to start an integration that never returned
        with pytest.raises(ConfigError, match="finite"):
            evolve_trajectory(_vacuum(16), constant_schedule(), math.nan,
                              0.1, AlgebraParams(epsilon=0.5))

    def test_step_halving_guard(self, monkeypatch):
        # a grossly loose solver tolerance must be rejected: its norm drift
        # (~1e-4) trips first
        monkeypatch.setattr(fock, "SOLVER_RTOL", 1e-4)
        monkeypatch.setattr(fock, "SOLVER_ATOL", 1e-4)
        params = AlgebraParams.from_ell(0)
        amps = np.zeros(32, dtype=complex)
        amps[[0, 4]] = [0.8, 0.6]
        with pytest.raises(IntegrationError, match="norm drift"):
            evolve_final(FockVector(amps),
                         sinusoidal_schedule(alpha_amp=0.3, beta0=1.0),
                         6.0, 1.5, params)

    def test_halved_step_disagreement_raises(self, monkeypatch):
        # with alpha != 0 the two runs differ in their last digits, so a zero
        # bound reaches the certification error through the oracle (at
        # alpha = 0 the frame derivative vanishes and the runs agree exactly)
        monkeypatch.setattr(fock, "STEP_HALVING_TOL", 0.0)
        amps = np.zeros(32, dtype=complex)
        amps[4] = 1.0
        with pytest.raises(IntegrationError, match="disagrees by"):
            evolve_final(FockVector(amps), constant_schedule(0.3, 1, 0), 0.5,
                         0.01, AlgebraParams(epsilon=0.5))

    def test_derivative_call_budget(self, monkeypatch):
        # a finite but huge horizon used to step DOP853 without bound
        monkeypatch.setattr(fock, "DERIV_CALL_BUDGET", 5000)
        with pytest.raises(IntegrationError, match="derivative-call budget"):
            solve_fg(constant_schedule(), 1.0, 0.1, t_final=1e9)
        with pytest.raises(IntegrationError, match="derivative-call budget"):
            evolve_final(_vacuum(16), constant_schedule(0.3, 1.0, 0.0),
                         1e9, 1e9, AlgebraParams(epsilon=0.5))

    def test_positivity_gated_between_output_samples(self):
        # |alpha| exceeds beta only around t = 0.5, strictly between the two
        # output samples t = 0 and t = 1, where the schedule is positive
        dip = CoefficientSchedule(
            lambda t: (complex(1.5 * math.exp(-((t - 0.5) / 0.1) ** 2)), 1.0, 0.0))
        for t in (0.0, 1.0):
            dip.check_positive_definite(t)
        with pytest.raises(DomainError, match="violates beta"):
            evolve_final(_vacuum(24), dip, 1.0, 1.0,
                         AlgebraParams(epsilon=0.5))
        with pytest.raises(DomainError, match="violates beta"):
            solve_zeta_xi(dip, 0.0, 0.5, t_final=1.0, dt=1.0)

    def test_leak_into_truncation_boundary_raises(self):
        # squeezing the vacuum at N = 16 carries ~0.13 of the probability
        # into the last TAIL_WIDTH levels by t = 3
        with pytest.raises(TruncationError, match="leaked"):
            evolve_final(_vacuum(16), constant_schedule(0.9, 1.0, 0.0),
                         3.0, 3.0, AlgebraParams(epsilon=0.5))

    def test_solver_failure_raises(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1: DOP853 cannot step past it
        with pytest.raises(IntegrationError, match="DOP853 at rtol .* failed"):
            integrate_verified(lambda alpha, beta, delta, y: y * y, [1.0],
                               constant_schedule(), np.array([0.0, 2.0]),
                               lambda times, states: states)

    def test_long_horizon_certified(self):
        # ten periods of the time-dependent schedule: the certified oracle
        # still lands on the analytic coherent state, phase included
        eps, period = 2.5, 2.0 * math.pi
        sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0, delta0=0.3)
        traj = solve_zeta_xi(sched, 0.25, 0.6, t_final=10 * period, dt=period,
                             epsilon=eps)
        psi0 = states.cs_amplitudes(
            states.cs_spec_from_params(traj.at(0.0), eps), truncation=N)
        times, psis = evolve_trajectory(psi0, sched, 10 * period, period,
                                        AlgebraParams(epsilon=eps),
                                        n_samples=10)
        ana = states.cs_amplitudes(
            states.cs_spec_from_params(traj.at(float(times[-1])), eps),
            truncation=N)
        assert abs(complex(np.vdot(ana.amplitudes, psis[-1])) - 1.0) <= 1e-7

    def test_banded_derivative_matches_hamiltonian(self):
        # frame identity: psi = exp(-i theta) phi with theta = B d + Delta
        # gives psi' = -i (beta d + delta) psi + exp(-i theta) phi' = -i H psi
        params = AlgebraParams.from_ell(1)
        sched = sinusoidal_schedule(alpha_amp=0.2 + 0.1j, beta0=1.1,
                                    beta_amp=0.2, delta0=0.3)
        rng = np.random.default_rng(7)
        n = 64
        d = fock._number_diagonal(params, n)
        deriv = _schrodinger_deriv(params, n, 1.1)
        for t in (0.0, 0.31, 2.9):
            alpha, beta, delta = sched.coefficients(t)
            phi = rng.normal(size=n) + 1j * rng.normal(size=n)
            phi /= np.linalg.norm(phi)
            # B = C + b, the reference part and the remainder
            c, b, big_delta = rng.uniform(-20.0, 20.0, size=3)
            rot = np.exp(-1j * ((c + b) * d + big_delta))
            psi = rot * phi
            dy = deriv(alpha, beta, delta, np.append(phi, [c, b, big_delta]))
            assert (dy[n], dy[n + 1], dy[n + 2]) == (1.1, beta - 1.1, delta)
            dpsi = -1j * (beta * d + delta) * psi + rot * dy[:n]
            h_psi = build_hamiltonian(params, alpha, beta, delta, n) @ psi
            assert np.max(np.abs(dpsi + 1j * h_psi)) <= 1e-13 * np.max(np.abs(h_psi))

    @pytest.mark.parametrize("n", [96, 256])
    @pytest.mark.parametrize("eps", [0.5, 1.5, 2.5, 4.5, 6.3])
    def test_band_turn_is_one_scalar_below_the_edge(self, n, eps):
        # below the edge d_{n+2} - d_n = 2, so the bands turn by exp(-2iB)
        # and only the last entry by its own gap; the reference is the
        # N-vector formula, turned entry by entry
        params = AlgebraParams(epsilon=eps)
        s = fock._ladder_diagonal(params, n)
        band = 0.5 * s[:-1] * s[1:]
        d = fock._number_diagonal(params, n)
        gap = d[2:] - d[:-2]
        assert np.max(np.abs(gap[:-1] - 2.0)) <= 1e-13
        # d_{N-1} = s_{N-1}^2 / 2 = (N - 2) / 2 + eps at even N
        assert gap[-1] == pytest.approx(2.0 - n / 2.0, abs=1e-12)
        exact_gap = np.append(np.full(n - 3, 2.0), gap[-1])
        deriv = _schrodinger_deriv(params, n, 1.1)
        rng = np.random.default_rng(11)
        alpha = 0.3 - 0.2j
        for big_b in (0.3, 2.1, 7.9, 40.0):
            phi = rng.normal(size=n) + 1j * rng.normal(size=n)
            c = rng.uniform(0.0, big_b)
            dy = deriv(alpha, 1.3, 0.2, np.append(phi, [c, big_b - c, 0.4]))

            def reference(g):
                turned = band * np.exp(-1j * big_b * g)
                out = np.zeros(n, dtype=complex)
                out[:n - 2] = -1j * alpha.conjugate() * (turned * phi[2:])
                out[2:] += -1j * alpha * (turned.conjugate() * phi[:-2])
                return out

            exact = reference(exact_gap)
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(dy[:n] - exact)) <= 1e-14 * scale
            # the entry-by-entry gaps carry round-off that B multiplies
            bound = 1e-14 + 2.0 * big_b * np.max(np.abs(gap[:-1] - 2.0))
            assert np.max(np.abs(dy[:n] - reference(gap))) <= bound * scale

    @pytest.mark.parametrize("which", ["sinusoidal", "tabulated"])
    def test_matches_lab_frame_reference(self, which):
        # both schedules vary beta, so the frame's B component is not a
        # multiple of t, and both carry a nonzero delta
        n, t_final = 48, 3.0
        params = AlgebraParams(epsilon=1.5)
        if which == "sinusoidal":
            sched = sinusoidal_schedule(alpha_amp=0.25 + 0.1j, beta0=1.0,
                                        beta_amp=0.3, delta0=0.4, omega=1.7)
        else:
            ts = np.linspace(0.0, t_final, 7)
            sched = tabulated_schedule(ts, 0.2 * np.cos(ts) + 0.1j * ts,
                                       1.2 + 0.3 * np.sin(2 * ts), -0.5 + 0.2 * ts)
        psi0 = states.cs_amplitudes(states.CsSpec(zeta=0.2j, xi=0.7 - 0.3j,
                                                  epsilon=1.5), truncation=n)
        times, psis = evolve_trajectory(psi0, sched, t_final, t_final, params,
                                        n_samples=6)

        def rhs(t, psi):
            return -1j * (build_hamiltonian(params, *sched.coefficients(t), n) @ psi)

        # the reference integrates -i H psi in the lab frame, restarting at
        # each knot where the coefficients' slopes jump
        edges = [0.0, *(k for k in sched.knots if 0.0 < k < t_final), t_final]
        ref = np.empty_like(psis)
        ref[0] = psi = psi0.amplitudes
        for start, end in zip(edges[:-1], edges[1:]):
            sol = solve_ivp(rhs, (start, end), psi, method="DOP853",
                            dense_output=True, rtol=1e-13, atol=1e-15)
            inside = (times > start) & (times <= end)
            ref[inside] = sol.sol(times[inside]).T
            psi = sol.y[:, -1]
        assert np.max(np.abs(psis - ref)) <= 1e-9

    def test_phase_only_run_certified_on_lab_frame(self):
        # alpha = 0 with a varying beta: the exact state only turns,
        # psi_n(t) = exp(-i (B(t) d_n + delta t)) psi_n(0), by phases up to
        # B d_n ~ 300 * 256 here.  The frame's B error reaches psi_n times d_n,
        # so the oracle must be accurate on lab-frame psi, not just on B.
        n, t_final = 256, 300.0
        params = AlgebraParams(epsilon=1.5)
        beta0, beta_amp, omega, delta = 1.0, 0.6, 1.3, 0.4
        sched = sinusoidal_schedule(beta0=beta0, beta_amp=beta_amp,
                                    delta0=delta, omega=omega)
        psi0 = states.cs_amplitudes(states.CsSpec(zeta=0.0, xi=10.0, epsilon=1.5),
                                    truncation=n)
        times, psis = evolve_trajectory(psi0, sched, t_final, t_final, params,
                                        n_samples=8)
        big_b = beta0 * times + beta_amp * (1.0 - np.cos(omega * times)) / omega
        exact = psi0.amplitudes * np.exp(
            -1j * (np.outer(big_b, fock._number_diagonal(params, n))
                   + delta * times[:, None]))
        assert np.max(np.abs(psis - exact)) <= 1e-10

    def test_rerun_certifies_the_guard_output(self):
        # integrate_verified compares the two runs on what the guard returns:
        # scaling y' = i y by 1e12 there exposes the runs' last-digit gap
        times = np.linspace(0.0, 3.0, 4)

        def run(scale):
            return integrate_verified(lambda alpha, beta, delta, y: 1j * y, [1.0],
                                      constant_schedule(), times,
                                      lambda times, y: scale * y)

        assert np.max(np.abs(run(1.0)[:, 0] - np.exp(1j * times))) <= 1e-10
        with pytest.raises(IntegrationError, match="disagrees by"):
            run(1e12)

    def test_trajectory_sampling(self):
        params = AlgebraParams.from_ell(0)
        amps = np.zeros(24, dtype=complex)
        amps[[0, 2]] = [0.8, 0.6]
        times, states = evolve_trajectory(FockVector(amps), constant_schedule(),
                                          2.0, 2.0 / 512, params, n_samples=8)
        assert len(times) == 9 and times[0] == 0.0 and times[-1] == 2.0
        assert np.max(np.abs(states[0] - amps)) == 0.0

    def test_unitarity_over_run(self):
        params = AlgebraParams.from_ell(1)
        cfg = OscillatorConfig(omega0=1.0, ell=1, zeta0=0.4, xi0=0.8j)
        psi0 = cs_state(cfg, 0.0, truncation=96)
        psi = evolve_final(psi0, sinusoidal_schedule(alpha_amp=0.2, beta0=1.0),
                           2 * math.pi, 2 * math.pi / 8192, params)
        assert abs(psi.norm_sq() - 1.0) <= 1e-8


def solve_ivp_runs(deriv, y0, schedule, times):
    """Both runs of ``integrate_verified`` as ``solve_ivp`` with ``t_eval``
    gives them: one call per smooth piece between knots, carrying the
    interpolated state at the piece's end into the next."""
    def rhs(t, y):
        return deriv(*schedule.coefficients(t), y)

    cuts = [k for k in schedule.knots if times[0] < k < times[-1]]
    edges = [times[0], *cuts, times[-1]]
    pieces = np.split(times, np.searchsorted(times, cuts))
    runs = []
    for tighten in (1, 100):
        y, states = np.asarray(y0, dtype=complex), []
        for start, end, piece in zip(edges[:-1], edges[1:], pieces):
            t_eval = piece if piece.size and piece[-1] == end else np.append(piece, end)
            sol = solve_ivp(rhs, (start, end), y, method="DOP853", t_eval=t_eval,
                            rtol=fock.SOLVER_RTOL / tighten,
                            atol=fock.SOLVER_ATOL / tighten)
            assert sol.success
            y = sol.y[:, -1]
            states.append(sol.y[:, :piece.size])
        runs.append(np.concatenate(states, axis=1).T)
    return runs


@pytest.mark.parametrize("case", ["fg", "zeta_xi", "oracle", "knot", "two_points"])
def test_outputs_equal_solve_ivp(case, monkeypatch):
    # integrate_verified steps DOP853 itself and evaluates every output time
    # from the kept step interpolants at once; both runs must be solve_ivp's
    # to the last bit, on the arguments each caller passes
    calls = []

    def capture(*args):
        calls.append(args)
        return integrate_verified(*args)

    monkeypatch.setattr(dynamics, "integrate_verified", capture)
    monkeypatch.setattr(fock, "integrate_verified", capture)
    knots = np.linspace(0.0, 3.0, 7)
    tabulated = tabulated_schedule(knots, 0.3 * np.cos(knots), 1.0 + 0.2 * knots,
                                   0.1 * knots)
    if case == "fg":
        sched = sinusoidal_schedule(alpha_amp=0.2 + 0.1j, beta0=1.0, beta_amp=0.3)
        solve_fg(sched, 1.0, 0.3, 0.0, t_final=2 * math.pi, dt=2 * math.pi / 4096)
    elif case == "zeta_xi":
        solve_zeta_xi(constant_schedule(0.3, 1.0, 0.2), 0.25, 0.5 - 0.2j,
                      t_final=2 * math.pi)
    elif case == "oracle":
        psi0 = states.cs_amplitudes(states.CsSpec(zeta=0.2j, xi=0.7 - 0.3j,
                                                  epsilon=1.5), truncation=48)
        evolve_trajectory(psi0, sinusoidal_schedule(alpha_amp=0.25, beta0=1.0),
                          3.0, 3.0, AlgebraParams(epsilon=1.5), n_samples=6)
    elif case == "knot":
        solve_zeta_xi(tabulated, 0.25, 0.5, t_final=3.0, dt=0.25)
    else:
        solve_zeta_xi(tabulated, 0.25, 0.5, t_final=3.0, dt=3.0)
    (deriv, y0, sched, times, _), = calls
    assert len(times) == {"fg": 4097, "zeta_xi": 4097, "oracle": 7, "knot": 13,
                          "two_points": 2}[case]
    if case == "knot":
        assert set(knots[1:-1]) <= set(times)
    seen = []
    integrate_verified(deriv, y0, sched, times,
                       lambda times, states: seen.append(states) or states)
    want = solve_ivp_runs(deriv, y0, sched, times)
    assert all(np.array_equal(got, ref) for got, ref in zip(seen, want))
    # the guards reduce along rows, so their layout is kept too
    assert [got.flags.c_contiguous for got in seen] == [True, True]


def test_one_stepping_loop():
    # integrate_verified is the one place that steps an ODE solver: no module
    # calls solve_ivp, and scipy's DOP853 is imported inside it alone
    ivp, imports = [], []
    for path in sorted(pathlib.Path(fock.__file__).parent.glob("*.py")):
        for line in path.read_text().splitlines():
            if "solve_ivp" in line:
                ivp.append((path.name, line.strip()))
            if re.search(r"import\b.*\bDOP853\b|integrate\.DOP853", line):
                imports.append((path.name, line.strip()))
    inside = inspect.getsource(fock.integrate_verified)
    assert ivp == []
    assert len(imports) == 1
    assert [hit for hit in imports
            if hit[0] != "fock.py" or hit[1] not in inside] == []

@pytest.mark.parametrize("module",
                         ["parabose", "parabose.coordrep", "parabose.cli"])
def test_package_import_leaves_scipy_integrate_unloaded(module):
    # integrate_verified imports DOP853 when called, and cmd_verify imports
    # the suite, so commands that never integrate do not pay for either
    src = str(pathlib.Path(fock.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
             "print('scipy.integrate' in sys.modules, "
             "'parabose.verify' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False False"
