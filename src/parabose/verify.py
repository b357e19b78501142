"""Programmatic invariant suite behind the ``verify`` CLI command.

Every row reports a measured residual and the tolerance it is held to, so
the emitted table is a quantitative record rather than a bare pass/fail.
Boolean structure checks (orderings, gates) report residual 0 or 1 against
tolerance 1/2.  Checks that are out of mathematical domain for the requested
configuration (completeness below eps = 1) report status ``excluded``.

To add a row, decorate one function of a seeded generator with
``@check(name, tolerance, note)``.  A row that measures several draws
yields each draw's residual, and ``Check`` folds them with ``_worst``: the
largest, 0.0 if none is larger, and NaN as soon as any draw is NaN.  A row
with one measurement returns its residual (or ``(residual, note)`` when the
note is measured).  The decorator appends the row to ``ALL_CHECKS`` in
definition order, and ``_row`` alone decides the status: pass when
residual <= tolerance, so a NaN residual fails, and so does a NaN in any
draw.  A row whose measurement raises a ``ParaBoseError`` is still a row:
its residual is NaN and its note the error, and the other rows run.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
import time
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import completeness, coordrep, observables, oscillator, states
from .dynamics import apply_A, solve_fg, solve_zeta_xi
from .errors import DomainError, ParaBoseError
from .fock import AlgebraParams, build_hamiltonian, build_ladder, \
    evolve_trajectory, ladder_products
from .schedules import constant_schedule, sinusoidal_schedule
from .states import CsSpec, SvsSpec

__all__ = ["CheckResult", "Check", "check", "run_all",
           "check_configured_level", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    status: str  # pass | fail | excluded
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _row(name, residual, tolerance, note) -> CheckResult:
    """The one status rule: pass when residual <= tolerance (NaN fails)."""
    status = "pass" if residual <= tolerance else "fail"
    return CheckResult(name, float(residual), float(tolerance), status, note)


def _worst(residuals) -> float:
    """max(0.0, r1, r2, ...) over a row's draws, or NaN as soon as one
    residual is NaN (``max`` alone keeps a NaN only when it comes first)."""
    largest = 0.0
    for residual in residuals:
        if residual != residual:
            return math.nan
        largest = max(largest, residual)
    return largest


@dataclass(frozen=True)
class Check:
    """One report row: its name, tolerance and static note, and the
    function of a seeded generator that measures its residual, or yields
    one residual per draw for ``_worst`` to fold."""

    name: str
    tolerance: float
    note: str
    measure: Callable

    def __call__(self, rng) -> CheckResult:
        try:
            out = self.measure(rng)
            if isinstance(out, Iterator):
                out = _worst(out)
        except ParaBoseError as exc:
            out = math.nan, f"{type(exc).__name__}: {exc}"
        residual, note = out if isinstance(out, tuple) else (out, self.note)
        return _row(self.name, residual, self.tolerance, note)


ALL_CHECKS: list[Check] = []


def check(name: str, tolerance: float, note: str = ""):
    """Declare a row and append it to ``ALL_CHECKS``."""
    def register(measure) -> Check:
        ALL_CHECKS.append(Check(name, tolerance, note, measure))
        return ALL_CHECKS[-1]
    return register


# -- algebra ----------------------------------------------------------------

@check("algebra.wha_relations", 1e-12, "N=128, eps in {1/2,3/2,5/2}")
def check_algebra_relations(rng):
    n = 128
    for eps in (0.5, 1.5, 2.5):
        params = AlgebraParams(epsilon=eps)
        a, ad, r = build_ladder(params, n)
        comm = a @ ad - ad @ a - (np.eye(n) + params.nu * r)
        anti_a = r @ a + a @ r
        anti_ad = r @ ad + ad @ r
        k = n - 4
        yield np.max(np.abs(comm[:k, :k]))
        yield np.max(np.abs(anti_a[:k, :k]))
        yield np.max(np.abs(anti_ad[:k, :k]))


@check("algebra.trilinear", 1e-12)
def check_trilinear(rng):
    n = 128
    for eps in (0.5, 1.5, 2.5):
        a, ad, _ = build_ladder(AlgebraParams(epsilon=eps), n)
        sym = a @ ad + ad @ a
        t1 = sym @ a - a @ sym + 2.0 * a
        t2 = sym @ ad - ad @ sym - 2.0 * ad
        k = n - 4
        yield np.max(np.abs(t1[:k, :k]))
        yield np.max(np.abs(t2[:k, :k]))


@check("algebra.number_operator", 1e-12)
def check_number_operator(rng):
    n = 128
    for eps in (0.5, 1.5, 2.5):
        a, ad, _ = build_ladder(AlgebraParams(epsilon=eps), n)
        num = 0.5 * (a @ ad + ad @ a) - eps * np.eye(n)
        k = n - 2
        yield np.max(np.abs(num[:k, :k] - np.diag(np.arange(k, dtype=float))))


@check("algebra.hamiltonian_diagonal", 1e-12,
       "alpha=0 spectrum hbar*beta*(n + 2l + 1/2)")
def check_hamiltonian_diagonal(rng):
    params = AlgebraParams.from_ell(1)
    n = 64
    h = build_hamiltonian(params, 0.0, 2.0, 0.0, n)
    expect = 2.0 * (np.arange(n) + params.epsilon)
    yield float(np.max(np.abs(np.diag(h).real[: n - 2] - expect[: n - 2])))
    yield float(np.max(np.abs(h - np.diag(np.diag(h)))))


# -- dynamics ---------------------------------------------------------------

def _random_schedule(rng):
    if rng.uniform() < 0.5:
        beta = rng.uniform(0.6, 1.4)
        alpha = rng.uniform(0.0, 0.6 * beta) * np.exp(2j * np.pi * rng.uniform())
        return constant_schedule(alpha, beta, rng.uniform(-0.5, 0.5))
    beta = rng.uniform(0.8, 1.3)
    amp = rng.uniform(0.0, 0.4) * np.exp(2j * np.pi * rng.uniform())
    return sinusoidal_schedule(alpha0=0.0, alpha_amp=amp, beta0=beta,
                               omega=rng.uniform(0.5, 2.0),
                               delta0=rng.uniform(-0.5, 0.5))


@check("dynamics.mu_conservation", 1e-9, "20 random schedules")
def check_mu_conservation(rng):
    for _ in range(20):
        sched = _random_schedule(rng)
        f0 = 1.0 + rng.uniform(-0.2, 0.4)
        g0 = rng.uniform(0.0, 0.6) * np.exp(2j * np.pi * rng.uniform())
        mi = solve_fg(sched, f0, g0, 0.0, t_final=2 * np.pi)
        yield mi.mu_drift


@check("dynamics.bogoliubov_commutator", 1e-10)
def check_bogoliubov_commutator(rng):
    sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0)
    mi = solve_fg(sched, 1.0, 0.3, 0.0, t_final=2 * np.pi)
    params = AlgebraParams(epsilon=1.5)
    n = 96
    a, ad, r = build_ladder(params, n)
    for t in np.linspace(0.0, 2 * np.pi, 9):
        f, g = mi.at(float(t))
        a_op = f * a + g * ad + mi.phi0 * np.eye(n)
        comm = a_op @ a_op.conj().T - a_op.conj().T @ a_op
        target = mi.mu * (np.eye(n) + params.nu * r)
        yield np.max(np.abs((comm - target)[:n - 2, :n - 2]))


@check("dynamics.zeta_two_route", 1e-8,
       "ratio g/f vs direct Riccati integration")
def check_zeta_two_route(rng):
    sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0)
    mi = solve_fg(sched, 1.0, 0.25, 0.0, t_final=2 * np.pi)
    traj = solve_zeta_xi(sched, 0.25, 0.5, t_final=2 * np.pi)
    return float(np.max(np.abs(mi.zeta() - traj.zeta)))


@check("dynamics.f_reconstruction", 1e-7,
       "f = f0 exp(-i int(conj(alpha) zeta - beta))")
def check_f_reconstruction(rng):
    sched = sinusoidal_schedule(alpha_amp=0.25, beta0=1.1, omega=1.3)
    mi = solve_fg(sched, 1.0, 0.35, 0.0, t_final=2 * np.pi)
    traj = solve_zeta_xi(sched, 0.35, 0.4, t_final=2 * np.pi)
    return float(np.max(np.abs(mi.f - traj.f_reconstructed())
                        / np.abs(mi.f)))


def _eigen_residual(sched):
    cfg = oscillator.OscillatorConfig(omega0=1.0, ell=1, zeta0=0.3, xi0=1.0)
    params = cfg.algebra_params()
    n = 256
    t_final = 2 * np.pi
    psi0 = oscillator.cs_state(cfg, 0.0, truncation=n)
    times, psis = evolve_trajectory(psi0, sched, t_final, t_final / 8192,
                                    params, n_samples=64)
    mi = solve_fg(sched, 1.0, 0.3, 0.0, t_final=t_final, dt=t_final / 8192)
    z = complex(cfg.xi0)  # z = xi0 with f0 = 1
    for t, psi in zip(times, psis):
        a_psi = apply_A(mi, float(t), params, psi)
        yield float(np.linalg.norm(a_psi - z * psi))


@check("dynamics.integral_of_motion_constant", 1e-6, "N=256, one period")
def check_integral_of_motion_constant(rng):
    return _eigen_residual(constant_schedule(0.0, 1.0, 0.0))


@check("dynamics.integral_of_motion_sinusoidal", 1e-6, "N=256, one period")
def check_integral_of_motion_sinusoidal(rng):
    return _eigen_residual(sinusoidal_schedule(alpha_amp=0.2, beta0=1.0))


# -- states -----------------------------------------------------------------

def _random_state_grid(rng, count):
    for _ in range(count):
        eps = rng.uniform(0.5, 6.5)
        zeta = rng.uniform(0.0, 0.85) * np.exp(2j * np.pi * rng.uniform())
        xi = rng.uniform(0.0, 2.5) * np.exp(2j * np.pi * rng.uniform())
        yield complex(zeta), complex(xi), float(eps)


@check("states.svs_normalization", 1e-9, "100 random points")
def check_svs_normalization(rng):
    for zeta, _, eps in _random_state_grid(rng, 100):
        v = states.svs_amplitudes(SvsSpec(zeta=zeta, epsilon=eps))
        yield abs(v.norm_sq() - 1.0)


@check("states.cs_normalization", 1e-9, "100 random points")
def check_cs_normalization(rng):
    for zeta, xi, eps in _random_state_grid(rng, 100):
        v = states.cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
        yield abs(v.norm_sq() - 1.0)


@check("states.svs_canonical_reduction", 1e-12)
def check_svs_canonical_reduction(rng):
    # eps = 1/2 with zeta = e^{i th} tanh r: coefficients
    # sqrt((2n)!)/(2^n n!) (-e^{i th} tanh r)^n / sqrt(cosh r)
    r, th = 0.7, 0.9
    zeta = np.exp(1j * th) * np.tanh(r)
    v = states.svs_amplitudes(SvsSpec(zeta=zeta, epsilon=0.5))
    for n in range(v.truncation // 2):
        expect = (math.exp(0.5 * math.lgamma(2 * n + 1.0)
                           - math.lgamma(n + 1.0) - n * math.log(2.0))
                  * (-zeta) ** n / math.sqrt(math.cosh(r)))
        yield abs(v.amplitudes[2 * n] - expect)


@check("states.cs_canonical_reduction", 1e-12)
def check_cs_canonical_reduction(rng):
    # eps = 1/2, zeta = 0: canonical coherent amplitudes up to a global phase
    xi = 0.8 + 0.3j
    v = states.cs_amplitudes(CsSpec(zeta=0.0, xi=xi, epsilon=0.5))
    canon = np.array([
        np.exp(-abs(xi) ** 2 / 2.0) * xi ** n
        * math.exp(-0.5 * math.lgamma(n + 1.0))
        for n in range(v.truncation)
    ])
    phase = v.amplitudes[0] / canon[0]
    yield float(np.max(np.abs(v.amplitudes - phase * canon)))
    yield abs(abs(phase) - 1.0)


@check("states.transition_sums", 1e-9, "both families")
def check_transition_sums(rng):
    for zeta, xi, eps in _random_state_grid(rng, 8):
        n_svs = 2 * states._svs_pairs(abs(zeta), eps)
        total = sum(states.svs_transition(zeta, eps, n) for n in range(n_svs))
        yield abs(total - 1.0)
        v = states.cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
        total = sum(states.cs_transition(zeta, xi, eps, n)
                    for n in range(v.truncation))
        yield abs(total - 1.0)


@check("states.transition_matches_amplitudes", 1e-10,
       "both families against their amplitude vectors")
def check_transition_matches_amplitudes(rng):
    for zeta, xi, eps in _random_state_grid(rng, 6):
        v = states.cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
        for n in range(min(v.truncation, 40)):
            p = states.cs_transition(zeta, xi, eps, n)
            yield abs(p - abs(v.amplitudes[n]) ** 2)
        s = states.svs_amplitudes(SvsSpec(zeta=zeta, epsilon=eps))
        for n in range(min(s.truncation // 2, 20)):
            p = states.svs_transition(zeta, eps, n)
            yield abs(p - abs(s.amplitudes[2 * n]) ** 2)


@check("states.odd_gating_and_dispersion", 0.5)
def check_odd_gating_and_dispersion(rng):
    ok = True
    # displacement gates the odd sector
    for n in (1, 3, 11):
        ok &= states.cs_transition(0.4, 0.0, 2.5, n) == 0.0
        ok &= states.cs_transition(0.4, 1.0, 2.5, n) > 0.0
    # dispersion (last index with P > 1e-3) grows with eps at |zeta| = 0.3
    spread = []
    for eps in (0.5, 2.5, 4.5, 6.5):
        probs = [states.svs_transition(0.3, eps, n) for n in range(60)]
        spread.append(max(n for n, p in enumerate(probs) if p > 1e-3))
    ok &= all(b > a for a, b in zip(spread, spread[1:]))
    return float(not ok), f"dispersion indices {spread}"


@check("states.svs_annihilation", 1e-8, "|| (a + zeta a') svs ||")
def check_svs_annihilation(rng):
    for zeta, _, eps in _random_state_grid(rng, 5):
        spec = SvsSpec(zeta=zeta, epsilon=eps)
        n = 2 * (states._svs_pairs(abs(zeta), eps) + 64)
        v = states.svs_amplitudes(spec, truncation=n)
        a_v, ad_v = ladder_products(AlgebraParams(epsilon=eps), v.amplitudes)
        yield float(np.linalg.norm(a_v + zeta * ad_v))


@check("states.cs_eigenrelation", 1e-8, "|| (A/f - xi) cs ||")
def check_cs_eigenrelation(rng):
    for zeta, xi, eps in _random_state_grid(rng, 5):
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=eps)
        n = 2 * (states._cs_pairs(zeta, xi, eps) + 64)
        v = states.cs_amplitudes(spec, truncation=n)
        a_v, ad_v = ladder_products(AlgebraParams(epsilon=eps), v.amplitudes)
        yield float(np.linalg.norm(a_v + zeta * ad_v - xi * v.amplitudes))


@check("states.svs_overlap_series", 1e-10)
def check_svs_overlap_series(rng):
    for _ in range(6):
        eps = rng.uniform(0.5, 5.0)
        z1 = rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform())
        z2 = rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform())
        s1 = SvsSpec(zeta=z1, epsilon=eps, theta=rng.uniform(0, 2 * np.pi))
        s2 = SvsSpec(zeta=z2, epsilon=eps, theta=rng.uniform(0, 2 * np.pi))
        n = 2 * max(states._svs_pairs(abs(z1), eps),
                    states._svs_pairs(abs(z2), eps))
        v1 = states.svs_amplitudes(s1, truncation=n)
        v2 = states.svs_amplitudes(s2, truncation=n)
        yield abs(states.svs_overlap(s1, s2) - v1.overlap(v2))


@check("states.cs_overlap_series", 1e-9)
def check_cs_overlap_series(rng):
    for _ in range(5):
        eps = rng.uniform(0.5, 4.0)
        z1 = rng.uniform(0, 0.7) * np.exp(2j * np.pi * rng.uniform())
        z2 = rng.uniform(0, 0.7) * np.exp(2j * np.pi * rng.uniform())
        x1 = rng.uniform(0.1, 1.8) * np.exp(2j * np.pi * rng.uniform())
        x2 = rng.uniform(0.1, 1.8) * np.exp(2j * np.pi * rng.uniform())
        s1 = CsSpec(zeta=z1, xi=x1, epsilon=eps, theta=rng.uniform(0, 6.0))
        s2 = CsSpec(zeta=z2, xi=x2, epsilon=eps, theta=rng.uniform(0, 6.0))
        n = 2 * max(states._cs_pairs(z1, x1, eps),
                    states._cs_pairs(z2, x2, eps))
        v1 = states.cs_amplitudes(s1, truncation=n)
        v2 = states.cs_amplitudes(s2, truncation=n)
        yield abs(states.cs_overlap(s1, s2) - v1.overlap(v2))


@check("states.mean_reflection_parity_sum", 1e-10)
def check_mean_reflection_parity_sum(rng):
    for zeta, xi, eps in _random_state_grid(rng, 6):
        v = states.cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
        signs = (-1.0) ** np.arange(v.truncation)
        direct = float(np.sum(signs * np.abs(v.amplitudes) ** 2))
        yield abs(states.mean_reflection(zeta, xi, eps) - direct)


@check("states.schrodinger_property", 1e-7,
       "phase-exact oracle match, both families")
def check_schrodinger_property(rng):
    # both analytic families track the integration oracle with inner product
    # +1 (phase included) over a period of a time-dependent schedule
    eps = 2.5
    params = AlgebraParams(epsilon=eps)
    sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0, delta0=0.3)
    t_final = 2 * np.pi
    for zeta0, xi0, amplitudes, spec in (
            (0.25, 0.6, states.cs_amplitudes, states.cs_spec_from_params),
            (0.3, 0.0, states.svs_amplitudes, states.svs_spec_from_params)):
        traj = solve_zeta_xi(sched, zeta0, xi0, t_final=t_final,
                             dt=t_final / 8192, epsilon=eps)
        psi0 = amplitudes(spec(traj.at(0.0), eps), truncation=96)
        times, psis = evolve_trajectory(psi0, sched, t_final, t_final / 8192,
                                        params, n_samples=8)
        for t, psi in zip(times, psis):
            ana = amplitudes(spec(traj.at(float(t)), eps), truncation=96)
            yield abs(complex(np.vdot(ana.amplitudes, psi)) - 1.0)


@check("states.zero_squeeze_continuity", 1e-6, "gap scales linearly in |zeta|")
def check_zero_squeeze_continuity(rng):
    # the uniform evaluation approaches the zero-squeeze series linearly in
    # |zeta|; measured at |zeta| = 1e-7 the gap sits well under 1e-7 * scale
    eps, xi = 2.5, 0.9 + 0.4j
    for mag in (1e-7, 1e-8):
        zeta = mag * np.exp(0.77j)
        v = states.cs_amplitudes(CsSpec(zeta=zeta, xi=xi, epsilon=eps))
        v0 = states.cs_amplitudes(CsSpec(zeta=0.0, xi=xi, epsilon=eps),
                                  truncation=v.truncation)
        gap = float(np.max(np.abs(v.amplitudes - v0.amplitudes)))
        yield gap / (mag / 1e-7)


# -- observables ------------------------------------------------------------

def _quadratures(params, a, ad):
    """x and p from a and a' (matrices, or their products with a state)."""
    l = params.length_scale
    return ((a + ad) * l / math.sqrt(2.0),
            params.hbar * (a - ad) / (1j * math.sqrt(2.0) * l))


def _matrix_moments(spec, params):
    n = 2 * (states._cs_pairs(spec.zeta, spec.xi, spec.epsilon) + 64)
    psi = states.cs_amplitudes(spec, truncation=n).amplitudes
    x_psi, p_psi = _quadratures(params, *ladder_products(params, psi))

    def ev(bra, ket):
        return complex(np.vdot(bra, ket)).real

    # x and p are Hermitian: <x^2> = |x psi|^2, Re <xp> = (<xp> + <px>) / 2
    mean_x = ev(psi, x_psi)
    mean_p = ev(psi, p_psi)
    var_x = ev(x_psi, x_psi) - mean_x**2
    var_p = ev(p_psi, p_psi) - mean_p**2
    cov = ev(x_psi, p_psi) - mean_x * mean_p
    mean_r = ev(psi[0::2], psi[0::2]) - ev(psi[1::2], psi[1::2])
    return observables.Moments(mean_x, mean_p, var_x, var_p, cov, mean_r)


@check("observables.moments_vs_matrix", 1e-8,
       "50 random points, all six fields")
def check_moments_vs_matrix(rng):
    for _ in range(50):
        eps = rng.uniform(0.5, 4.5)
        zeta = rng.uniform(0, 0.7) * np.exp(2j * np.pi * rng.uniform())
        xi = rng.uniform(0, 1.8) * np.exp(2j * np.pi * rng.uniform())
        params = AlgebraParams(epsilon=eps, length_scale=rng.uniform(0.5, 2.0),
                               hbar=rng.uniform(0.5, 1.5))
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=eps)
        closed = observables.cs_moments(spec, params)
        matrix = _matrix_moments(spec, params)
        for field in ("mean_x", "mean_p", "var_x", "var_p", "cov_xp", "mean_r"):
            yield abs(getattr(closed, field) - getattr(matrix, field))


@check("observables.sr_saturation", 1e-10)
def check_sr_saturation(rng):
    for zeta, xi, eps in _random_state_grid(rng, 40):
        params = AlgebraParams(epsilon=eps)
        m = observables.cs_moments(CsSpec(zeta=zeta, xi=xi, epsilon=eps), params)
        _, sr = observables.uncertainty_products(zeta, m.mean_r, params)
        direct = m.var_x * m.var_p - m.cov_xp**2
        yield abs(direct - sr)


@check("observables.squeezing_monotonicity", 0.5,
       "sigma_x falls, sigma_p rises with real zeta")
def check_squeezing_monotonicity(rng):
    params = AlgebraParams(epsilon=2.5)
    sx, sp = [], []
    for z in np.linspace(0.0, 0.8, 9):
        m = observables.cs_moments(CsSpec(zeta=z, xi=0.0, epsilon=2.5), params)
        sx.append(m.sigma_x)
        sp.append(m.sigma_p)
    ok = all(b < a for a, b in zip(sx, sx[1:]))
    ok &= all(b > a for a, b in zip(sp, sp[1:]))
    return float(not ok)


@check("observables.xi_roundtrip", 1e-12)
def check_xi_roundtrip(rng):
    for zeta, xi, eps in _random_state_grid(rng, 20):
        params = AlgebraParams(epsilon=eps, length_scale=1.3)
        m = observables.cs_moments(CsSpec(zeta=zeta, xi=xi, epsilon=eps), params)
        back = observables.xi_from_means(m.mean_x, m.mean_p, zeta, params)
        yield abs(back - xi)


# -- coordinate sector ------------------------------------------------------

@check("coordrep.vacuum_normalization", 1e-10,
       "factor-2 half-line convention, l in 0..3")
def check_vacuum_normalization(rng):
    from scipy.integrate import simpson
    x = np.linspace(0.0, 16.0, 20001)
    for ell in range(4):
        psi = coordrep.vacuum_wavefunction(ell, 1.0, x)
        yield abs(2.0 * simpson(psi**2, x=x) - 1.0)


@check("coordrep.annihilation_stencil", 1e-6)
def check_coordinate_annihilation(rng):
    # 5-point stencil derivative of the first-order vacuum condition
    h = 1e-3
    x = np.linspace(0.1, 6.0, 1201)
    for ell in (0, 1, 2):
        l = 1.0
        eps = AlgebraParams.from_ell(ell, length_scale=l).epsilon

        def psi(xx, _ell=ell):
            return coordrep.vacuum_wavefunction(_ell, l, xx)

        d = (-psi(x + 2 * h) + 8 * psi(x + h) - 8 * psi(x - h)
             + psi(x - 2 * h)) / (12 * h)
        resid = d + (x / l**2 - (2 * eps - 1) / (2 * x)) * psi(x)
        yield float(np.max(np.abs(resid)))


def _density(ell, zeta, xi):
    params = AlgebraParams.from_ell(ell)
    return coordrep.probability_density(
        CsSpec(zeta=zeta, xi=xi, epsilon=params.epsilon), params)


@check("coordrep.density_two_route", 1e-10)
def check_density_two_route(rng):
    return (_density(*s).two_route_residual
            for s in ((0, 0.45, 1j), (1, 0.45, 1j), (2, 0.2 + 0.1j, 0.8),
                      (3, 0.45, 1j)))


@check("coordrep.density_normalization", 1e-8,
       "parity-resolved always; plain integral on figure family")
def check_density_normalization(rng):
    # parity-resolved norm is 1 for every state; the plain density integral
    # joins it on the figure family (real squeeze, imaginary displacement)
    yield from (abs(_density(*s).parity_norm - 1.0)
                for s in ((0, 0.45, 1j), (2, 0.2 + 0.1j, 0.8),
                          (1, 0.3j, 0.5 - 0.5j), (3, -0.5, 0.0)))
    yield from (abs(_density(*s).integral - 1.0)
                for s in ((0, 0.45, 1j), (2, -0.5, 1.2j), (1, 0.6, 0.0)))


@check("coordrep.gaussian_reduction_l0", 1e-10,
       "phase-anchored displacement (shared branch)")
def check_gaussian_reduction(rng):
    # dynamically anchored phases: theta equals the displacement argument
    # (delta = 0), which is where the two printed closed forms share a branch
    params = AlgebraParams.from_ell(0)
    x = np.linspace(0.01, 8.0, 400)
    for zeta, phi in ((0.0, 0.0), (0.3, -0.41), (0.2 - 0.4j, 0.8), (0.45, 0.0)):
        spec = CsSpec(zeta=zeta, xi=np.exp(1j * phi), epsilon=0.5, theta=phi)
        a = coordrep.cs_wavefunction(spec, params, x)
        b = coordrep.cs_wavefunction_gaussian(spec, params, x)
        yield float(np.max(np.abs(a - b)))


@check("coordrep.quantization_gate", 0.5)
def check_quantization_gate(rng):
    try:
        coordrep.ell_from_epsilon(1.7)
        ok = False
    except DomainError:
        ok = True
    ok &= coordrep.ell_from_epsilon(4.5) == 2
    return float(not ok)


@check("coordrep.hamiltonian_mapping", 1e-10,
       "mechanical vs ladder assembly, all entries")
def check_hamiltonian_mapping(rng):
    params = AlgebraParams.from_ell(1)
    alpha, beta, delta = 0.3 + 0.2j, 1.0, 0.5
    hm = coordrep.hamiltonian_mapping(alpha, beta, delta, params)
    n = 64
    x_op, p_op = _quadratures(params, *build_ladder(params, n)[:2])
    h_mech = (p_op @ p_op / (2.0 * hm.mass)
              + 0.5 * hm.mass * hm.omega**2 * (x_op @ x_op)
              + 0.5 * hm.cross * (p_op @ x_op + x_op @ p_op)
              + hm.offset * np.eye(n))
    h_ladder = build_hamiltonian(params, alpha, beta, delta, n)
    yield float(np.max(np.abs(h_mech - h_ladder)))
    yield abs(hm.omega**2 - (beta**2 - alpha.real**2))


# -- completeness -----------------------------------------------------------

@check("completeness.weight_values", 1e-12)
def check_weight_values(rng):
    yield abs(completeness.weight(2.0, 0.0) - 1.0 / math.pi)
    yield abs(completeness.weight(3.0, 0.5) - 2.0 / (math.pi * 0.5625))


@check("completeness.diagonal_identity", 1e-8,
       "eps in {1.5, 2.5, 5.5}, n <= 15")
def check_diagonal_identity(rng):
    for eps in (1.5, 2.5, 5.5):
        for n in range(16):
            yield completeness.diagonal_identity_residual(eps, n)


@check("completeness.block_identity", 1e-6, "K=8, eps=2.5")
def check_block_identity(rng):
    return completeness.identity_block_residual(2.5, block=8)


@check("completeness.domain_gate", 0.5,
       "eps <= 1 rejected before any quadrature")
def check_completeness_domain(rng):
    ok = True
    for eps in (0.5, 1.0):
        try:
            completeness.weight(eps, 0.1)
            ok = False
        except DomainError:
            pass
        try:
            completeness.identity_block_residual(eps, 4)
            ok = False
        except DomainError:
            pass
    return float(not ok)


@check("completeness.weight_divergence", 0.5)
def check_weight_divergence(rng):
    vals = []
    for r_max in (0.9, 0.99, 0.999):
        r = np.linspace(0.0, r_max, 4001)
        w = completeness.weight(2.0, r)
        vals.append(float(np.sum(w[1:] + w[:-1]) * 0.5 * (r[1] - r[0])))
    ok = vals[0] < vals[1] < vals[2]
    return float(not ok), f"cumulative masses {np.round(vals, 3)}"


# -- oscillator -------------------------------------------------------------

@check("oscillator.oracle_fidelity", 1e-7,
       "N=256, l=2, |zeta0|=0.6, |xi0|=2, one period")
def check_oscillator_fidelity(rng):
    cfg = oscillator.OscillatorConfig(omega0=1.0, ell=2, zeta0=0.6,
                                      xi0=2.0 * np.exp(0.4j))
    params = cfg.algebra_params()
    t_final = cfg.period
    psi0 = oscillator.cs_state(cfg, 0.0, truncation=256)
    times, psis = evolve_trajectory(psi0, constant_schedule(0.0, 1.0, 0.0),
                                    t_final, t_final / 8192, params,
                                    n_samples=16)
    for t, psi in zip(times, psis):
        ana = oscillator.cs_state(cfg, float(t), truncation=256)
        fid = abs(complex(np.vdot(ana.amplitudes, psi)))
        yield 1.0 - fid


@check("oscillator.closed_form_vs_ode", 1e-9)
def check_parameter_closed_form(rng):
    cfg = oscillator.OscillatorConfig(omega0=1.3, ell=1, zeta0=0.4 * np.exp(0.5j),
                                      xi0=0.9j)
    sched = constant_schedule(0.0, cfg.omega0, 0.0)
    traj = solve_zeta_xi(sched, cfg.zeta0, cfg.xi0, t_final=cfg.period,
                         epsilon=cfg.epsilon)
    for idx in range(0, len(traj.times), 512):
        t = float(traj.times[idx])
        p = oscillator.closed_form_parameters(cfg, t)
        yield abs(traj.zeta[idx] - p.zeta)
        yield abs(traj.xi[idx] - p.xi)
        yield abs(traj.theta_svs()[idx] - p.theta_svs)
        yield abs(traj.theta_cs()[idx] - p.theta_cs)


@check("oscillator.uncertainty_minima", 0.5)
def check_uncertainty_minima(rng):
    cfg = oscillator.OscillatorConfig(omega0=1.0, ell=1,
                                      zeta0=0.5 * np.exp(0.8j), xi0=1.0)
    snap = oscillator.uncertainty_trajectory(cfg, cfg.period)
    ts = np.linspace(0.0, cfg.period, 2001)
    heis = np.array([oscillator.uncertainty_trajectory(cfg, float(t)).heisenberg
                     for t in ts])
    ok = len(snap.minima_times) > 0
    floor = float(np.min(heis))
    for tk in snap.minima_times:
        hk = oscillator.uncertainty_trajectory(cfg, float(tk)).heisenberg
        ok &= hk <= floor + 1e-12
    # Schrodinger-Robertson combination never varies in time
    srs = [oscillator.uncertainty_trajectory(cfg, float(t)).schrodinger_robertson
           for t in ts[::200]]
    ok &= max(srs) - min(srs) == 0.0
    return float(not ok), f"{len(snap.minima_times)} minima in one period"


@check("oscillator.asymptotic_convergence", 0.5)
def check_asymptotic_convergence(rng):
    ok = True
    # small displacement: relative error falls as |xi0| -> 0
    errs = []
    for x_abs in (0.3, 0.1, 0.03):
        cfg = oscillator.OscillatorConfig(omega0=1.0, ell=1, zeta0=0.4,
                                          xi0=x_abs)
        exact = oscillator.uncertainty_trajectory(cfg, 0.0).heisenberg
        approx = oscillator.asymptotic_uncertainties(
            cfg, "small", small_xi_max=0.5).heisenberg
        errs.append(abs(exact - approx) / exact)
    ok &= errs[0] > errs[1] > errs[2]
    small = [round(e, 10) for e in errs]
    # large argument: relative error falls as y grows
    errs = []
    for x_abs in (5.0, 10.0, 20.0):
        cfg = oscillator.OscillatorConfig(omega0=1.0, ell=2, zeta0=0.3,
                                          xi0=x_abs)
        exact = oscillator.uncertainty_trajectory(cfg, 0.0).heisenberg
        approx = oscillator.asymptotic_uncertainties(
            cfg, "large", large_y_min=20.0).heisenberg
        errs.append(abs(exact - approx) / exact)
    ok &= errs[0] > errs[1] > errs[2]
    return float(not ok), f"small-regime errors {small}"


@check("oscillator.calibrate_roundtrip", 1e-12)
def check_calibrate_roundtrip(rng):
    for _ in range(10):
        ell = int(rng.integers(0, 4))
        zeta0 = rng.uniform(-0.7, 0.7)
        xi0 = rng.uniform(0, 2) * np.exp(2j * np.pi * rng.uniform())
        l = rng.uniform(0.4, 2.5)
        params = AlgebraParams.from_ell(ell, length_scale=l)
        m = observables.cs_moments(
            CsSpec(zeta=zeta0, xi=xi0, epsilon=params.epsilon), params)
        back = oscillator.calibrate_l(m.sigma_x, zeta0, xi0, ell)
        yield abs(back - l) / l


@check("oscillator.stationary_transition", 1e-10,
       "time-independence at t in {0, 0.7, 2.1}")
def check_stationary_transition(rng):
    cfg = oscillator.OscillatorConfig(omega0=1.0, ell=2, zeta0=0.5, xi0=1j)
    for t in (0.0, 0.7, 2.1):
        p = oscillator.closed_form_parameters(cfg, t)
        for n in range(12):
            yield abs(oscillator.stationary_transition(cfg, n)
                      - states.cs_transition(p.zeta, p.xi, cfg.epsilon, n))


@check("oscillator.mean_trajectory_energy", 1e-12)
def check_mean_trajectory_energy(rng):
    cfg = oscillator.OscillatorConfig(omega0=1.4, ell=1,
                                      zeta0=0.4 * np.exp(1.1j), xi0=1.2j)
    ts = np.linspace(0.0, cfg.period, 97)
    x, p = oscillator.mean_trajectories(cfg, ts)
    energy = 0.5 * cfg.mass * cfg.omega0**2 * x**2 + p**2 / (2.0 * cfg.mass)
    yield float(np.max(np.abs(energy - energy[0])))
    # t = 0 consistency against the closed-form moments
    params = cfg.algebra_params()
    m = observables.cs_moments(
        CsSpec(zeta=cfg.zeta0, xi=cfg.xi0, epsilon=cfg.epsilon), params)
    yield abs(x[0] - m.mean_x)
    yield abs(p[0] - m.mean_p)


def check_configured_level(epsilon: float) -> CheckResult:
    """Configuration-scoped completeness row: levels at or below 1 are
    reported as domain-excluded rather than failed."""
    name, tolerance = "completeness.configured_level", 1e-8
    if epsilon <= 1.0:
        return CheckResult(name, 0.0, tolerance, "excluded",
                           f"eps = {epsilon} admits no positive weight")
    worst = _worst(completeness.diagonal_identity_residual(epsilon, n)
                   for n in range(8))
    return _row(name, worst, tolerance, f"eps = {epsilon}")


MAX_WORKERS = 3


def _worker_count() -> int:
    """Processes for ``run_all``: the usable CPUs, at most MAX_WORKERS = 3,
    since ``dynamics.mu_conservation`` is over a third of a pass, so a
    fourth worker could not shorten it, and the cap keeps a many-core host
    from forking a worker per row; 1 (no pool) without the fork start
    method."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _init_worker(parent: int) -> None:
    # Ctrl-C reaches the whole process group; only the parent acts on it.
    # A worker is forked with SIGINT blocked, so one that arrives before
    # this point is dropped here rather than stopping the worker half-made.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    # a parent killed outright (SIGTERM, SIGKILL) cannot shut the pool
    # down, and its workers would wait for rows forever
    threading.Thread(target=_exit_with_parent, args=(parent,),
                     daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.2)
    os._exit(1)


def _run_row(index: int, seed: int) -> CheckResult:
    return ALL_CHECKS[index](np.random.default_rng(seed))


def run_all(seed: int, epsilon: float) -> list[CheckResult]:
    """Every row of ``ALL_CHECKS``, each with a fresh generator from
    ``seed``, then the ``check_configured_level`` row for ``epsilon``.

    The rows are independent and run on ``_worker_count()`` forked worker
    processes.  Their results come back in declaration order, so the report
    is byte-identical to the in-process map that runs with one usable CPU or
    without the fork start method.  The workers ignore SIGINT: on an
    interrupt, or an exception from a row that is not a ``ParaBoseError``
    (that one is a failed row), the pending rows are cancelled,
    the running ones finish, and no worker outlives the call.  A worker
    whose parent is killed outright exits within 0.2 s.
    """
    rows, workers = range(len(ALL_CHECKS)), _worker_count()
    if workers == 1:
        results = list(map(_run_row, rows, repeat(seed)))
    else:
        # loaded once here rather than by every worker of every pass
        import scipy.integrate  # noqa: F401
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(os.getpid(),))
        try:
            # the first submit forks the workers: an interrupt is held back
            # until they and the pool's thread are up, so shutdown sees them
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pending = pool.map(_run_row, rows, repeat(seed))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            results = list(pending)
        finally:
            pool.shutdown(cancel_futures=True)
    return results + [check_configured_level(epsilon)]
