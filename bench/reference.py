"""References made apart from parabose, and the output checks built on them.

Closed forms come from ``scipy.special`` (gammaln, ive, eval_genlaguerre) in
double precision and from ``mpmath`` (laguerre, gamma, besseli) at 30
digits.  Ladder identities use a banded form of the algebra,

    a|2n> = sqrt(2n) |2n-1>,   a|2n+1> = sqrt(2(n+eps)) |2n>,

applied as vector shifts, so no N x N matrix is built.  Nothing here reads
a stored copy of earlier output.  Every check returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import csv
import math
import pathlib

import mpmath
import numpy as np
from scipy.integrate import simpson
from scipy.special import eval_genlaguerre, gammaln, ive

mpmath.mp.dps = 30

# Values a config file may leave out, as the program's own defaults.
CONF_DEFAULTS = {
    "algebra.l": 1.0,
    "algebra.ell": 0,
    "schedule.beta": 1.0,
    "state.zeta_abs": None,
    "state.zeta_arg": 0.0,
    "state.zeta_re": 0.0,
    "state.zeta_im": 0.0,
    "state.xi_abs": None,
    "state.xi_arg": 0.0,
    "state.xi_re": 0.0,
    "state.xi_im": 0.0,
    "figure.epsilons": (0.5, 2.5, 4.5, 6.5),
    "figure.ells": (0, 1, 2, 3),
    "figure.zetas": (0.0, 0.25, 0.5, 0.75),
    "figure.n_max": 40,
    "figure.r_max": 0.99,
    "figure.nodes": 400,
    "figure.points": 2048,
}
_INT_KEYS = {"algebra.ell", "figure.n_max", "figure.nodes",
             "figure.points", "figure.ells"}


def read_conf(path) -> dict:
    """The ``key = value`` lines of a scenario file, over CONF_DEFAULTS."""
    conf = dict(CONF_DEFAULTS)
    for raw in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, text = (part.strip() for part in line.partition("="))
        kind = int if key in _INT_KEYS else float
        if isinstance(CONF_DEFAULTS.get(key), tuple):
            conf[key] = tuple(kind(v) for v in text.split(","))
        elif key in CONF_DEFAULTS:
            conf[key] = kind(text)
    return conf


def _conf_complex(conf, name):
    if conf[f"state.{name}_abs"] is not None:
        return complex(np.exp(1j * conf[f"state.{name}_arg"])
                       * conf[f"state.{name}_abs"])
    return complex(conf[f"state.{name}_re"], conf[f"state.{name}_im"])


def conf_zeta(conf) -> complex:
    return _conf_complex(conf, "zeta")


def conf_xi(conf) -> complex:
    return _conf_complex(conf, "xi")


# -- closed forms --------------------------------------------------------------

def svs_column(zeta_abs: float, eps: float, count: int) -> np.ndarray:
    """P_2n = (1-|zeta|^2)^eps Gamma(n+eps) |zeta|^2n / (n! Gamma(eps))."""
    q = zeta_abs * zeta_abs
    n = np.arange(count)
    if q == 0.0:
        return (n == 0).astype(float)
    return np.exp(eps * math.log1p(-q) + gammaln(n + eps) - gammaln(n + 1.0)
                  - gammaln(eps) + n * math.log(q))


def cs_probabilities(zeta: complex, xi: complex, eps: float,
                     count: int) -> np.ndarray:
    """P_n for n < count in double precision, through ive and
    eval_genlaguerre; for moderate n, where the Laguerre sum is stable."""
    if xi == 0:
        out = np.zeros(count)
        out[0::2] = svs_column(abs(zeta), eps, (count + 1) // 2)
        return out
    n = np.arange(count)
    m, parity = n // 2, n % 2
    one = 1.0 - abs(zeta) ** 2
    y = abs(xi) ** 2 / one
    half = 0.5 * abs(xi) ** 2
    log_k = ((eps - 1.0) * math.log(half) + math.log(one)
             + (np.conj(zeta) * xi * xi).real / one
             - y - math.log(ive(eps - 1.0, y) + ive(eps, y)))
    x = 0.5 * xi * xi
    if zeta == 0:
        log_m2 = 2.0 * (m * math.log(abs(x)) - gammaln(m + 1.0))
    else:
        lag = eval_genlaguerre(m, eps - 1.0 + parity, x / zeta + 0j)
        log_m2 = 2.0 * m * math.log(abs(zeta)) + 2.0 * np.log(np.abs(lag))
    return np.exp(log_k + gammaln(m + 1.0) - gammaln(m + eps + parity)
                  + parity * math.log(half) + log_m2)


def cs_amplitude_mp(zeta: complex, xi: complex, eps: float, n: int) -> complex:
    """c_n of the coherent state (phase theta = 0) at 30 digits."""
    z, x, e = mpmath.mpc(zeta), mpmath.mpc(xi), mpmath.mpf(eps)
    one = 1 - abs(z) ** 2
    m, parity = divmod(n, 2)
    if x == 0:
        if parity:
            return 0j
        return complex(one ** (e / 2) * (-z) ** m * mpmath.sqrt(
            mpmath.gamma(m + e) / (mpmath.factorial(m) * mpmath.gamma(e))))
    y = abs(x) ** 2 / one
    pre = ((x / mpmath.sqrt(2)) ** (e - 1)
           * mpmath.sqrt(one / (mpmath.besseli(e - 1, y) + mpmath.besseli(e, y)))
           * mpmath.exp(mpmath.conj(z) * x * x / (2 * one)))
    half_x2 = x * x / 2
    if z == 0:
        col = half_x2 ** m / mpmath.factorial(m)
    else:
        col = (-z) ** m * mpmath.laguerre(m, e - 1 + parity, half_x2 / z)
    c = pre * mpmath.sqrt(mpmath.factorial(m)) * col / mpmath.sqrt(
        mpmath.gamma(m + e + parity))
    if parity:
        c *= x / mpmath.sqrt(2)
    return complex(c)


def mean_reflection_ref(zeta: complex, xi: complex, eps: float) -> float:
    if xi == 0:
        return 1.0
    y = abs(xi) ** 2 / (1.0 - abs(zeta) ** 2)
    lo, hi = ive(eps - 1.0, y), ive(eps, y)
    return float((lo - hi) / (lo + hi))


def weight_ref(eps: float, r: np.ndarray) -> np.ndarray:
    return (eps - 1.0) / (math.pi * (1.0 - r * r) ** 2)


# -- banded ladder -------------------------------------------------------------

def _ladder(size: int, eps: float) -> np.ndarray:
    """k-th entry: the matrix element <k-1|a|k>."""
    j = np.arange(size, dtype=float)
    return np.where(j % 2 == 0, np.sqrt(j), np.sqrt(j - 1.0 + 2.0 * eps))


def lower(psi: np.ndarray, eps: float) -> np.ndarray:
    out = np.zeros_like(psi)
    out[:-1] = _ladder(len(psi), eps)[1:] * psi[1:]
    return out


def lift(psi: np.ndarray, eps: float) -> np.ndarray:
    out = np.zeros_like(psi)
    out[1:] = _ladder(len(psi), eps)[1:] * psi[:-1]
    return out


def eigen_residual(psi, zeta, xi, eps, skip: int = 16) -> float:
    """|| (a + zeta a^dagger - xi) psi || away from the last ``skip`` rows,
    where the truncation cuts the raising term."""
    r = lower(psi, eps) + zeta * lift(psi, eps) - xi * psi
    return float(np.linalg.norm(r[:-skip]))


def ladder_moments(psi, eps, l: float = 1.0, hbar: float = 1.0):
    """(<x>, <p>, var x, var p) with x = l (a + a^dag)/sqrt 2 and
    p = i hbar (a^dag - a)/(sqrt 2 l)."""
    down, up = lower(psi, eps), lift(psi, eps)
    mean_a = complex(np.vdot(psi, down))
    mean_x = math.sqrt(2.0) * l * mean_a.real
    mean_p = math.sqrt(2.0) * hbar / l * mean_a.imag
    x2 = 0.5 * l * l * float(np.vdot(down + up, down + up).real)
    p2 = 0.5 * (hbar / l) ** 2 * float(np.vdot(up - down, up - down).real)
    return mean_x, mean_p, x2 - mean_x ** 2, p2 - mean_p ** 2


# -- checks --------------------------------------------------------------------

def _rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.abs(want)))


def _read_csv(path: pathlib.Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def _expect(problems, label, value, bound):
    if not value <= bound:  # also catches NaN
        problems.append(f"{label}: {value:.3e} > {bound:.1e}")


def check_figures(out: pathlib.Path, configs: pathlib.Path) -> list[str]:
    problems = []
    try:
        _check_svs_prob(out / "svs_prob", read_conf(configs / "fig_svs_prob.conf"),
                        problems)
        _check_cs_prob(out / "cs_prob", read_conf(configs / "fig_cs_prob.conf"),
                       problems)
        _check_weight(out / "weight", read_conf(configs / "fig_weight.conf"),
                      problems)
        _check_density(out / "density", read_conf(configs / "fig_density.conf"),
                       problems)
        _check_oscillator(out / "oscillator",
                          read_conf(configs / "fig_oscillator.conf"), problems)
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"figure output unreadable: {exc!r}")
    return problems


def _check_svs_prob(directory, conf, problems):
    zeta_abs = abs(conf_zeta(conf))
    for eps in conf["figure.epsilons"]:
        _, rows = _read_csv(directory / f"svs_prob_eps{eps:g}.csv")
        count = 1 if zeta_abs == 0 else conf["figure.n_max"] + 1
        if len(rows) != count:
            problems.append(f"svs_prob eps={eps:g}: {len(rows)} rows, want {count}")
            continue
        _expect(problems, f"svs_prob eps={eps:g} vs gammaln (rel)",
                _rel_err(rows[:, 1], svs_column(zeta_abs, eps, count)), 1e-10)


def _check_cs_prob(directory, conf, problems):
    zeta, xi = conf_zeta(conf), conf_xi(conf)
    count = conf["figure.n_max"] + 1
    for eps in conf["figure.epsilons"]:
        _, rows = _read_csv(directory / f"cs_prob_eps{eps:g}.csv")
        if len(rows) != count:
            problems.append(f"cs_prob eps={eps:g}: {len(rows)} rows, want {count}")
            continue
        want = [abs(cs_amplitude_mp(zeta, xi, eps, n)) ** 2 for n in range(count)]
        _expect(problems, f"cs_prob eps={eps:g} vs mpmath (rel)",
                _rel_err(rows[:, 1], want), 1e-10)


def _check_weight(directory, conf, problems):
    r = np.linspace(0.0, conf["figure.r_max"], conf["figure.nodes"])
    for eps in (e for e in conf["figure.epsilons"] if e > 1.0):
        _, rows = _read_csv(directory / f"weight_eps{eps:g}.csv")
        if len(rows) != len(r) or np.max(np.abs(rows[:, 0] - r)) > 1e-12:
            problems.append(f"weight eps={eps:g}: grid differs from linspace")
            continue
        _expect(problems, f"weight eps={eps:g} vs (eps-1)/(pi(1-r^2)^2) (rel)",
                _rel_err(rows[:, 1], weight_ref(eps, r)), 1e-10)


# The CSV grid starts at x0 = 1e-3 l.  Below it rho is flat to O(x0) at
# ell = 0 and falls as x^(4 ell) above, so the slab counts as rho(x0) x0;
# beyond the last node the Gaussian tail is below 1e-40.
DENSITY_INTEGRAL_TOL = 1e-8


def _check_density(directory, conf, problems):
    for ell in conf["figure.ells"]:
        _, rows = _read_csv(directory / f"density_ell{ell}.csv")
        x, re, im, rho = rows.T
        if len(x) != conf["figure.points"] or not np.all(np.diff(x) > 0):
            problems.append(f"density ell={ell}: grid is not {conf['figure.points']}"
                            " increasing points")
            continue
        _expect(problems, f"density ell={ell}: rho - |psi|^2 (rel to peak)",
                float(np.max(np.abs(rho - (re * re + im * im))) / np.max(rho)),
                1e-10)
        _expect(problems, f"density ell={ell}: |2 int rho - 1|",
                abs(2.0 * (float(simpson(rho, x=x)) + rho[0] * x[0]) - 1.0),
                DENSITY_INTEGRAL_TOL)


def _check_oscillator(directory, conf, problems):
    _, traj = _read_csv(directory / "oscillator_trajectory.csv")
    period = 2.0 * math.pi / conf["schedule.beta"]
    at_period = np.flatnonzero(np.abs(traj[:, 0] - period) < 1e-9)
    if len(at_period) != 1:
        problems.append("oscillator: no trajectory row at one trap period")
    else:
        first, later = traj[0, 1:], traj[at_period[0], 1:]
        _expect(problems, "oscillator trajectory after one period",
                float(np.max(np.abs(later - first)
                             / np.maximum(1.0, np.abs(first)))), 1e-9)
    xi, eps = conf_xi(conf), 2 * conf["algebra.ell"] + 0.5
    count = conf["figure.n_max"] + 1
    for zeta in conf["figure.zetas"]:
        _, rows = _read_csv(directory / f"oscillator_prob_zeta{zeta:g}.csv")
        if len(rows) != count:
            problems.append(f"oscillator_prob zeta={zeta:g}: {len(rows)} rows")
            continue
        _expect(problems, f"oscillator_prob zeta={zeta:g} vs scipy closed form (rel)",
                _rel_err(rows[:, 1], cs_probabilities(zeta, xi, eps, count)),
                1e-10)


def check_state(record: dict, mp_indices=None, overlap_pair=None) -> list[str]:
    """Properties every sweep state must have; for ``mp_indices``, its
    amplitudes against mpmath; for ``overlap_pair``, the amplitudes of the
    previous state and this one at one common truncation, whose inner
    product the overlap must equal (each state's own truncation would leave
    out tails of up to 1e-7 in norm)."""
    zeta, xi, eps = record["zeta"], record["xi"], record["eps"]
    label = f"state zeta={zeta:.4f} xi={xi:.4f} eps={eps:g}"
    problems = []
    amps, dist = record["amps"], record["dist"]
    _expect(problems, f"{label}: |sum P_n - 1|", abs(float(np.sum(dist)) - 1.0),
            1e-9)
    _expect(problems, f"{label}: P_n vs |c_n|^2",
            float(np.max(np.abs(dist - np.abs(amps) ** 2))), 1e-10)
    _expect(problems, f"{label}: banded eigenrelation",
            eigen_residual(amps, zeta, xi, eps), 1e-8)

    column = record["svs_column"]
    _expect(problems, f"{label}: svs_transition vs gammaln (rel)",
            _rel_err(column, svs_column(abs(zeta), eps, len(column))), 1e-10)
    _expect(problems, f"{label}: svs |c_2n|^2 vs svs_transition",
            float(np.max(np.abs(np.abs(record["svs"][0::2]) ** 2 - column))),
            1e-10)
    _expect(problems, f"{label}: svs banded annihilation",
            eigen_residual(record["svs"], zeta, 0.0, eps), 1e-8)

    mean_r, moments = record["mean_r"], record["moments"]
    _expect(problems, f"{label}: mean_reflection vs ive",
            abs(mean_r - mean_reflection_ref(zeta, xi, eps)), 1e-10)
    _expect(problems, f"{label}: mean_reflection vs parity sum of P_n",
            abs(float(np.sum(dist[0::2]) - np.sum(dist[1::2])) - mean_r), 1e-9)
    _expect(problems, f"{label}: cs_moments mean_r",
            abs(moments.mean_r - mean_r), 1e-12)
    got = (moments.mean_x, moments.mean_p, moments.var_x, moments.var_p)
    for name, g, w in zip(("<x>", "<p>", "var x", "var p"), got,
                          ladder_moments(amps, eps)):
        _expect(problems, f"{label}: cs_moments {name} vs ladder",
                abs(g - w) / max(1.0, abs(w)), 1e-8)

    if overlap_pair is not None:
        want = complex(np.vdot(*overlap_pair))
        _expect(problems, f"{label}: cs_overlap vs amplitude inner product",
                abs(record["overlap"] - want), 1e-10)

    if mp_indices:
        want = np.array([cs_amplitude_mp(zeta, xi, eps, n) for n in mp_indices])
        _expect(problems, f"{label}: amplitudes vs mpmath (rel to peak)",
                float(np.max(np.abs(amps[mp_indices] - want))
                      / np.max(np.abs(amps))), 1e-10)
    return problems


def check_mu(f, g) -> list[str]:
    mu = np.abs(f) ** 2 - np.abs(g) ** 2
    problems = []
    _expect(problems, "solve_fg: mu drift", float(np.max(np.abs(mu - mu[0]))
                                                   / abs(mu[0])), 1e-9)
    return problems


def check_oracle(label, analytic, psis, tol) -> list[str]:
    problems = []
    worst = max(1.0 - abs(complex(np.vdot(a, p))) for a, p in zip(analytic, psis))
    _expect(problems, f"oracle {label}: 1 - fidelity", worst, tol)
    norm = max(abs(float(np.vdot(p, p).real) - 1.0) for p in psis)
    _expect(problems, f"oracle {label}: norm drift", norm, 1e-9)
    return problems


def read_verify_report(path: pathlib.Path):
    """(status, name) for each row of a ``verify_report.txt``."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL", "EXCL"):
            rows.append((status, rest.split()[0]))
    return rows
