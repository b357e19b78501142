"""Time-dependent coefficient schedules for the quadratic Hamiltonian.

A schedule is one function ``coefficients(t) -> (alpha, beta, delta)`` of a
scalar time, alpha complex, beta and delta real.  Positive definiteness of
the Hamiltonian requires beta(t) > |alpha(t)|.  Each constructor checks it
for every t and rejects a non-finite coefficient before any integration.
The solvers' gate, ``check_positive_definite``, reads beta > |alpha| and a
finite delta at every time they evaluate, so a raw ``CoefficientSchedule``
meets the same rule, and a violation is a hard error.

Three families are supported: constant, sinusoidal (mean plus a sine
modulation at a common frequency) and tabulated (piecewise-linear between
CSV samples with header ``t,alpha_re,alpha_im,beta,delta``).  beta - |alpha|
is concave in s = sin(omega t) and on each tabulated segment, so the
sinusoidal rule is checked exactly at s = +-1 (s = 0 when omega = 0) and
the tabulated one at the samples.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "CoefficientSchedule",
    "constant_schedule",
    "sinusoidal_schedule",
    "tabulated_schedule",
    "load_schedule_csv",
]


@dataclass(frozen=True)
class CoefficientSchedule:
    """``coefficients(t)`` returns (complex alpha, float beta, float delta);
    ``knots`` are the times where their slopes jump (a tabulated schedule's
    samples), at which the integrator restarts."""

    coefficients: Callable[[float], tuple[complex, float, float]]
    knots: tuple[float, ...] = ()

    def check_positive_definite(self, t: float) -> None:
        """Raise unless beta(t) > |alpha(t)| (oscillator-type Hamiltonian)
        and delta(t) is finite."""
        alpha, b, delta = self.coefficients(t)
        a = abs(alpha)
        if not b > a:
            raise DomainError(
                f"schedule violates beta > |alpha| at t={t}: beta={b}, |alpha|={a}"
            )
        if not abs(delta) < math.inf:
            raise DomainError(f"schedule delta must be finite, got {delta} at t={t}")


def _check_finite(**coefficients) -> None:
    """Each coefficient, a number or a tabulated column, is finite."""
    for name, value in coefficients.items():
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            where = f" at sample {bad[0]}" if np.ndim(value) else ""
            raise DomainError(f"schedule {name} must be finite, got "
                              f"{np.ravel(value)[bad[0]]}{where}")


def constant_schedule(
    alpha: complex = 0.0, beta: float = 1.0, delta: float = 0.0
) -> CoefficientSchedule:
    values = (complex(alpha), float(beta), float(delta))
    _check_finite(alpha=values[0], beta=values[1], delta=values[2])
    sched = CoefficientSchedule(lambda t: values)
    sched.check_positive_definite(0.0)
    return sched


def sinusoidal_schedule(
    alpha0: complex = 0.0,
    alpha_amp: complex = 0.0,
    beta0: float = 1.0,
    beta_amp: float = 0.0,
    delta0: float = 0.0,
    omega: float = 1.0,
) -> CoefficientSchedule:
    """alpha(t) = alpha0 + alpha_amp sin(omega t), beta(t) likewise, delta const."""
    alpha0 = complex(alpha0)
    alpha_amp = complex(alpha_amp)
    beta0 = float(beta0)
    beta_amp = float(beta_amp)
    delta0 = float(delta0)
    omega = float(omega)
    _check_finite(alpha0=alpha0, alpha_amp=alpha_amp, beta0=beta0,
                  beta_amp=beta_amp, delta0=delta0, omega=omega)

    def coefficients(t):
        s = math.sin(omega * t)
        return alpha0 + alpha_amp * s, beta0 + beta_amp * s, delta0

    # beta - |alpha| is concave in s = sin(omega t): smallest at s = +-1
    for s in (-1.0, 1.0) if omega else (0.0,):
        if not beta0 + beta_amp * s > abs(alpha0 + alpha_amp * s):
            raise DomainError(f"schedule violates beta > |alpha| at sin(omega t)={s}")
    return CoefficientSchedule(coefficients)


def tabulated_schedule(
    times: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    delta: np.ndarray,
) -> CoefficientSchedule:
    """Piecewise-linear schedule between strictly increasing sample times.

    Checking beta > |alpha| on the samples covers every time: beta - |alpha|
    is concave on each linear segment, so it is smallest at a sample.
    """
    times = np.asarray(times, dtype=float)
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ConfigError("tabulated schedule needs at least two samples")
    if not np.all(np.diff(times) > 0):
        raise ConfigError("tabulated schedule times must be strictly increasing")
    if not (len(alpha) == len(beta) == len(delta) == len(times)):
        raise ConfigError("tabulated schedule columns must share the time length")
    _check_finite(t=times, alpha=alpha, beta=beta, delta=delta)
    knots = tuple(times.tolist())
    t0, t1 = knots[0], knots[-1]
    columns = np.column_stack([alpha.real, alpha.imag, beta, delta])
    # per-segment slopes; a zero row after the last sample holds its values
    slopes = np.vstack([np.diff(columns, axis=0) / np.diff(times)[:, None],
                        np.zeros(4)])
    rows = list(zip(columns.tolist(), slopes.tolist()))

    def coefficients(t):
        if not t0 - 1e-12 <= t <= t1 + 1e-12:
            raise DomainError(
                f"tabulated schedule queried at t={t} outside [{t0}, {t1}]")
        # the end values hold within the 1e-12 slack
        t = min(max(t, t0), t1)
        j = bisect_right(knots, t) - 1
        (ar, ai, b, d), (sar, sai, sb, sd) = rows[j]
        h = t - knots[j]
        return complex(ar + sar * h, ai + sai * h), b + sb * h, d + sd * h

    sched = CoefficientSchedule(coefficients, knots=knots)
    for t in knots:
        sched.check_positive_definite(t)
    return sched


def load_schedule_csv(path) -> CoefficientSchedule:
    """Read a tabulated schedule; header must be t,alpha_re,alpha_im,beta,delta."""
    expected = ["t", "alpha_re", "alpha_im", "beta", "delta"]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected:
            raise ConfigError(
                f"schedule CSV header must be {','.join(expected)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ConfigError(f"{path}:{lineno}: expected 5 columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: needs at least two schedule samples")
    data = np.array(rows)
    return tabulated_schedule(
        data[:, 0], data[:, 1] + 1j * data[:, 2], data[:, 3], data[:, 4]
    )
