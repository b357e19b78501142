"""Time-dependent coefficient schedules for the quadratic Hamiltonian.

A schedule supplies the three Hamiltonian coefficients as functions of time:
alpha(t) complex, beta(t) and delta(t) real.  Positive definiteness of the
Hamiltonian requires beta(t) > |alpha(t)|; the solvers check this on every
node of their time grid and treat a violation as a hard error.  Every
coefficient callable accepts a scalar time or an array of times.

Three families are supported: constant, sinusoidal (mean plus a sine
modulation at a common frequency) and tabulated (piecewise-linear between
CSV samples with header ``t,alpha_re,alpha_im,beta,delta``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
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
    alpha: Callable[[float], complex]
    beta: Callable[[float], float]
    delta: Callable[[float], float]
    family: str = "constant"
    # closed interval on which the schedule is defined; None means all t
    domain: tuple[float, float] | None = field(default=None, compare=False)

    def check_positive_definite(self, t: float) -> None:
        """Raise unless beta(t) > |alpha(t)| (oscillator-type Hamiltonian)."""
        b = self.beta(t)
        a = abs(self.alpha(t))
        if not b > a:
            raise DomainError(
                f"schedule violates beta > |alpha| at t={t}: beta={b}, |alpha|={a}"
            )

    def coefficients(self, t: float) -> tuple[complex, float, float]:
        return complex(self.alpha(t)), float(self.beta(t)), float(self.delta(t))

    def sample(self, times: np.ndarray):
        """(alpha, beta, delta) as arrays on ``times``, after checking
        beta > |alpha| on every node (raises at the first failing one)."""
        times = np.asarray(times, dtype=float)
        alpha = np.broadcast_to(np.asarray(self.alpha(times), dtype=complex), times.shape)
        beta = np.broadcast_to(np.asarray(self.beta(times), dtype=float), times.shape)
        delta = np.broadcast_to(np.asarray(self.delta(times), dtype=float), times.shape)
        bad = ~(beta > np.abs(alpha))
        if bad.any():
            self.check_positive_definite(float(times[np.argmax(bad)]))
        return alpha, beta, delta


def constant_schedule(
    alpha: complex = 0.0, beta: float = 1.0, delta: float = 0.0
) -> CoefficientSchedule:
    alpha = complex(alpha)
    beta = float(beta)
    delta = float(delta)
    sched = CoefficientSchedule(
        alpha=lambda t: alpha,
        beta=lambda t: beta,
        delta=lambda t: delta,
        family="constant",
    )
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
    sched = CoefficientSchedule(
        alpha=lambda t: alpha0 + alpha_amp * np.sin(omega * t),
        beta=lambda t: beta0 + beta_amp * np.sin(omega * t),
        delta=lambda t: delta0,
        family="sinusoidal",
    )
    # worst-case spot check over one modulation period
    sched.sample(np.linspace(0.0, 2.0 * np.pi / omega if omega else 1.0, 64))
    return sched


def tabulated_schedule(
    times: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    delta: np.ndarray,
) -> CoefficientSchedule:
    """Piecewise-linear schedule between strictly increasing sample times."""
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
    t0, t1 = float(times[0]), float(times[-1])

    def _interp(values):
        def f(t):
            ta = np.asarray(t, dtype=float)
            outside = (ta < t0 - 1e-12) | (ta > t1 + 1e-12)
            if outside.any():
                raise DomainError(
                    f"tabulated schedule queried at t={float(ta[outside][0])} "
                    f"outside [{t0}, {t1}]"
                )
            tc = np.clip(t, t0, t1)
            re = np.interp(tc, times, values.real)
            im = np.interp(tc, times, values.imag)
            return re + 1j * im if np.iscomplexobj(values) else re
        return f

    sched = CoefficientSchedule(
        alpha=_interp(alpha),
        beta=_interp(beta),
        delta=_interp(delta),
        family="tabulated",
        domain=(t0, t1),
    )
    sched.sample(times)
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
