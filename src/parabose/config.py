"""Line-oriented scenario configuration.

A scenario file is ``key = value`` lines with ``#`` comments; the key set is
a closed schema and unknown keys are hard errors carrying the line number.
All numeric parsing is locale-independent (plain ``float``/``int``), and
every number must be finite: ``nan`` and ``inf`` are rejected by key, and
a count (samples, digits, nodes, points, n_max) below its least value as well.

Sections:
  algebra.*   level (epsilon or ell), length scale, hbar
  schedule.*  family plus constant/sinusoidal parameters or a CSV table path
  state.*     squeeze and displacement, rectangular or polar
  run.*       horizon, truncation override, sample count
  output.*    directory and emitted precision
  figure.*    sweep lists and grid sizes for the figure-data commands
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .fock import AlgebraParams
from .schedules import (
    CoefficientSchedule,
    constant_schedule,
    load_schedule_csv,
    sinusoidal_schedule,
)

__all__ = ["ScenarioConfig", "parse_scenario", "parse_value", "KEYS"]


def _parse_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _parse_int(text: str) -> int:
    v = _parse_float(text)
    if v != int(v):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(v)


def _parse_count(least: int):
    """Parser of an integer count of at least ``least``."""
    def parse(text: str) -> int:
        v = _parse_int(text)
        if v < least:
            raise ValueError(f"expected an integer >= {least}, got {text!r}")
        return v
    return parse


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in text.split(",") if p.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(p) for p in text.split(",") if p.strip())


# key -> (parser of its text, default); None means unset
KEYS = {
    "algebra.epsilon": (_parse_float, None),
    "algebra.ell": (_parse_int, None),
    "algebra.l": (_parse_float, 1.0),
    "algebra.hbar": (_parse_float, 1.0),
    "schedule.family": (str, "constant"),
    "schedule.alpha_re": (_parse_float, 0.0),
    "schedule.alpha_im": (_parse_float, 0.0),
    "schedule.beta": (_parse_float, 1.0),
    "schedule.delta": (_parse_float, 0.0),
    "schedule.alpha_amp_re": (_parse_float, 0.0),
    "schedule.alpha_amp_im": (_parse_float, 0.0),
    "schedule.beta_amp": (_parse_float, 0.0),
    "schedule.omega": (_parse_float, 1.0),
    "schedule.table": (str, ""),
    "state.zeta_re": (_parse_float, 0.0),
    "state.zeta_im": (_parse_float, 0.0),
    "state.zeta_abs": (_parse_float, None),
    "state.zeta_arg": (_parse_float, 0.0),
    "state.xi_re": (_parse_float, 0.0),
    "state.xi_im": (_parse_float, 0.0),
    "state.xi_abs": (_parse_float, None),
    "state.xi_arg": (_parse_float, 0.0),
    "run.t_final": (_parse_float, 2.0 * math.pi),
    "run.truncation": (_parse_int, None),
    "run.samples": (_parse_count(1), 32),
    "output.dir": (str, "out"),
    "output.digits": (_parse_count(1), 12),
    "figure.epsilons": (_parse_floats, (0.5, 2.5, 4.5, 6.5)),
    "figure.ells": (_parse_ints, (0, 1, 2, 3)),
    "figure.zetas": (_parse_floats, (0.0, 0.25, 0.5, 0.75)),
    "figure.n_max": (_parse_count(0), 40),
    "figure.r_max": (_parse_float, 0.99),
    "figure.nodes": (_parse_count(1), 400),
    "figure.points": (_parse_count(16), 2048),
}

_FAMILIES = ("constant", "sinusoidal", "tabulated")


def parse_value(key: str, text: str, where: str = "<override>"):
    if key not in KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return KEYS[key][0](text.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.values:
            if key not in KEYS:
                raise ConfigError(f"unknown key {key!r}")
        merged = {key: default for key, (_, default) in KEYS.items()}
        merged.update(self.values)
        object.__setattr__(self, "values", merged)
        family = merged["schedule.family"]
        if family not in _FAMILIES:
            raise ConfigError(
                f"schedule.family must be one of {_FAMILIES}, got {family!r}"
            )

    def __getitem__(self, key: str):
        return self.values[key]

    def with_overrides(self, pairs: list[str]) -> "ScenarioConfig":
        """Apply ``key=value`` strings on top of this configuration."""
        updated = dict(self.values)
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} is not key=value")
            key, _, text = pair.partition("=")
            key = key.strip()
            updated[key] = parse_value(key, text, where=f"--set {pair!r}")
        return ScenarioConfig(values=updated)

    # -- resolved physics objects --------------------------------------

    def epsilon(self) -> float:
        eps, ell = self["algebra.epsilon"], self["algebra.ell"]
        if eps is None:
            return 0.5 if ell is None else AlgebraParams.from_ell(ell).epsilon
        if ell is not None and AlgebraParams(epsilon=eps).ell != ell:
            raise ConfigError(
                f"algebra.epsilon={eps} conflicts with algebra.ell={ell}"
            )
        return float(eps)

    def algebra_params(self) -> AlgebraParams:
        return AlgebraParams(epsilon=self.epsilon(),
                             length_scale=self["algebra.l"],
                             hbar=self["algebra.hbar"])

    def zeta0(self) -> complex:
        if self["state.zeta_abs"] is not None:
            return cmath.rect(self["state.zeta_abs"], self["state.zeta_arg"])
        return complex(self["state.zeta_re"], self["state.zeta_im"])

    def xi0(self) -> complex:
        if self["state.xi_abs"] is not None:
            return cmath.rect(self["state.xi_abs"], self["state.xi_arg"])
        return complex(self["state.xi_re"], self["state.xi_im"])

    def schedule(self) -> CoefficientSchedule:
        family = self["schedule.family"]
        alpha = complex(self["schedule.alpha_re"], self["schedule.alpha_im"])
        if family == "constant":
            return constant_schedule(alpha, self["schedule.beta"],
                                     self["schedule.delta"])
        if family == "sinusoidal":
            amp = complex(self["schedule.alpha_amp_re"],
                          self["schedule.alpha_amp_im"])
            return sinusoidal_schedule(
                alpha0=alpha, alpha_amp=amp, beta0=self["schedule.beta"],
                beta_amp=self["schedule.beta_amp"],
                delta0=self["schedule.delta"], omega=self["schedule.omega"])
        if not self["schedule.table"]:
            raise ConfigError("schedule.family=tabulated needs schedule.table")
        return load_schedule_csv(self["schedule.table"])


def parse_scenario(text: str, source: str = "<config>") -> ScenarioConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        values[key] = parse_value(key, val, where=f"{source}:{lineno}")
    return ScenarioConfig(values=values)
