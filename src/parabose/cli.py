"""Command-line front end: figure data, oracle dumps, verification.

Every figure command writes CSV (comma separated, LF endings, header row,
UTF-8) with values at a fixed significant-digit precision, so identical
configuration and seed give byte-identical output.  Every emitted file (each
CSV, each gnuplot script, verify_report.txt) is written atomically: a temp
file beside it is renamed into place.  One command per published figure:

  svs-prob    number-state distribution of the squeezed vacuum per level
  cs-prob     number-state distribution of the coherent state per level
  density     coordinate probability density per angular index
  weight      completeness weight curve
  oscillator  trajectory and stationary distribution of the oscillator
  evolve      analytic state against the integration oracle
  verify      full invariant suite (nonzero exit on any failure)
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import states
from .completeness import weight
from .config import ScenarioConfig, parse_scenario
from .coordrep import default_grid, probability_density
from .dynamics import DEFAULT_STEPS, apply_A, solve_fg, solve_zeta_xi
from .errors import ConfigError, ParaBoseError
from .fock import TAIL_WIDTH, AlgebraParams, evolve_trajectory
from .observables import cs_moments, uncertainty_products
from .oscillator import OscillatorConfig, closed_form_parameters, \
    mean_trajectories, stationary_transition
from .states import CsSpec, cs_amplitudes, cs_transition, svs_transition

__all__ = ["main"]


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _write(directory: str, name: str, text: str) -> None:
    """directory/name holds text or is untouched: a temp file beside it is
    renamed into place, and unlinked on any failure."""
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(directory, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: ScenarioConfig, args, stem: str, columns: dict) -> None:
    """stem.csv in output.dir from header -> column, every value at
    output.digits significant digits; with --plot-script, stem.gp beside it."""
    directory = cfg["output.dir"]
    line = ",".join([f"%.{cfg['output.digits']}g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist()
                 for c in columns.values()))
    _write(directory, f"{stem}.csv",
           ",".join(columns) + "\n" + "".join(line % row for row in rows))
    if args.plot_script:
        _write(directory, f"{stem}.gp", "\n".join([
            "set datafile separator ','",
            "set key autotitle columnhead",
            f"set title '{stem}'",
            "plot " + ", ".join(
                f"'{stem}.csv' using 1:{i} with linespoints"
                for i in range(2, len(columns) + 1)),
        ]) + "\n")


def _load_config(args) -> ScenarioConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_scenario(fh.read(), source=args.config)
    else:
        cfg = ScenarioConfig()
    if args.set:
        cfg = cfg.with_overrides(args.set)
    if args.out:
        cfg = cfg.with_overrides([f"output.dir={args.out}"])
    return cfg


def cmd_svs_prob(cfg: ScenarioConfig, args) -> int:
    zeta = cfg.zeta0()
    ns = range(cfg["figure.n_max"] + 1)
    if not zeta:
        ns = ns[:1]  # zero squeeze: every later line vanishes identically
    for eps in cfg["figure.epsilons"]:
        _emit(cfg, args, f"svs_prob_eps{eps:g}",
              {"n": ns, "P2n": [svs_transition(zeta, eps, n) for n in ns]})
    return 0


def cmd_cs_prob(cfg: ScenarioConfig, args) -> int:
    zeta, xi = cfg.zeta0(), cfg.xi0()
    ns = range(cfg["figure.n_max"] + 1)
    for eps in cfg["figure.epsilons"]:
        _emit(cfg, args, f"cs_prob_eps{eps:g}",
              {"n": ns, "Pn": [cs_transition(zeta, xi, eps, n) for n in ns]})
    return 0


def cmd_density(cfg: ScenarioConfig, args) -> int:
    zeta, xi = cfg.zeta0(), cfg.xi0()
    base = cfg.algebra_params()
    for ell in cfg["figure.ells"]:
        params = AlgebraParams.from_ell(ell, length_scale=base.length_scale,
                                        hbar=base.hbar)
        spec = CsSpec(zeta=zeta, xi=xi, epsilon=params.epsilon)
        grid = default_grid(params, spec, points=cfg["figure.points"])
        wg = probability_density(spec, params, grid)
        _emit(cfg, args, f"density_ell{ell}",
              {"x": wg.x_values, "psi_re": wg.psi_values.real,
               "psi_im": wg.psi_values.imag, "rho": wg.rho_values})
    return 0


def cmd_weight(cfg: ScenarioConfig, args) -> int:
    levels = [e for e in cfg["figure.epsilons"] if e > 1.0]
    if not levels:
        eps = cfg.epsilon()
        if eps <= 1.0:
            raise ParaBoseError(
                "weight needs a level above 1 (figure.epsilons or "
                "algebra.epsilon)")
        levels = [eps]
    r = np.linspace(0.0, cfg["figure.r_max"], cfg["figure.nodes"])
    for eps in levels:
        _emit(cfg, args, f"weight_eps{eps:g}", {"r": r, "w": weight(eps, r)})
    return 0


def cmd_oscillator(cfg: ScenarioConfig, args) -> int:
    ell = cfg.algebra_params().ell
    if ell is None:
        raise ParaBoseError("oscillator needs an integer level: set algebra.ell")
    omega0 = cfg["schedule.beta"]
    base = OscillatorConfig(omega0=omega0, ell=ell, zeta0=cfg.zeta0(),
                            xi0=cfg.xi0(), l=cfg["algebra.l"],
                            hbar=cfg["algebra.hbar"])
    params = base.algebra_params()
    times = np.linspace(0.0, cfg["run.t_final"], cfg["run.samples"] + 1)
    rows = []
    for t in times:
        x_m, p_m = mean_trajectories(base, float(t))
        p = closed_form_parameters(base, float(t))
        m = cs_moments(CsSpec(zeta=p.zeta, xi=p.xi, epsilon=params.epsilon),
                       params)
        rows.append((float(t), x_m, p_m, m.sigma_x, m.sigma_p,
                     *uncertainty_products(p.zeta, m.mean_r, params)))
    _emit(cfg, args, "oscillator_trajectory", dict(zip(
        ("t", "x_mean", "p_mean", "sigma_x", "sigma_p", "heis", "sr"),
        zip(*rows))))
    ns = range(cfg["figure.n_max"] + 1)
    for z0 in cfg["figure.zetas"]:
        sweep = OscillatorConfig(omega0=omega0, ell=ell, zeta0=z0,
                                 xi0=cfg.xi0(), l=params.length_scale,
                                 hbar=params.hbar)
        _emit(cfg, args, f"oscillator_prob_zeta{z0:g}",
              {"n": ns, "Pn": [stationary_transition(sweep, n) for n in ns]})
    return 0


def cmd_evolve(cfg: ScenarioConfig, args) -> int:
    params = cfg.algebra_params()
    sched = cfg.schedule()
    zeta0, xi0 = cfg.zeta0(), cfg.xi0()
    t_final, n_samples = cfg["run.t_final"], cfg["run.samples"]
    if n_samples < 1:
        raise ConfigError("run.samples must be >= 1")
    # parameter grids at least DEFAULT_STEPS fine that hold every oracle sample
    dt = t_final / (n_samples * math.ceil(DEFAULT_STEPS / n_samples))
    traj = solve_zeta_xi(sched, zeta0, xi0, t_final=t_final, dt=dt,
                         epsilon=params.epsilon)
    spec0 = CsSpec(zeta=zeta0, xi=xi0, epsilon=params.epsilon)
    truncation = cfg["run.truncation"]
    if truncation is None:
        # room beyond the analytic tail for the oracle's boundary check
        truncation = cs_amplitudes(spec0).truncation + 2 * TAIL_WIDTH
    psi0 = cs_amplitudes(spec0, truncation=truncation)
    times, psis = evolve_trajectory(psi0, sched, t_final, dt, params,
                                    n_samples=n_samples)
    mi = solve_fg(sched, 1.0, zeta0, 0.0, t_final=t_final, dt=dt)
    rows = []
    for t, psi in zip(times, psis):
        p = traj.at(float(t))
        ana = cs_amplitudes(states.cs_spec_from_params(p, params.epsilon),
                            truncation=psi0.truncation)
        fid = abs(complex(np.vdot(ana.amplitudes, psi)))
        eig = float(np.linalg.norm(apply_A(mi, float(t), params, psi) - xi0 * psi))
        norm_err = abs(float(np.vdot(psi, psi).real) - 1.0)
        rows.append((float(t), fid, eig, norm_err))
    _emit(cfg, args, "evolve_oracle", dict(zip(
        ("t", "fidelity", "eigen_residual", "norm_error"), zip(*rows))))
    return 0


def cmd_verify(cfg: ScenarioConfig, args) -> int:
    # imported here so that the figure commands do not load the suite
    from . import verify
    digits = cfg["output.digits"]
    results = verify.run_all(args.seed, cfg.epsilon())
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = {"pass": "PASS", "fail": "FAIL", "excluded": "EXCL"}[r.status]
        lines.append(
            f"{status} {r.name:<{width}} residual {_fmt(r.residual, digits)}"
            f" tolerance {_fmt(r.tolerance, digits)}"
            + (f"  [{r.note}]" if r.note else ""))
    n_fail = sum(1 for r in results if r.failed)
    n_excl = sum(1 for r in results if r.status == "excluded")
    lines.append(f"checks {len(results)} failed {n_fail} excluded {n_excl}")
    report = "\n".join(lines)
    print(report)
    _write(cfg["output.dir"], "verify_report.txt", f"report\n{report}\n")
    return 1 if n_fail else 0


_COMMANDS = {
    "svs-prob": cmd_svs_prob,
    "cs-prob": cmd_cs_prob,
    "density": cmd_density,
    "weight": cmd_weight,
    "oscillator": cmd_oscillator,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; each parse_args call
    starts from a fresh namespace, and append copies its default list."""
    parser = argparse.ArgumentParser(
        prog="parabose",
        description="Generalized para-Bose state toolkit: figure data, "
                    "oracle comparisons and the invariant suite.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="scenario file (key = value lines)")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override a scenario key")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized property checks")
        p.add_argument("--plot-script", action="store_true",
                       help="emit a gnuplot script beside each CSV")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ParaBoseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
