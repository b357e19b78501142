"""The three workloads: figures, sweep and verify.

Each is a closed loop with one client: the next call goes out when the last
one returns.  A workload's constructor is its set-up (imports of the layers
it drives, input generation); ``run_round`` does its fixed unit of work once
and returns the durations of the operations in it; ``check`` inspects the
outputs of the last round.  The program is reached only through
``parabose.cli.main`` and the names in each module's ``__all__``.
"""

from __future__ import annotations

import contextlib
import io
import math
import pathlib
import sys
import time
import warnings

import numpy as np

import reference

FIGURE_JOBS = [
    ("svs_prob", "svs-prob"),
    ("cs_prob", "cs-prob"),
    ("density", "density"),
    ("weight", "weight"),
    ("oscillator", "oscillator"),
]
FIGURE_PASSES = 10  # one round; ~3.5 s, long enough to time as one unit

SWEEP_LEVELS = (0.5, 1.5, 2.5, 4.5, 6.5)
SWEEP_ZETA_BINS = 9      # |zeta| <= 0.8
SWEEP_XI_BINS = 3        # per level; staggered over the levels, |xi| <= 8
SWEEP_VACUA = 3          # xi = 0 states per level, ~10% of the set
SWEEP_JITTER = 0.05      # share of a bin by which magnitudes move with the seed
MPMATH_STATES = 6        # regular states per round whose amplitudes meet mpmath
MPMATH_INDICES = 12


class Figures:
    """The five published datasets through ``parabose.cli.main``, with the
    checked-in configs, as ``scripts/make_figure_data.py`` writes them.

    One op is one pass over the five commands; one round is FIGURE_PASSES
    passes.  The figure commands take no randomness, so the seed reaches
    them only as ``--seed``.
    """

    name = "figures"

    def __init__(self, root: pathlib.Path, seed: int, out: pathlib.Path):
        from parabose import cli
        self._main = cli.main
        self.configs = root / "configs"
        self.out = out
        self.argvs = [
            (command, [command, "--config", str(self.configs / f"fig_{job}.conf"),
                       "--out", str(out / job), "--seed", str(seed)])
            for job, command in FIGURE_JOBS
        ]
        self.attempted = 0
        self.failed = 0

    def run_round(self, tracer) -> list[float]:
        times = []
        for _ in range(FIGURE_PASSES):
            t0 = time.perf_counter()
            ok = True
            for command, argv in self.argvs:
                with tracer.span(f"cli.{command}"):
                    ok = self._main(argv) == 0 and ok
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            self.failed += not ok
        return times

    def probe_layers(self, tracer) -> None:
        """Direct ``probability_density`` calls on the four fig_density
        inputs, once per pass of the traced round."""
        from parabose.coordrep import default_grid, probability_density
        from parabose.fock import AlgebraParams
        from parabose.states import CsSpec
        conf = reference.read_conf(self.configs / "fig_density.conf")
        zeta, xi = reference.conf_zeta(conf), reference.conf_xi(conf)
        inputs = []
        for ell in conf["figure.ells"]:
            spec = CsSpec(zeta=zeta, xi=xi, epsilon=2 * ell + 0.5)
            params = AlgebraParams.from_ell(ell, length_scale=conf["algebra.l"])
            inputs.append((spec, params,
                           default_grid(params, spec,
                                        points=conf["figure.points"])))
        for _ in range(FIGURE_PASSES):
            with tracer.span("coordrep.probability_density"):
                for spec, params, grid in inputs:
                    probability_density(spec, params, grid)

    def check(self) -> list[str]:
        return reference.check_figures(self.out, self.configs)


def sweep_states(seed: int, deep: bool = False):
    """The seeded sweep set: (zeta, xi, epsilon, deep) tuples, in run order.

    Magnitudes sit on a fixed grid and move with the seed by SWEEP_JITTER of
    a bin; phases and order are drawn from the seed.  The truncation N, and
    so the work per state, depends on |zeta|, |xi|, the level and the
    relative phase arg(zeta) - 2 arg(xi), so that relative phase is
    stratified too: the work of a round stays nearly the same from seed to
    seed while every state differs.  With ``deep``, one deep-squeeze state,
    |zeta| ~ 0.9775, joins at a seeded place; it exercises the truncation
    scan at |zeta|^2 >= 0.95, a single call of ~10 s.
    """
    rng = np.random.default_rng(seed)

    def jitter():
        return SWEEP_JITTER * rng.uniform(-0.5, 0.5)

    states = []
    for i, eps in enumerate(SWEEP_LEVELS):
        level = []
        for k in range(SWEEP_VACUA):
            zeta_abs = 0.8 * (k + 0.5 + jitter()) / SWEEP_VACUA
            level.append((zeta_abs * np.exp(2j * np.pi * rng.uniform()), 0j, eps))
        n_xi = SWEEP_XI_BINS * len(SWEEP_LEVELS)
        for iz in range(SWEEP_ZETA_BINS):
            for ix in range(SWEEP_XI_BINS):
                zeta_abs = 0.8 * (iz + 0.5 + jitter()) / SWEEP_ZETA_BINS
                xi_abs = 8.0 * math.sqrt(
                    (len(SWEEP_LEVELS) * ix + i + 0.5 + jitter()) / n_xi)
                arg_zeta = 2.0 * np.pi * rng.uniform()
                relative = 2.0 * np.pi * (
                    (i + iz + ix) % 5 + 0.5 + jitter()) / 5
                arg_xi = (arg_zeta - relative) / 2 + np.pi * rng.integers(2)
                level.append((zeta_abs * np.exp(1j * arg_zeta),
                              xi_abs * np.exp(1j * arg_xi), eps))
        states.extend(level)
    order = rng.permutation(len(states))
    states = [(complex(z), complex(x), float(e), False)
              for z, x, e in (states[j] for j in order)]
    if not deep:
        return states
    deep_state = (
        complex(rng.uniform(0.977, 0.978) * np.exp(2j * np.pi * rng.uniform())),
        complex(rng.uniform(0.7, 0.8) * np.exp(2j * np.pi * rng.uniform())),
        0.5, True)
    states.insert(int(rng.integers(1, len(states))), deep_state)
    return states


class Sweep:
    """Full analysis of each state of the seeded set, one state per op.

    The deep-squeeze state joins only the traced round (``deep``): as one
    ~10 s call it took whatever speed the host had in those seconds, and
    so moved ``wall_s`` by up to 0.18 of its median from run to run.
    """

    name = "sweep"

    def __init__(self, root: pathlib.Path, seed: int, out: pathlib.Path,
                 deep: bool = False):
        from parabose import ParaBoseError, observables, states
        from parabose.fock import AlgebraParams
        self._errors = (ParaBoseError, ArithmeticError, ValueError,
                        RuntimeWarning)
        self._states, self._observables = states, observables
        self._params = AlgebraParams
        self.seed = seed
        self.inputs = sweep_states(seed, deep)
        self.records = []
        self.attempted = 0
        self.failed = 0

    def _analyse(self, tracer, zeta, xi, eps, deep, previous):
        st = self._states
        spec = st.CsSpec(zeta=zeta, xi=xi, epsilon=eps)
        with tracer.span("states.cs_amplitudes_deep" if deep
                         else "states.cs_amplitudes"):
            amps = st.cs_amplitudes(spec).amplitudes
        with tracer.span("states.cs_distribution"):
            dist = [st.cs_transition(zeta, xi, eps, n) for n in range(len(amps))]
        with tracer.span("states.svs_amplitudes"):
            svs = st.svs_amplitudes(st.SvsSpec(zeta=zeta, epsilon=eps)).amplitudes
        with tracer.span("states.svs_distribution"):
            column = [st.svs_transition(zeta, eps, n)
                      for n in range(len(svs) // 2)]
        with tracer.span("states.mean_reflection"):
            mean_r = st.mean_reflection(zeta, xi, eps)
        with tracer.span("observables.cs_moments"):
            moments = self._observables.cs_moments(
                spec, self._params(epsilon=eps))
        overlap = None
        if previous is not None:
            with tracer.span("states.cs_overlap"):
                overlap = st.cs_overlap(
                    st.CsSpec(zeta=previous["zeta"], xi=previous["xi"],
                              epsilon=eps), spec)
        return {"zeta": zeta, "xi": xi, "eps": eps, "deep": deep,
                "amps": amps, "dist": np.array(dist), "svs": svs,
                "svs_column": np.array(column), "mean_r": mean_r,
                "moments": moments, "overlap": overlap,
                "previous": previous}

    def run_round(self, tracer) -> list[float]:
        times, records, last_at_level = [], [], {}
        with warnings.catch_warnings():
            # a renormalisation or overflow warning marks a wrong result
            warnings.simplefilter("error", RuntimeWarning)
            for zeta, xi, eps, deep in self.inputs:
                previous = None if deep else last_at_level.get(eps)
                t0 = time.perf_counter()
                try:
                    with tracer.span("sweep.op"):
                        record = self._analyse(tracer, zeta, xi, eps, deep,
                                               previous)
                except self._errors as exc:
                    record = None
                    self.failed += 1
                    print(f"sweep op failed at zeta={zeta}, xi={xi}, "
                          f"eps={eps}: {exc!r}", file=sys.stderr)
                times.append(time.perf_counter() - t0)
                self.attempted += 1
                if record is not None:
                    records.append(record)
                    if not deep:
                        last_at_level[eps] = record
        self.records = records
        return times

    def truncation_sum(self) -> int:
        return sum(len(r["amps"]) for r in self.records)

    def check(self) -> list[str]:
        rng = np.random.default_rng(self.seed + 7919)
        regular = [i for i, r in enumerate(self.records) if not r["deep"]]
        picked = set(rng.choice(regular, size=min(MPMATH_STATES, len(regular)),
                                replace=False).tolist())
        problems = []
        for i, record in enumerate(self.records):
            indices = None
            if i in picked:
                size = len(record["amps"])
                head = list(range(min(size, MPMATH_INDICES)))
                tail = rng.choice(size, size=min(size, MPMATH_INDICES),
                                  replace=False).tolist()
                indices = sorted(set(head + tail))
            problems += reference.check_state(record, indices,
                                              self._common_truncation(record))
        return problems

    def _common_truncation(self, record):
        previous = record["previous"]
        if previous is None:
            return None
        size = max(len(previous["amps"]), len(record["amps"]))
        st = self._states
        return tuple(
            st.cs_amplitudes(st.CsSpec(zeta=r["zeta"], xi=r["xi"], epsilon=r["eps"]),
                             truncation=size).amplitudes
            for r in (previous, record))


class Verify:
    """``parabose verify`` through ``cli.main``; one op is one check row,
    one round is one pass.  The trace run calls each of
    ``verify.ALL_CHECKS`` directly instead, and adds the oracle and ODE
    probes that dominate the pass."""

    name = "verify"

    def __init__(self, root: pathlib.Path, seed: int, out: pathlib.Path):
        from parabose import cli
        self._main = cli.main
        self.seed = seed
        self.out = out
        self.argv = ["verify", "--seed", str(seed), "--out", str(out)]
        self.rows = []
        self.exit_code = None
        self.attempted = 0
        self.failed = 0

    def run_round(self, tracer) -> list[float]:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            self.exit_code = self._main(self.argv)
        elapsed = time.perf_counter() - t0
        self.rows = reference.read_verify_report(self.out / "verify_report.txt")
        counted = [status for status, _ in self.rows if status != "EXCL"]
        self.attempted += len(counted)
        self.failed += counted.count("FAIL")
        return [elapsed]

    def run_checks_direct(self, tracer) -> list[float]:
        from parabose import verify
        t0 = time.perf_counter()
        rows = []
        for check in verify.ALL_CHECKS:
            with tracer.span("verify.check") as span:
                result = check(np.random.default_rng(self.seed))
            span["name"] = "verify." + result.name.split(".", 1)[0]
            rows.append(("FAIL" if result.failed else "PASS", result.name))
        elapsed = time.perf_counter() - t0
        self.rows = rows
        self.exit_code = 1 if any(s == "FAIL" for s, _ in rows) else 0
        self.attempted += len(rows)
        self.failed += sum(s == "FAIL" for s, _ in rows)
        return [elapsed]

    def probe_layers(self, tracer) -> list[str]:
        """Oracle and ODE calls as the heaviest checks make them; returns
        the problems found in their outputs."""
        from parabose import oscillator, states
        from parabose.dynamics import solve_fg, solve_zeta_xi
        from parabose.fock import AlgebraParams, evolve_trajectory
        from parabose.schedules import constant_schedule, sinusoidal_schedule
        problems = []
        period = 2.0 * math.pi
        dt = period / 8192
        eps = 2.5
        sched = sinusoidal_schedule(alpha_amp=0.2, beta0=1.0, delta0=0.3)
        for _ in range(3):
            with tracer.span("dynamics.solve_zeta_xi"):
                traj = solve_zeta_xi(sched, 0.25, 0.6, t_final=period, dt=dt,
                                     epsilon=eps)
            with tracer.span("dynamics.solve_fg"):
                motion = solve_fg(sched, 1.0, 0.3, 0.0, t_final=period, dt=dt)
        problems += reference.check_mu(motion.f, motion.g)
        for t in traj.times[::32]:
            with tracer.span("dynamics.trajectory_at"):
                traj.at(float(t))
        psi0 = states.cs_amplitudes(
            states.cs_spec_from_params(traj.at(0.0), eps), truncation=96)
        with tracer.span("fock.evolve_trajectory_n96"):
            times, psis = evolve_trajectory(psi0, sched, period, dt,
                                            AlgebraParams(epsilon=eps),
                                            n_samples=8)
        analytic = [states.cs_amplitudes(
            states.cs_spec_from_params(traj.at(float(t)), eps),
            truncation=96).amplitudes for t in times]
        problems += reference.check_oracle("n96", analytic, psis, 1e-7)
        cfg = oscillator.OscillatorConfig(omega0=1.0, ell=2, zeta0=0.6,
                                          xi0=2.0 * np.exp(0.4j))
        psi0 = oscillator.cs_state(cfg, 0.0, truncation=256)
        with tracer.span("fock.evolve_trajectory_n256"):
            times, psis = evolve_trajectory(
                psi0, constant_schedule(0.0, 1.0, 0.0), cfg.period,
                cfg.period / 8192, cfg.algebra_params(), n_samples=16)
        analytic = [oscillator.cs_state(cfg, float(t), truncation=256).amplitudes
                    for t in times]
        problems += reference.check_oracle("n256", analytic, psis, 1e-7)
        return problems

    def check(self) -> list[str]:
        problems = []
        if self.exit_code != 0:
            problems.append(f"verify exited with {self.exit_code}")
        if not self.rows:
            problems.append("verify reported no rows")
        problems += [f"verify row failed: {name}"
                     for status, name in self.rows if status == "FAIL"]
        return problems


WORKLOADS = {cls.name: cls for cls in (Figures, Sweep, Verify)}
