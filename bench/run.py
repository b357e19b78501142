#!/usr/bin/env python3
"""Benchmark of the parabose figure CLI, state sweeps and ``verify``.

    python3 bench/run.py --workload figures|sweep|verify --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats whole rounds of the workload's fixed work until
``--seconds`` have passed, checks the outputs of the last round, and prints
one JSON object as its last line of standard output.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` runs one traced round of every
workload plus the layer probes and gives the per-layer metrics, with the
spans written to ``.bench_out/trace-<workload>.jsonl``.
"""

import os

# One thread for every BLAS, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORT_MODULES = {
    "parabose": "parabose",
    "cli": "parabose.cli",
    "config": "parabose.config",
    "states": "parabose.states",
    "observables": "parabose.observables",
    "coordrep": "parabose.coordrep",
    "completeness": "parabose.completeness",
    "oscillator": "parabose.oscillator",
    "fock": "parabose.fock",
    "dynamics": "parabose.dynamics",
    "verify": "parabose.verify",
    "scipy.integrate": "scipy.integrate",
    "scipy.special": "scipy.special",
}
VERIFY_PREFIXES = ("algebra", "dynamics", "states", "observables", "coordrep",
                   "completeness", "oscillator")
# per-layer metric -> (span name, unit, scale to that unit), median per span
SPAN_METRICS = {
    "cli.svs-prob_ms": ("cli.svs-prob", "ms", 1e3),
    "cli.cs-prob_ms": ("cli.cs-prob", "ms", 1e3),
    "cli.density_ms": ("cli.density", "ms", 1e3),
    "cli.weight_ms": ("cli.weight", "ms", 1e3),
    "cli.oscillator_ms": ("cli.oscillator", "ms", 1e3),
    "coordrep.probability_density_ms": ("coordrep.probability_density", "ms", 1e3),
    "states.cs_amplitudes_ms": ("states.cs_amplitudes", "ms", 1e3),
    "states.cs_amplitudes_deep_ms": ("states.cs_amplitudes_deep", "ms", 1e3),
    "states.cs_distribution_ms": ("states.cs_distribution", "ms", 1e3),
    "states.svs_amplitudes_us": ("states.svs_amplitudes", "us", 1e6),
    "states.svs_distribution_us": ("states.svs_distribution", "us", 1e6),
    "states.cs_overlap_ms": ("states.cs_overlap", "ms", 1e3),
    "states.mean_reflection_us": ("states.mean_reflection", "us", 1e6),
    "observables.cs_moments_us": ("observables.cs_moments", "us", 1e6),
    "fock.evolve_trajectory_n96_ms": ("fock.evolve_trajectory_n96", "ms", 1e3),
    "fock.evolve_trajectory_n256_ms": ("fock.evolve_trajectory_n256", "ms", 1e3),
    "dynamics.solve_zeta_xi_ms": ("dynamics.solve_zeta_xi", "ms", 1e3),
    "dynamics.solve_fg_ms": ("dynamics.solve_fg", "ms", 1e3),
    "dynamics.trajectory_at_us": ("dynamics.trajectory_at", "us", 1e6),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p)
    return env


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def environment() -> dict:
    import numpy
    import scipy
    blas = (numpy.show_config(mode="dicts").get("Build Dependencies", {})
            .get("blas", {}))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: what a run does before its first op."""
    from workloads import WORKLOADS
    WORKLOADS[workload](ROOT, seed, OUT / f"setup-{workload}")
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of process start to ready-to-run."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return statistics.median(samples)


def import_times() -> dict:
    """Cumulative import time of each module, ``python -X importtime``."""
    statement = "import " + ", ".join(
        ["parabose.cli", "parabose.verify", "scipy.integrate", "scipy.special"])
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", statement],
                              capture_output=True, text=True, env=_child_env(),
                              cwd=ROOT, timeout=120, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, module = (part.strip() for part in
                                  line[len("import time:"):].split("|"))
                if cum.isdigit():
                    cumulative[module] = int(cum)
        for name, module in IMPORT_MODULES.items():
            samples[name].append(cumulative[module] / 1e3)
    return {f"import.{name}_ms": _metric(statistics.median(v), "ms")
            for name, v in samples.items()}


def run_untraced(name: str, seed: int, seconds: float, out: pathlib.Path):
    """Times at the reference host speed (``hostspeed``), from a kernel
    burst before and after every round; the raw times go to the result
    file.  Set-up and the op median are scaled by all the bursts."""
    import hostspeed
    from tracing import NullTracer
    from workloads import WORKLOADS
    setup_raw = measure_setup(name, seed)
    workload = WORKLOADS[name](ROOT, seed, out)
    tracer = NullTracer()
    bursts = [hostspeed.burst()]
    rounds, rounds_raw, ops = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        ops += workload.run_round(tracer)
        rounds_raw.append(time.perf_counter() - t0)
        bursts.append(hostspeed.burst())
        rounds.append(rounds_raw[-1] * hostspeed.scale(bursts[-2] + bursts[-1]))
    run_scale = hostspeed.scale([t for b in bursts for t in b])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.check()
    print(f"{name}: {len(rounds)} rounds, {len(ops)} timed ops, "
          f"{workload.attempted} attempted, host scale {run_scale:.3f}",
          file=sys.stderr)
    metrics = {
        "wall_s": _metric(statistics.median(rounds), "s"),
        "op_p50_ms": _metric(statistics.median(ops) * run_scale * 1e3, "ms"),
        "setup_s": _metric(setup_raw * run_scale, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    raw = {"wall_s": statistics.median(rounds_raw),
           "op_p50_ms": statistics.median(ops) * 1e3, "setup_s": setup_raw,
           "host_scale": run_scale,
           "host_samples": sum(len(b) for b in bursts)}
    return workload.attempted, workload.failed, problems, metrics, raw


def run_traced(name: str, seed: int, out: pathlib.Path):
    """One traced round of each workload, then the layer probes."""
    from tracing import Tracer
    from workloads import Figures, Sweep, Verify
    tracer = Tracer()
    figures = Figures(ROOT, seed, out / "figures")
    sweep = Sweep(ROOT, seed, out / "sweep", deep=True)
    verify = Verify(ROOT, seed, out / "verify")
    walls = {}
    for workload, work in ((figures, figures.run_round),
                           (sweep, sweep.run_round),
                           (verify, verify.run_checks_direct)):
        with tracer.span(f"round.{workload.name}") as span:
            work(tracer)
        walls[workload.name] = span["end"] - span["start"]
    figures.probe_layers(tracer)
    problems = verify.probe_layers(tracer)
    metrics = {key: _metric(tracer.median(span, scale), unit)
               for key, (span, unit, scale) in SPAN_METRICS.items()}
    metrics["states.truncation_sum"] = _metric(sweep.truncation_sum(), "count")
    for prefix in VERIFY_PREFIXES:
        metrics[f"verify.{prefix}_s"] = _metric(
            tracer.total(f"verify.{prefix}", 1.0), "s")
    metrics.update(import_times())
    metrics["trace.wall_s"] = _metric(walls[name], "s")
    for workload in (figures, sweep, verify):
        problems += workload.check()
    tracer.write(OUT / f"trace-{name}.jsonl")
    return (sum(w.attempted for w in (figures, sweep, verify)),
            sum(w.failed for w in (figures, sweep, verify)), problems, metrics,
            {})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "sweep", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "parabose" / "__init__.py").is_file():
        print(f"error: no parabose source under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    out = OUT / args.workload
    shutil.rmtree(OUT, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        attempted, failed, problems, metrics, raw = run_traced(
            args.workload, args.seed, out)
    else:
        attempted, failed, problems, metrics, raw = run_untraced(
            args.workload, args.seed, args.seconds, out)
    for problem in problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}.json").write_text(
        json.dumps({"environment": env, "raw": raw, **result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
