#!/usr/bin/env python3
"""Show that the figures and sweep output checks catch a wrong result.

    python3 bench/selftest.py        (from the root of a source checkout)

Runs a figures round and a cut-down sweep round twice: as shipped, where
the checks must pass, and with the program's own mutation hook
``parabose.states.set_sabotage(True)`` (a flipped sign in the
squeezed-vacuum transition law), where both must report failures.  Exits 0
when all four outcomes are as expected.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pathlib  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path.cwd()
SWEEP_STATES = 30  # regular states, ~3 of them at xi = 0


def outcomes(sabotage: bool) -> dict:
    from parabose import states
    from tracing import NullTracer
    from workloads import Figures, Sweep
    out = ROOT / ".bench_out" / "selftest"
    figures = Figures(ROOT, 0, out / "figures")
    sweep = Sweep(ROOT, 0, out / "sweep")
    sweep.inputs = sweep.inputs[:SWEEP_STATES]
    states.set_sabotage(sabotage)
    try:
        for workload in (figures, sweep):
            workload.run_round(NullTracer())
    finally:
        states.set_sabotage(False)
    return {"figures": figures.check(), "sweep": sweep.check()}


def main() -> int:
    if not (ROOT / "src" / "parabose" / "__init__.py").is_file():
        print("error: run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(pathlib.Path(__file__).resolve().parent)]
    clean, mutated = outcomes(False), outcomes(True)
    ok = True
    for name in ("figures", "sweep"):
        print(f"{name}: {len(clean[name])} problems as shipped, "
              f"{len(mutated[name])} under sabotage")
        for problem in mutated[name][:3]:
            print(f"  e.g. {problem}")
        ok = ok and not clean[name] and bool(mutated[name])
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
