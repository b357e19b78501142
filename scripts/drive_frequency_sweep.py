#!/usr/bin/env python3
"""Squeeze growth under a sinusoidally driven quadratic coefficient.

Sweeps the drive frequency of alpha(t) = A sin(w t) around twice the trap
frequency and records the squeeze magnitude reached after a fixed number of
trap periods, together with the conserved-quantity drift of the companion
Bogoliubov integration.  The resonance at w = 2 beta shows up as a sharp
peak in max |zeta|; runs that squeeze past the series-convergence guard are
reported as saturated.

Writes sweep rows to stdout or --out as CSV: w,max_abs_zeta,mu_drift,status,
once the whole sweep has run, so an error mid-sweep leaves no partial file.
"""

import argparse
import contextlib
import math
import sys

import numpy as np

from parabose.dynamics import solve_fg, solve_zeta_xi
from parabose.errors import IntegrationError
from parabose.schedules import sinusoidal_schedule


def sweep(amplitude: float, periods: int, points: int):
    t_final = periods * 2.0 * math.pi
    for w in np.linspace(1.0, 3.0, points):
        sched = sinusoidal_schedule(alpha_amp=amplitude, beta0=1.0, omega=w)
        try:
            traj = solve_zeta_xi(sched, 0.0, 0.5, t_final=t_final,
                                 dt=t_final / (4096 * periods))
            mi = solve_fg(sched, 1.0, 0.0, 0.0, t_final=t_final,
                          dt=t_final / (4096 * periods))
            yield w, float(np.max(np.abs(traj.zeta))), mi.mu_drift, "ok"
        except IntegrationError:
            yield w, 1.0, math.nan, "saturated"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--amplitude", type=float, default=0.05)
    parser.add_argument("--periods", type=int, default=8)
    parser.add_argument("--points", type=int, default=41)
    parser.add_argument("--out", default="-")
    args = parser.parse_args()
    rows = list(sweep(args.amplitude, args.periods, args.points))
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", encoding="utf-8")) as fh:
        fh.write("w,max_abs_zeta,mu_drift,status\n")
        for w, z, drift, status in rows:
            fh.write(f"{w:.12g},{z:.12g},{drift:.12g},{status}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
