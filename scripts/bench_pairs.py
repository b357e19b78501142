#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized.

Runs ``bench/run.py`` in two source checkouts, a parent and a change, one
after the other for each workload and pair: the parent first in odd pairs
(1, 3, ...), the change first in even ones, so that a drift in host speed
falls on both sides alike.  Each run is a subprocess started in its own
checkout at ``--trace 0``; its result is the last line of its standard
output.  Prints, as JSON, the ``pairs`` block of a ``BENCH_*.json``: the
``runs`` of each side, their ``summary``, and each side's source size
``src_lines`` (the lines of ``src/parabose/*.py``).  For each end-to-end
metric of the repository's ``BENCHMARK.json`` (read, never written) the
summary also says by what share the change's median is worse than the
parent's, and whether that share is within the metric's bound.

    python3 scripts/bench_pairs.py PARENT CHANGE --workloads sweep figures \\
        --pairs 10 --seed 5 --seconds 8 > pairs.json
"""

import argparse
import json
import pathlib
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")
BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(checkout: pathlib.Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last stdout line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def src_lines(checkout: pathlib.Path) -> int:
    """The line count of ``src/parabose/*.py`` in ``checkout``, as
    ``cat src/parabose/*.py | wc -l`` counts it: its newline characters."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "parabose").glob("*.py"))


def end_to_end() -> dict:
    """The end-to-end metrics of the repository's ``BENCHMARK.json`` by
    name, each with its ``better`` direction and its ``bound``."""
    return {m["name"]: m
            for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def summarize(runs: dict, bounds: dict | None = None) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles
    (numpy percentile, linear), the pairs in which the change read lower,
    and the pair count; then the failed and attempted totals of each side
    and whether every run was correct.  ``runs`` maps a workload to
    {"parent": [result, ...], "change": [result, ...]}, pair i being the
    i-th result of each side.  For a metric in ``bounds`` (``end_to_end``)
    it adds ``worse_share``, the change median less the parent median over
    the parent median, signed so that worse is positive, and
    ``within_bound``, whether that share is at most the metric's bound."""
    summary, bounds = {}, bounds or {}
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        block = {}
        for metric in parent[0]["metrics"]:
            values = {side: np.array([r["metrics"][metric]["value"]
                                      for r in sides[side]]) for side in SIDES}
            entry = {}
            for side in SIDES:
                entry[f"{side}_median"] = float(np.median(values[side]))
                entry[f"{side}_quartiles"] = np.percentile(
                    values[side], [25, 75]).tolist()
            entry["change_lower_pairs"] = int(
                np.sum(values["change"] < values["parent"]))
            entry["pairs"] = len(parent)
            if metric in bounds:
                rule, parent_median = bounds[metric], entry["parent_median"]
                worse = (entry["change_median"] - parent_median) / parent_median
                if rule["better"] == "higher":
                    worse = -worse
                entry["worse_share"] = worse
                entry["within_bound"] = worse <= rule["bound"]
            block[metric] = entry
        for total in ("failed", "attempted"):
            block[total] = {side: sum(r[total] for r in sides[side])
                            for side in SIDES}
        block["all_correct"] = all(r["correct"] for r in parent + change)
        summary[workload] = block
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workloads", nargs="+", required=True,
                        choices=("figures", "sweep", "verify"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {}
    for workload in args.workloads:
        runs[workload] = {side: [] for side in SIDES}
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                result = run_once(checkouts[side], workload, args.seed,
                                  args.seconds)
                runs[workload][side].append(result)
                print(f"{workload} pair {pair} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4g}",
                      file=sys.stderr, flush=True)
    sizes = {side: src_lines(checkouts[side]) for side in SIDES}
    print(json.dumps({"summary": summarize(runs, end_to_end()),
                      "src_lines": sizes,
                      "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
