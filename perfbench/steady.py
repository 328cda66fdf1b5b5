#!/usr/bin/env python3
"""Steadiness check: run each workload in two interleaved sets.

Usage, from the root of a repro checkout::

    python3 perfbench/steady.py --runs 10 [--workloads serve-query,...] [--seconds 20]

Runs ``perfbench/run.py`` ``--runs`` times per set, alternating set A
and set B, with seeds 1..N in both sets.  For every end-to-end metric it
prints each set's median and quartiles, the spread (Q3 - Q1) / median,
and the gap between the two sets' medians, each against the metric's
bound from BENCHMARK.json.  Exits 1 when a spread or gap exceeds its bound, or a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from common import median, quartiles


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: run failed ({proc.returncode})")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets: List[List[Dict[str, float]]] = [[], []]
        for i in range(args.runs):
            for which in (0, 1):
                sets[which].append(run_once(workload, i + 1, args.seconds))
        print(f"\n{workload}: {args.runs} runs per set, {args.seconds}s each")
        print(f"{'metric':<12} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'gap':>7} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [[run[name] for run in runs] for runs in sets]
            medians = [median(v) for v in values]
            gap = abs(medians[1] - medians[0]) / medians[0]
            for which, label in ((0, "A"), (1, "B")):
                q1, med, q3 = quartiles(values[which])
                spread = (q3 - q1) / med
                held = spread <= bound
                verdict = "ok" if held else "SPREAD"
                if held and spread > bound / 3:
                    verdict = "ok (above bound/3)"
                if which == 1 and gap > bound:
                    verdict += " GAP"
                ok = ok and held and not (which == 1 and gap > bound)
                print(f"{name:<12} {label:<3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {gap if which else 0:>7.3f} {bound:>6.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
