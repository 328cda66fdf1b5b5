#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a repro checkout::

    python3 perfbench/run.py --workload pipeline-cold --seed 2021 --seconds 40 --trace 0

Workloads: ``pipeline-cold`` (the batch pipeline, cold and serial) and
``serve-query`` (closed-loop HTTP queries against ``repro serve`` in its
own process, over a store built by build + day-append).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones; a per-layer metric of a layer the
workload does not reach reads 0.  The last stdout line is the result
object; the line before it stamps the configuration.  Exits 1 when a
correctness check failed, 2 when not run from a checkout.

``--size smoke`` and ``--corrupt`` exist for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOADS = {
    "pipeline-cold": "pipeline_cold",
    "serve-query": "serve_query",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one output before it is checked")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a repro checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))

    from common import Context, base_stamp, emit

    module = importlib.import_module(WORKLOADS[args.workload])
    scratch = root / ".perfbench_work"
    ctx = Context(
        root=root, workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), size=args.size, corrupt=args.corrupt,
        work=scratch / f"{args.workload}-{os.getpid()}",
    )
    ctx.work.mkdir(parents=True)
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still works there

    failed = outcome.failed if outcome.failed is not None else len(outcome.failures)
    attempted = max(1, outcome.attempted)
    for message in outcome.failures:
        print(f"perfbench: {args.workload}: check failed: {message}", file=sys.stderr)

    if args.trace:
        declared = spec["per_layer"]
        produced = set(outcome.per_layer)
        if produced != set(module.LAYER_METRICS):
            raise RuntimeError(
                f"{args.workload} measured {sorted(produced ^ set(module.LAYER_METRICS))} "
                "against its LAYER_METRICS"
            )
        undeclared = produced - {m["name"] for m in declared}
        if undeclared:
            raise RuntimeError(f"metrics {sorted(undeclared)} are not in BENCHMARK.json")
        values = {m["name"]: outcome.per_layer.get(m["name"], 0.0) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = dict(outcome.end_to_end, ok_share=1.0 - failed / attempted)
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics {sorted(missing)} do not match BENCHMARK.json")

    emit({"config": dict(base_stamp(ctx), **outcome.config)})
    emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    })
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
