"""``pipeline-cold``: the batch job, built cold and serial.

One unit of work is ``build_datasets(bench(seed))`` with no executor
and no cache, followed by ``core.taxonomy.classify``.  It is the only
workload in which ``simulation``, ``rir``, ``restoration`` and
``lifetimes`` do the work; it never reaches ``bgp`` sanitize or
``serve``.

Builds repeat inside one process and the median is reported.  The
previous bundle is dropped and collected before each build: keeping it
alive made the next build about a quarter slower, which would measure
the allocator rather than the pipeline.
"""

from __future__ import annotations

import gc
import hashlib
import json
import subprocess
import sys
from time import perf_counter
from typing import Dict, List

from common import MIN_REPS, Context, Outcome, load_expected, median, overhead, peak_rss_mb_self

from repro.core.taxonomy import Category, classify
from repro.runtime import build_ledger, check_ledger, get_metrics
from repro.runtime.profiling import PipelineStats
from repro.simulation import WorldConfig, build_datasets

#: World scale per size; ``full`` is ``simulation.bench()``.
SCALES = {"full": 0.06, "smoke": 0.006}

#: Interpreter start-ups timed for ``setup_s``.
SETUP_REPS = 5

#: Modules a batch job imports before its first build.
IMPORTS = "import repro.simulation, repro.core.taxonomy, repro.runtime"

#: Stage span → per-layer metric (seconds).
STAGE_METRICS = {
    "simulate": "simulation.simulate_s",
    "archive": "rir.archive_s",
    "restore:table": "restoration.table_s",
    "restore:views": "restoration.views_s",
    "restore:per-registry": "restoration.per_registry_s",
    "restore:inter-rir": "restoration.inter_rir_s",
    "restore:merge": "restoration.merge_s",
    "admin-lifetimes": "lifetimes.admin_s",
    "bgp-lifetimes": "lifetimes.bgp_s",
}

LAYER_METRICS = tuple(STAGE_METRICS.values()) + (
    "restoration.restore_s",
    "core.classify_s",
    "simulation.asns",
    "rir.defects",
    "lifetimes.admin_lives",
    "lifetimes.op_lives",
    "trace.overhead_s",
)


def taxonomy_digest(taxonomy) -> str:
    """sha256 over the Table 3 rows: the pinned summary of a build."""
    rows = json.dumps(taxonomy.table3_rows(), separators=(",", ":"))
    return hashlib.sha256(rows.encode("utf-8")).hexdigest()


def _import_seconds(ctx: Context) -> float:
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORTS], env=ctx.child_env(), check=True,
        cwd=ctx.root,
    )
    return perf_counter() - t0


def run(ctx: Context) -> Outcome:
    scale = SCALES[ctx.size]
    config = WorldConfig(seed=ctx.seed, scale=scale)
    pinned = load_expected()["pipeline-cold"][ctx.size].get(str(ctx.seed))
    setup = [_import_seconds(ctx) for _ in range(SETUP_REPS)]

    failures: List[str] = []
    walls: Dict[bool, List[float]] = {False: [], True: []}
    layers: Dict[str, List[float]] = {name: [] for name in LAYER_METRICS}
    digests = set()
    reps = 0
    min_reps = MIN_REPS * (2 if ctx.trace else 1)
    previous = 0.0  # the last unit's wall: stop before one would overrun
    start = perf_counter()
    while reps < min_reps or perf_counter() - start + previous < ctx.seconds:
        # a traced run alternates untraced and traced builds, so the
        # difference of their medians prices the tracing itself
        traced = ctx.trace and reps % 2 == 1
        reps += 1
        gc.collect()
        get_metrics().clear()  # the ledger counters of this build only
        stats = PipelineStats() if traced else None
        t0 = perf_counter()
        bundle = build_datasets(config, stats=stats)
        t1 = perf_counter()
        taxonomy = classify(bundle.admin_lives, bundle.op_lives)
        t2 = perf_counter()
        walls[traced].append(t2 - t0)
        previous = t2 - t0

        if ctx.corrupt:
            taxonomy.admin_counts[Category.UNUSED] = (
                taxonomy.admin_counts.get(Category.UNUSED, 0) + 1
            )
        problems = check_ledger(build_ledger())
        expected_totals = (
            sum(len(lives) for lives in bundle.admin_lives.values()),
            sum(len(lives) for lives in bundle.op_lives.values()),
        )
        if taxonomy.totals() != expected_totals:
            problems.append(
                f"taxonomy totals {taxonomy.totals()} != lifetimes {expected_totals}"
            )
        digest = taxonomy_digest(taxonomy)
        digests.add(digest)
        if pinned is not None and digest != pinned:
            problems.append(f"taxonomy digest {digest[:12]} != pinned {pinned[:12]}")
        if problems:
            failures.append(f"build {reps}: " + "; ".join(problems))

        if traced:
            seconds = stats.as_dict()
            for stage, name in STAGE_METRICS.items():
                layers[name].append(seconds.get(stage, 0.0))
            layers["restoration.restore_s"].append(sum(
                value for stage, value in seconds.items()
                if stage.startswith("restore:")
            ))
            layers["core.classify_s"].append(t2 - t1)
            layers["simulation.asns"].append(len(bundle.world.ever_allocated()))
            layers["rir.defects"].append(len(bundle.injected_defects))
            layers["lifetimes.admin_lives"].append(expected_totals[0])
            layers["lifetimes.op_lives"].append(expected_totals[1])
        del bundle, taxonomy, stats

    if len(digests) > 1:
        failures.append(f"{len(digests)} different taxonomy digests in one run")
    per_layer: Dict[str, float] = {}
    if ctx.trace:
        for name, values in layers.items():
            if values:
                per_layer[name] = median(values)
        per_layer["trace.overhead_s"] = overhead(walls[False], walls[True])
    all_walls = walls[False] + walls[True]
    return Outcome(
        end_to_end={
            "setup_s": median(setup),
            "wall_s": median(walls[False] or all_walls),
            "peak_rss_mb": peak_rss_mb_self(),
        },
        per_layer=per_layer,
        attempted=reps + 1,
        failures=failures,
        config={
            "scale": scale,
            "builds": reps,
            "setup_reps": SETUP_REPS,
            "digest_pinned": pinned is not None,
            "wall_samples": [round(w, 4) for w in all_walls],
        },
    )
