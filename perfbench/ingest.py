"""The serve tier's write path, run untimed before ``serve-query``.

The store that ``serve-query`` serves is made the way a live service
makes it: ``serve.store.build_store`` over the window minus its last
``days`` days, then ``serve.append.append_days(days)``.  The result must
equal a full rebuild of the whole window: same snapshot digest, same
shard sha256s, on disk too.

A traced run reports the write path's layers from this one build:
``bgp`` sanitize is most of both steps, and the append re-sanitizes the
base announcements, which is why ``bgp.append_base_s`` is timed apart.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from common import fresh_dir

from repro.bgp.activity import ActivityEngine, schedule_from_world
from repro.runtime.observability import MetricsRegistry
from repro.runtime.profiling import PipelineStats
from repro.serve.append import append_days
from repro.serve.store import INDEX_NAME, MANIFEST_NAME, build_store

#: Stage span → per-layer metric (seconds).
STAGE_METRICS = {
    "bgp:stream": "bgp.stream_s",
    "bgp:sanitize": "bgp.sanitize_s",
    "bgp:visibility": "bgp.visibility_s",
    "bgp:segment": "bgp.segment_s",
    "serve:assemble": "serve.assemble_s",
    "serve:publish": "serve.publish_s",
    "serve:append": "serve.append_s",
}

LAYER_METRICS = tuple(STAGE_METRICS.values()) + (
    "ingest.build_s",
    "ingest.append_s",
    "bgp.append_schedule_s",
    "bgp.append_base_s",
    "bgp.append_changes_s",
    "bgp.elements",
    "bgp.contributions",
    "bgp.append_base_announcements",
    "serve.shards_published",
    "serve.bytes_written",
)


def _identity(doc: Dict) -> Dict:
    """What must match between an appended store and a rebuild."""
    return {
        "digest": doc["digest"],
        "shards": [(row["name"], row["sha256"]) for row in doc["shards"]],
    }


def _disk_problems(store: Path, reference: Dict) -> List[str]:
    """Shard files on disk against the rebuild's recorded sha256s."""
    problems = []
    for name, sha in reference["shards"]:
        actual = hashlib.sha256((store / name).read_bytes()).hexdigest()
        if actual != sha:
            problems.append(f"{name} on disk has sha256 {actual[:12]}, rebuild {sha[:12]}")
    return problems


def _engine_slice(world, old_end: int, new_end: int, min_corroboration: int):
    """The append's activity step, called piece by piece: (schedule,
    base, changes) seconds and the number of base announcements."""
    t0 = perf_counter()
    schedule = schedule_from_world(world, old_end, new_end)
    t1 = perf_counter()
    engine = ActivityEngine(
        world.topology, list(world.collectors), min_corroboration=min_corroboration
    )
    engine.apply(old_end, Counter(dict(schedule.base)))
    t2 = perf_counter()
    for day, added, removed in schedule.changes:
        engine.apply(day, Counter(dict(added)), Counter(dict(removed)))
    engine.finish(new_end)
    t3 = perf_counter()
    return t1 - t0, t2 - t1, t3 - t2, len(schedule.base)


def build_by_append(
    store: Path, work: Path, world, admin_lives, start: int, end: int, days: int,
    *, trace: bool, corrupt: bool,
) -> Tuple[int, List[str], Dict[str, float]]:
    """Build ``store`` over ``[start, end]`` by build + append.

    Returns (checks made, failure messages, per-layer metrics when
    ``trace``).
    """
    old_end = end - days
    stats = PipelineStats(metrics=MetricsRegistry())
    t0 = perf_counter()
    built = build_store(store, world, admin_lives, start=start, end=old_end, stats=stats)
    t1 = perf_counter()
    appended = append_days(store, world, days, stats=stats)
    t2 = perf_counter()

    rebuild = fresh_dir(work / "rebuild")
    reference = _identity(build_store(rebuild, world, admin_lives, start=start, end=end))
    failures = []
    if _identity(appended) != reference:
        failures.append("appended store's index differs from the rebuild's")
    shard = store / reference["shards"][0][0]
    original = shard.read_bytes()
    if corrupt:  # flip one byte for the check, then put it back to serve
        blob = bytearray(original)
        blob[len(blob) // 2] ^= 0x01
        shard.write_bytes(bytes(blob))
    problems = _disk_problems(store, reference)
    if corrupt:
        shard.write_bytes(original)
    if problems:
        failures.append("appended store on disk: " + "; ".join(problems))

    layers: Dict[str, float] = {}
    if trace:
        seconds = stats.as_dict()
        for stage, name in STAGE_METRICS.items():
            layers[name] = seconds.get(stage, 0.0)
        counters = stats.metrics.snapshot()["counters"]
        layers["bgp.elements"] = float(counters.get("bgp.elements", 0))
        layers["bgp.contributions"] = float(counters.get("bgp.contributions", 0))
        layers["serve.shards_published"] = float(sum(
            span.attrs.get("published", 0)
            for span in stats.tracer.stage_spans()
            if span.name == "serve:publish"
        ))
        names = [row["name"] for row in appended["shards"]] + [INDEX_NAME, MANIFEST_NAME]
        layers["serve.bytes_written"] = float(sum((store / n).stat().st_size for n in names))
        layers["ingest.build_s"] = t1 - t0
        layers["ingest.append_s"] = t2 - t1
        schedule_s, base_s, changes_s, base_count = _engine_slice(
            world, old_end, end, built["meta"]["min_corroboration"]
        )
        layers["bgp.append_schedule_s"] = schedule_s
        layers["bgp.append_base_s"] = base_s
        layers["bgp.append_changes_s"] = changes_s
        layers["bgp.append_base_announcements"] = float(base_count)
    return 2, failures, layers
