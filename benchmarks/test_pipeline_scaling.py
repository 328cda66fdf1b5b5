"""Pipeline runtime scaling: stage profile, backend speedup, cache speedup.

Unlike the other benchmarks (which regenerate paper tables/figures),
this one measures the *pipeline itself*: per-stage wall times under the
serial and process-pool backends, the serial/parallel speedup, and the
cold-build vs. warm-cache-hit speedup.  The numbers go to
``benchmarks/results/pipeline_scaling.txt``; the assertions pin the
determinism contract (backends agree exactly) and the cache's reason to
exist (a warm hit is an order of magnitude faster than a rebuild).
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.bgp import SyntheticBgpStream, sanitize
from repro.lifetimes.bgp import (
    activity_from_elements,
    build_bgp_lifetimes,
    build_operational_dataset,
)
from repro.runtime import (
    ArtifactCache,
    MetricsRegistry,
    PipelineStats,
    ledger_disabled,
)
from repro.simulation import bench, build_datasets
from repro.simulation.config import tiny
from repro.simulation.world import WorldSimulator

from conftest import CACHE_DIR


def _timed_build(**kwargs):
    start = perf_counter()
    bundle = build_datasets(bench(seed=2021), **kwargs)
    return bundle, perf_counter() - start


def test_pipeline_scaling(record_result):
    serial_stats = PipelineStats()
    serial_bundle, cold_seconds = _timed_build(stats=serial_stats)

    parallel_stats = PipelineStats()
    parallel_bundle, parallel_seconds = _timed_build(jobs=2, stats=parallel_stats)

    # determinism contract: the process-pool bundle matches serially
    # built output exactly, ordering included
    assert parallel_bundle.restored.stints == serial_bundle.restored.stints
    assert parallel_bundle.admin_lives == serial_bundle.admin_lives
    assert parallel_bundle.op_lives == serial_bundle.op_lives
    assert list(parallel_bundle.admin_lives) == list(serial_bundle.admin_lives)
    assert (
        parallel_bundle.restoration_report.summary()
        == serial_bundle.restoration_report.summary()
    )

    # every pipeline stage shows up in both profiles
    for name in ("simulate", "restore:per-registry", "admin-lifetimes",
                 "bgp-lifetimes"):
        assert serial_stats.seconds_of(name) > 0
        assert parallel_stats.seconds_of(name) > 0

    # warm-cache hit: ensure the entry exists, then time a pure hit.
    # A hit returns a partitioned bundle (components decode on first
    # access), so the hit itself costs file I/O, not graph rebuilding.
    cache = ArtifactCache(CACHE_DIR)
    build_datasets(bench(seed=2021), cache=cache)
    warm_stats = PipelineStats()
    _, warm_seconds = _timed_build(cache=cache, stats=warm_stats)
    assert cache.hits >= 1
    assert [s.name for s in warm_stats.stages] == ["cache:lookup"]
    cache_speedup = cold_seconds / warm_seconds
    assert cache_speedup >= 10, (
        f"warm cache hit only {cache_speedup:.1f}x faster than cold build "
        f"({warm_seconds:.3f}s vs {cold_seconds:.3f}s)"
    )

    # the descriptor fan-out must keep restore:views from regressing
    # under the pool (the pickled-view blowup the table engine removes);
    # small absolute floor so sub-100ms stages don't trip on noise
    serial_views = serial_stats.seconds_of("restore:views")
    parallel_views = parallel_stats.seconds_of("restore:views")
    assert parallel_views <= max(2 * serial_views, serial_views + 0.25), (
        f"restore:views regressed under the process pool: "
        f"{parallel_views:.3f}s with --jobs 2 vs {serial_views:.3f}s serial"
    )

    # Per-stage serial-vs-process deltas instead of one speedup
    # headline: on a 1-CPU host the single number is dominated by pool
    # overhead and reads as a global regression even when individual
    # fan-outs help.  A stage the pool actually hurt is named and
    # flagged; everything else speaks for itself.
    serial_by_stage = serial_stats.as_dict()
    parallel_by_stage = parallel_stats.as_dict()
    stage_lines = [
        f"{'stage':<28} {'serial':>9} {'jobs 2':>9} {'delta':>9}",
    ]
    for name in dict.fromkeys([*serial_by_stage, *parallel_by_stage]):
        a = serial_by_stage.get(name)
        b = parallel_by_stage.get(name)
        if a is None or b is None:
            continue
        flag = "  fanout-regressed" if b > a * 1.25 + 0.05 else ""
        stage_lines.append(
            f"{name:<28} {a:>8.3f}s {b:>8.3f}s {b - a:>+8.3f}s{flag}"
        )

    lines = [
        f"host CPUs: {os.cpu_count()} (parallel wins need real cores; "
        "on 1 CPU the pool only adds pickling overhead)",
        "",
        serial_stats.render(),
        "",
        parallel_stats.render(),
        "",
        "\n".join(stage_lines),
        "",
        f"{'cold build (serial)':<28} {cold_seconds:>9.3f}s",
        f"{'build with --jobs 2':<28} {parallel_seconds:>9.3f}s",
        f"{'warm cache hit':<28} {warm_seconds:>9.3f}s",
        f"{'cold/warm cache speedup':<28} {cache_speedup:>9.2f}x",
    ]
    record_result("pipeline_scaling", "\n".join(lines))


#: Restoration stages the delegation-table engine accelerates; the
#: table path pays ``restore:table`` on top, so the sum is the honest
#: cost either way (inter-rir and merge are shared code, excluded).
_RESTORE_STAGES = ("restore:table", "restore:views", "restore:per-registry")


def _restore_stage_seconds(stats: PipelineStats) -> float:
    return sum(stats.seconds_of(name) for name in _RESTORE_STAGES)


def test_restoration_scaling(record_result, tmp_path):
    """Delegation-table vs object restoration: speed and byte-identity.

    Four bench-scale builds — object and table engines, serial and
    ``--jobs 2`` — compared on output (must match exactly, ordering
    included) and on their restore-stage wall time.  Each build gets a
    private metrics registry: these are comparison rows, and the slow
    object-engine runs must not leak into the session's gated stage
    histograms.  The assertions pin the two ISSUE 7 claims: under a
    process pool the descriptor fan-out beats pickled views by a wide
    margin, and serially the table engine (container encode included)
    stays in the object engine's ballpark.
    """
    def build(**kwargs):
        stats = PipelineStats(metrics=MetricsRegistry())
        bundle = build_datasets(bench(seed=2021), stats=stats, **kwargs)
        return bundle, stats

    container = tmp_path / "bench.dtab"
    object_bundle, object_stats = build(restoration_engine="object")
    cold_bundle, cold_stats = build(
        restoration_engine="table", restoration_table=container
    )
    steady_bundle, steady_stats = build(
        restoration_engine="table", restoration_table=container
    )
    warm_bundle, warm_stats = build(
        restoration_engine="table", restoration_table=container, jobs=2
    )
    pobj_bundle, pobj_stats = build(restoration_engine="object", jobs=2)

    # engines and backends agree exactly, ordering included
    for bundle in (cold_bundle, steady_bundle, warm_bundle, pobj_bundle):
        assert bundle.restored.stints == object_bundle.restored.stints
        assert list(bundle.restored.stints) == list(object_bundle.restored.stints)
        assert bundle.admin_lives == object_bundle.admin_lives
        assert (
            bundle.restoration_report.summary()
            == object_bundle.restoration_report.summary()
        )

    # the cold run encodes + persists; the warm run memory-maps the
    # container and fans out (path, registry) descriptors
    spans = {s.name: s for s in cold_stats.tracer.spans}
    assert spans["restore:table"].attrs["source"] == "encoded"
    spans = {s.name: s for s in warm_stats.tracer.spans}
    assert spans["restore:table"].attrs["source"] == "mmap"
    assert spans["restore:table"].attrs["fanout"] == "path"

    object_t = _restore_stage_seconds(object_stats)
    cold_t = _restore_stage_seconds(cold_stats)
    steady_t = _restore_stage_seconds(steady_stats)
    warm_t = _restore_stage_seconds(warm_stats)
    pobj_t = _restore_stage_seconds(pobj_stats)
    pool_speedup = pobj_t / warm_t if warm_t > 0 else float("inf")
    assert pool_speedup >= 2.5, (
        f"table descriptor fan-out only {pool_speedup:.1f}x faster than "
        f"pickled object views under --jobs 2 ({warm_t:.3f}s vs {pobj_t:.3f}s)"
    )
    # steady state (container already on disk, zero-copy re-open) must
    # stay in the object engine's ballpark serially; the cold encode is
    # a one-time cost the cache amortizes, reported but not gated here
    assert steady_t <= 2.0 * object_t + 0.1, (
        f"table engine too slow serially: {steady_t:.3f}s warm mmap "
        f"vs {object_t:.3f}s object"
    )

    lines = [
        f"bench-scale restore stages (table+views+per-registry), "
        f"host CPUs: {os.cpu_count()}",
        f"{'object serial':<28} {object_t:>9.3f}s",
        f"{'table serial (cold encode)':<28} {cold_t:>9.3f}s",
        f"{'table serial (warm mmap)':<28} {steady_t:>9.3f}s",
        f"{'table jobs 2 (warm mmap)':<28} {warm_t:>9.3f}s",
        f"{'object jobs 2':<28} {pobj_t:>9.3f}s",
        f"{'pool speedup (table/object)':<28} {pool_speedup:>9.2f}x",
    ]
    record_result("restoration_scaling", "\n".join(lines))


#: Stages the columnar activity engine runs (segmentation and cache
#: I/O are excluded from the speedup: the oracle does neither).
_ACTIVITY_STAGES = ("bgp:stream", "bgp:sanitize", "bgp:visibility")


def _activity_stage_seconds(stats: PipelineStats) -> float:
    return sum(stats.seconds_of(name) for name in _ACTIVITY_STAGES)


def _oracle_tables(world, start, end):
    """The per-element oracle: sanitized object stream, day by day.

    Each day's elements are generated lazily inside
    :func:`activity_from_elements`, so the window's elements never
    coexist in memory.
    """
    stream = SyntheticBgpStream(
        world.topology, world.collectors, world.announcements_for_day
    )
    return activity_from_elements({
        day: sanitize(stream.elements_for_day(day))
        for day in range(start, end + 1)
    })


def test_bgp_activity_scaling(record_result, tmp_path):
    """Columnar BGP activity vs. the object-stream oracle: speed, identity.

    One tiny-scale world, one ~6-month window, both paths over the same
    days.  The assertions pin the engine's contract: its tables and
    lifetimes equal the oracle's; its stream+sanitize+visibility stages
    beat the oracle >= 3x; serial and ``jobs 2`` runs are
    byte-identical; and a warm activity-table cache hit skips the
    stream stages entirely.  The oracle is timed directly, so only the
    engine's own stages land in the session's gated stage histograms.
    """
    world = WorldSimulator(tiny(seed=2021)).run()
    end = world.config.end_day
    start = end - 179
    window = dict(start=start, end=end)
    days = end - start + 1

    t0 = perf_counter()
    oracle = _oracle_tables(world, start, end)
    oracle_seconds = perf_counter() - t0
    oracle_lives = build_bgp_lifetimes(oracle, end_day=end)

    serial_stats = PipelineStats()
    t0 = perf_counter()
    serial_lives, serial_tables = build_operational_dataset(
        world, stats=serial_stats, **window,
    )
    serial_seconds = perf_counter() - t0
    assert serial_tables == oracle
    assert serial_lives == oracle_lives
    assert list(serial_lives) == list(oracle_lives)

    # determinism: the jobs 2 cold build (which stores the cache entry)
    # equals the serial build exactly, ordering included
    cache = ArtifactCache(tmp_path / "cache", faults=None)
    pool_stats = PipelineStats()
    t0 = perf_counter()
    pool_lives, pool_tables = build_operational_dataset(
        world, cache=cache, executor=2, stats=pool_stats, **window,
    )
    pool_seconds = perf_counter() - t0
    assert pool_tables == serial_tables
    assert pool_lives == serial_lives
    assert list(pool_lives) == list(serial_lives)

    # warm activity-table hit: it must skip stream/sanitize/visibility
    warm_stats = PipelineStats()
    t0 = perf_counter()
    warm_lives, _ = build_operational_dataset(
        world, cache=cache, stats=warm_stats, **window,
    )
    warm_seconds = perf_counter() - t0
    assert cache.hits == 1
    assert [s.name for s in warm_stats.stages] == [
        "cache:lookup", "bgp:segment",
    ]
    assert warm_lives == serial_lives

    speedup = oracle_seconds / _activity_stage_seconds(serial_stats)
    assert speedup >= 3, (
        f"columnar stream+sanitize+visibility only {speedup:.1f}x faster "
        f"than the object-stream oracle over the same {days} days"
    )

    lines = [
        f"window: {days} days, {len(serial_tables)} active ASNs, "
        f"host CPUs: {os.cpu_count()}",
        "",
        pool_stats.compare(
            serial_stats, label="columnar jobs 2",
            baseline_label="columnar serial",
        ),
        "",
        f"{'object-stream oracle':<28} {oracle_seconds:>9.3f}s",
        f"{'columnar serial (cold)':<28} {serial_seconds:>9.3f}s",
        f"{'columnar jobs 2 (cold)':<28} {pool_seconds:>9.3f}s",
        f"{'warm activity-table hit':<28} {warm_seconds:>9.3f}s",
        f"{'stage speedup (col/oracle)':<28} {speedup:>9.2f}x",
        f"{'cold/warm cache speedup':<28} "
        f"{serial_seconds / warm_seconds:>9.2f}x",
    ]
    record_result("bgp_activity", "\n".join(lines))


def test_cache_verification_overhead(record_result, tmp_path):
    """Sha256 verification and ledger accounting each cost <= ~5% warm.

    The ISSUE 3 acceptance bound: checksum verification must be cheap
    enough to leave on by default.  Same world, same window, same warm
    activity-table entry — timed under ``verify="off"`` and
    ``verify="sha256"``, min-of-7 to shed scheduler noise.  The same
    bound prices the dataflow ledger: the warm path re-timed under
    :func:`ledger_disabled` must be within 5% of the default
    accounting-on run, or the conservation counters are too hot to
    leave enabled.
    """
    world = WorldSimulator(tiny(seed=2021)).run()
    end = world.config.end_day
    start = end - 179
    window = dict(start=start, end=end)

    # one shared entry directory, populated once
    seed_cache = ArtifactCache(tmp_path, faults=None)
    build_operational_dataset(world, cache=seed_cache, **window)

    def warm_seconds(verify: str) -> float:
        cache = ArtifactCache(tmp_path, verify=verify, faults=None)
        best = float("inf")
        for _ in range(7):
            t0 = perf_counter()
            lives, _ = build_operational_dataset(
                world, cache=cache, **window
            )
            best = min(best, perf_counter() - t0)
            assert lives  # every iteration is a real warm hit
        assert cache.hits == 7
        assert cache.corrupt == 0
        return best

    off_t = warm_seconds("off")
    sha_t = warm_seconds("sha256")
    # the warm path still runs bgp:segment, the ledger's hottest
    # boundary on a cache hit — time it with accounting suppressed
    with ledger_disabled():
        bare_t = warm_seconds("off")

    # 5% relative, plus a 2ms absolute floor so the bound is meaningful
    # even when the whole warm hit is sub-millisecond
    assert sha_t <= off_t * 1.05 + 0.002, (
        f"sha256 verification overhead too high: {sha_t:.4f}s verified "
        f"vs {off_t:.4f}s unverified"
    )
    assert off_t <= bare_t * 1.05 + 0.002, (
        f"ledger accounting overhead too high: {off_t:.4f}s with the "
        f"ledger vs {bare_t:.4f}s without"
    )

    overhead = (sha_t / off_t - 1.0) * 100.0
    ledger_overhead = (off_t / bare_t - 1.0) * 100.0
    lines = [
        "warm activity-table hit, min of 7 runs",
        f"{'verify=off, no ledger':<28} {bare_t:>9.4f}s",
        f"{'verify=off':<28} {off_t:>9.4f}s",
        f"{'verify=sha256':<28} {sha_t:>9.4f}s",
        f"{'verification overhead':<28} {overhead:>8.2f}%",
        f"{'ledger overhead':<28} {ledger_overhead:>8.2f}%",
    ]
    record_result("cache_verification_overhead", "\n".join(lines))
