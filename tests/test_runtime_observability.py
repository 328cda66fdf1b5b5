"""Observability-layer tests: spans, metrics, manifests, event draining.

The contract under test is ISSUE 4's acceptance criterion: the span
tree of an instrumented run covers every profiled stage — including
worker-side spans merged back from the process pool — the run manifest
reproduces byte-identically for identical config and inputs, and
metric totals survive both the process-pool round trip and ambient
fault injection.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    RUN_MANIFEST_FORMAT,
    TRACE_FORMAT,
    FaultInjector,
    FaultSpec,
    MetricsRegistry,
    PipelineStats,
    ProcessPoolBackend,
    SerialExecutor,
    Tracer,
    build_run_manifest,
    get_metrics,
    write_run_manifest,
)
from repro.runtime.faults import from_env
from repro.simulation import build_datasets
from repro.simulation.config import tiny


def _double(x):
    return x * 2


def _double_with_metrics(x):
    get_metrics().inc("test.worker.calls")
    return x * 2


class TestSpanNesting:
    def test_spans_nest_under_opener(self):
        tracer = Tracer()
        with tracer.span("outer", kind="stage") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert tracer.current() is outer
        assert tracer.current() is tracer.root
        assert outer.parent_id == tracer.root.span_id

    def test_exception_closes_orphaned_children(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                tracer.start_span("orphan")  # never finished by its opener
                raise RuntimeError("stage blew up")
        # the outer finish popped the orphan off the stack
        assert tracer.current() is tracer.root

    def test_threads_build_disjoint_subtrees(self):
        tracer = Tracer()
        seen = {}

        def work(name):
            with tracer.span(name) as span:
                seen[name] = span

        threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.spans) == 4
        # none of the thread spans nested under another thread's span
        for span in tracer.spans:
            assert span.parent_id == tracer.root.span_id

    def test_trace_lines_have_header_and_root(self, tmp_path):
        tracer = Tracer(backend="serial")
        with tracer.span("simulate", kind="stage", items=10):
            pass
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["format"] == TRACE_FORMAT
        assert lines[0]["spans"] == len(lines) - 1
        assert lines[1]["kind"] == "root"
        assert lines[2]["name"] == "simulate"
        assert lines[2]["attrs"]["items"] == 10

    def test_note_logs_event_and_annotates_current(self):
        tracer = Tracer()
        with tracer.span("stage-x") as span:
            tracer.note("cache: quarantined entry")
        assert tracer.events == ["cache: quarantined entry"]
        assert span.annotations == ["cache: quarantined entry"]


class TestWorkerSpanMerging:
    def test_pool_spans_adopted_as_tasks(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        with ProcessPoolBackend(2, retries=1, backoff=0.0) as ex:
            ex.instrument(stats.tracer, stats.metrics)
            with stats.stage("fanout", items=6):
                assert ex.map(_double, [1, 2, 3, 4, 5, 6]) == [2, 4, 6, 8, 10, 12]
        task_spans = [s for s in stats.tracer.spans if s.kind == "task"]
        assert len(task_spans) == 6
        assert all(s.name == "task:_double" for s in task_spans)
        assert all(s.finished for s in task_spans)
        # worker spans nest under the stage span that was open at fan-out
        stage = next(s for s in stats.tracer.spans if s.kind == "stage")
        assert all(s.parent_id == stage.span_id for s in task_spans)

    def test_pool_spans_carry_worker_pids(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        with ProcessPoolBackend(2, retries=1, backoff=0.0) as ex:
            ex.instrument(stats.tracer, stats.metrics)
            ex.map(_double, list(range(8)))
        pids = {s.pid for s in stats.tracer.spans if s.kind == "task"}
        assert pids  # and at least some came from another process
        import os

        assert any(pid != os.getpid() for pid in pids)

    def test_worker_metrics_merge_additively(self):
        metrics = MetricsRegistry()
        stats = PipelineStats(metrics=metrics)
        with ProcessPoolBackend(2, retries=1, backoff=0.0) as ex:
            ex.instrument(stats.tracer, metrics)
            ex.map(_double_with_metrics, list(range(5)))
        assert metrics.snapshot()["counters"]["test.worker.calls"] == 5

    def test_serial_executor_spans_match_pool_shape(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        ex = SerialExecutor()
        ex.instrument(stats.tracer, stats.metrics)
        assert ex.map(_double, [1, 2]) == [2, 4]
        task_spans = [s for s in stats.tracer.spans if s.kind == "task"]
        assert [s.name for s in task_spans] == ["task:_double"] * 2

    def test_uninstrumented_pool_emits_no_spans(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        with ProcessPoolBackend(2, retries=1, backoff=0.0) as ex:
            assert ex.map(_double, [1, 2]) == [2, 4]
        assert stats.tracer.spans == []

    def test_determinism_contract_survives_instrumentation(self):
        plain = build_datasets(tiny(seed=5))
        stats = PipelineStats(metrics=MetricsRegistry())
        with ProcessPoolBackend(2, retries=1, backoff=0.0) as ex:
            traced = build_datasets(tiny(seed=5), executor=ex, stats=stats)
        assert traced.admin_lives == plain.admin_lives
        assert traced.op_lives == plain.op_lives


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("hits")
        metrics.inc("hits", 2)
        metrics.gauge("workers").set(4)
        metrics.observe("wall", 1.0)
        metrics.observe("wall", 3.0)
        snap = metrics.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["workers"] == 4
        from repro.runtime.observability import bucket_index

        assert snap["histograms"]["wall"] == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
            "buckets": {
                str(bucket_index(1.0)): 1, str(bucket_index(3.0)): 1,
            },
        }

    def test_merge_snapshot_adds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        b.observe("wall", 5.0)
        a.observe("wall", 1.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["n"] == 3
        assert snap["histograms"]["wall"]["count"] == 2
        assert snap["histograms"]["wall"]["max"] == 5.0

    def test_clear_is_in_place(self):
        metrics = MetricsRegistry()
        metrics.inc("n")
        counters = metrics.snapshot()["counters"]
        metrics.clear()
        assert metrics.snapshot()["counters"] == {}
        assert counters == {"n": 1}  # snapshots are copies, not views

    def test_stage_blocks_feed_histograms(self):
        metrics = MetricsRegistry()
        stats = PipelineStats(metrics=metrics)
        with stats.stage("simulate", items=3):
            pass
        hist = metrics.snapshot()["histograms"]["stage.simulate.seconds"]
        assert hist["count"] == 1


class TestBucketedHistograms:
    """The log-scaled bucket upgrade: additivity and the error bound."""

    # 1/64-granular values are binary fractions, so float sums are
    # exact and order-independent — "identical" below means ==, not
    # approximately equal.
    _values = st.lists(
        st.integers(min_value=1, max_value=2 ** 20).map(lambda k: k / 64),
        min_size=1,
        max_size=40,
    )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_values, min_size=1, max_size=5))
    def test_merging_worker_snapshots_matches_one_registry(self, worker_values):
        merged = MetricsRegistry()
        for values in worker_values:
            worker = MetricsRegistry()
            for value in values:
                worker.observe("wall", value)
            merged.merge_snapshot(worker.snapshot())
        single = MetricsRegistry()
        for value in (v for values in worker_values for v in values):
            single.observe("wall", value)
        summary = merged.snapshot()["histograms"]["wall"]
        expected = single.snapshot()["histograms"]["wall"]
        assert summary == expected  # buckets, count, sum, min, max, mean
        from repro.runtime.observability import quantile_from_buckets

        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert quantile_from_buckets(
                summary["buckets"], q, count=summary["count"],
                minimum=summary["min"], maximum=summary["max"],
            ) == quantile_from_buckets(
                expected["buckets"], q, count=expected["count"],
                minimum=expected["min"], maximum=expected["max"],
            )

    @settings(max_examples=60, deadline=None)
    @given(_values, st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_estimate_lands_in_the_exact_values_bucket(
        self, values, q
    ):
        from repro.runtime.observability import Histogram, bucket_index

        hist = Histogram()
        for value in values:
            hist.observe(value)
        exact = sorted(values)[
            max(0, min(len(values) - 1, round(q * (len(values) - 1))))
        ]
        # one-bucket-width error bound: the estimate shares the exact
        # nearest-rank value's bucket (clamping to min/max stays inside)
        assert bucket_index(hist.quantile(q)) == bucket_index(exact)


class TestAmbientFaultMetrics:
    """Metrics aggregation with REPRO_FAULT_SEED ambient injection on."""

    def test_injected_faults_counted(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULT_SEED", "2021")
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        monkeypatch.setenv("REPRO_FAULT_SITES", "cache:read")
        metrics = get_metrics()
        metrics.clear()
        from repro.runtime import ArtifactCache

        cache = ArtifactCache(tmp_path)
        assert cache.faults is from_env()
        key = cache.key_for(artifact="ambient")
        cache.store(key, {"x": 1})
        assert cache.load(key) is None  # injected read failure → miss
        snap = metrics.snapshot()
        assert snap["counters"]["faults.injected"] >= 1
        assert snap["counters"]["faults.cache:read.oserror"] >= 1
        assert snap["counters"]["cache.misses"] >= 1

    def test_fault_annotations_reach_trace(self, monkeypatch, tmp_path):
        """Closure: every fired fault appears as a span annotation."""
        injector = FaultInjector(
            [FaultSpec("cache:read", "oserror", max_fires=2)], seed=0
        )
        tracer = Tracer()
        detach = tracer.subscribe_faults(injector)
        try:
            from repro.runtime import ArtifactCache

            cache = ArtifactCache(tmp_path, faults=injector)
            key = cache.key_for(artifact="x")
            cache.store(key, {"x": 1})
            with tracer.span("cache:lookup", kind="stage") as span:
                assert cache.load(key) is None
        finally:
            detach()
        assert len(injector.events) >= 1
        fault_notes = [a for a in span.annotations if a.startswith("fault: ")]
        assert len(fault_notes) == len(injector.events)
        for event, note in zip(injector.events, fault_notes):
            assert f"site={event.site}" in note
            assert f"kind={event.kind}" in note

    def test_detach_stops_annotations(self, tmp_path):
        injector = FaultInjector(
            [FaultSpec("cache:read", "oserror", max_fires=None)], seed=0
        )
        tracer = Tracer()
        detach = tracer.subscribe_faults(injector)
        detach()
        with pytest.raises(OSError):
            injector.on_read(tmp_path / "x")
        assert tracer.root.annotations == []


class TestRunManifest:
    def _manifest(self, tmp_path, seed=7):
        stats = PipelineStats(metrics=MetricsRegistry())
        build_datasets(tiny(seed=seed), stats=stats)
        return build_run_manifest(
            config=tiny(seed=seed),
            settings={"bgp_engine": "columnar", "jobs": 1},
            stats=stats,
        )

    def test_manifest_is_byte_identical_across_runs(self, tmp_path):
        a = self._manifest(tmp_path)
        b = self._manifest(tmp_path)
        blob_a = json.dumps(a, sort_keys=True)
        blob_b = json.dumps(b, sort_keys=True)
        assert blob_a == blob_b
        assert a["digest"] == b["digest"]

    def test_manifest_written_files_are_identical(self, tmp_path):
        a = write_run_manifest(tmp_path / "a.json", self._manifest(tmp_path))
        b = write_run_manifest(tmp_path / "b.json", self._manifest(tmp_path))
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_distinguishes_configs(self, tmp_path):
        assert (
            self._manifest(tmp_path, seed=7)["digest"]
            != self._manifest(tmp_path, seed=8)["digest"]
        )

    def test_manifest_fields(self, tmp_path):
        manifest = self._manifest(tmp_path)
        assert manifest["format"] == RUN_MANIFEST_FORMAT
        assert manifest["config_hash"]
        assert manifest["cache_versions"]["pipeline"]
        assert manifest["backend"] == "serial"
        assert manifest["span_digest"]["sha256"]
        stage_names = [row["name"] for row in manifest["span_digest"]["stages"]]
        assert "simulate" in stage_names
        assert "assemble" in stage_names
        assert "generated_at" not in manifest  # timestamps are opt-in

    def test_clock_opt_in_excluded_from_digest(self, tmp_path):
        stats = PipelineStats(metrics=MetricsRegistry())
        with_clock = build_run_manifest(
            config=tiny(seed=1), stats=stats, clock=lambda: 1234.5
        )
        without = build_run_manifest(config=tiny(seed=1), stats=stats)
        assert with_clock["generated_at"] == 1234.5
        assert with_clock["digest"] == without["digest"]

    def test_git_describe_is_part_of_the_run_digest(self, monkeypatch):
        from repro.runtime import observability

        digests = []
        for label in ("1ac763b-dirty", None):
            monkeypatch.setattr(
                observability, "git_describe", lambda root=None, label=label: label
            )
            manifest = build_run_manifest(config=tiny(seed=1))
            assert manifest["git"] == (label or "unknown")
            digests.append(manifest["digest"])
        assert digests[0] != digests[1]

    def test_fault_injection_settings_captured(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "2021")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.1")
        monkeypatch.setenv("REPRO_FAULT_SITES", "cache:read,worker")
        manifest = build_run_manifest(config=None, stats=None)
        assert manifest["fault_injection"] == {
            "seed": 2021,
            "rate": 0.1,
            "sites": ["cache:read", "worker"],
        }
        monkeypatch.delenv("REPRO_FAULT_SEED")
        assert build_run_manifest()["fault_injection"] is None


class _LogSource:
    def __init__(self, events):
        self.events = list(events)


class TestDrainEvents:
    def test_drain_moves_and_clears(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        source = _LogSource(["cache: store failed"])
        stats.drain_events_from(source)
        assert stats.events == ["cache: store failed"]
        assert source.events == []

    def test_source_reused_across_runs_never_rereports(self):
        """Regression: a cache/executor reused across runs must not
        re-report run 1's events into run 2."""
        source = _LogSource(["event-from-run-1"])
        first = PipelineStats(metrics=MetricsRegistry())
        first.drain_events_from(source)
        source.events.append("event-from-run-2")
        second = PipelineStats(metrics=MetricsRegistry())
        second.drain_events_from(source)
        assert first.events == ["event-from-run-1"]
        assert second.events == ["event-from-run-2"]

    def test_drain_self_is_noop(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        stats.note("my own event")
        stats.drain_events_from(stats)  # events list is shared: must not loop
        assert stats.events == ["my own event"]

    def test_drain_shared_tracer_source_is_noop(self):
        tracer = Tracer()
        stats = PipelineStats(tracer=tracer, metrics=MetricsRegistry())
        stats.note("shared")
        stats.drain_events_from(tracer)  # same list object as stats.events
        assert stats.events == ["shared"]

    def test_drain_immutable_source_still_reports(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        stats.drain_events_from(_LogSource(()).__class__(("frozen",)))
        assert stats.events == ["frozen"]

    def test_drain_tuple_log_reported_not_cleared(self):
        class Frozen:
            events = ("tuple event",)

        stats = PipelineStats(metrics=MetricsRegistry())
        stats.drain_events_from(Frozen())
        assert stats.events == ["tuple event"]


class TestPipelineStatsView:
    def test_stages_project_tracer_spans(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        with stats.stage("simulate", items=100):
            pass
        stats.record("archive", 0.5, items=3)
        assert [s.name for s in stats.stages] == ["simulate", "archive"]
        assert stats.stages[0].items == 100
        assert stats.seconds_of("archive") == 0.5

    def test_late_item_count(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        with stats.stage("restore") as timing:
            timing.items = 42
        assert stats.stages[0].items == 42

    def test_render_and_compare_still_work(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        stats.record("simulate", 2.0, items=10)
        baseline = PipelineStats(metrics=MetricsRegistry())
        baseline.record("simulate", 4.0, items=10)
        assert "simulate" in stats.render()
        assert "2.0x" in stats.compare(baseline)

    def test_stage_attrs_flow_into_digest(self):
        stats = PipelineStats(metrics=MetricsRegistry())
        with stats.stage("bgp:segment", component="bgp", engine="columnar"):
            pass
        digest = stats.tracer.stage_digest()
        assert digest["stages"][0]["attrs"]["engine"] == "columnar"
