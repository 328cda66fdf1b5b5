"""Pipeline runtime: execution backends, artifact caching, profiling.

The paper's real corpus (~930G RIB records, 107k ASNs over 6,350 days)
is processed once and then queried forever; this package gives the
reproduction pipeline the same operational shape.

* :mod:`repro.runtime.executor` — pluggable serial / process-pool
  backends with a determinism contract: parallel output is bit-identical
  to serial output.  Worker-pool failures are retried with backoff and
  can degrade to serial execution with identical results.
* :mod:`repro.runtime.cache` — content-addressed on-disk artifacts so
  an already-built world is loaded, not re-simulated; entries carry
  checksum manifests verified on load, and corrupt entries are
  quarantined, never trusted and never deleted blind.
* :mod:`repro.runtime.profiling` — per-stage wall time and fan-out
  width plus the runtime's degradation event log, surfaced through
  ``simulate --profile`` and the scaling benchmark.
* :mod:`repro.runtime.faults` — deterministic, seeded failure
  injection (torn writes, disk full, worker death, ...) so every
  failure mode the hardening claims to survive is provoked in tests
  and CI.
* :mod:`repro.runtime.ledger` — dataflow conservation accounting:
  every lossy boundary counts records in/kept/dropped-by-reason, a
  closure checker fails any stage where the books don't balance.
* :mod:`repro.runtime.inspect` — read-only consumers of the exported
  artifacts: span-tree rendering, flamegraph export, and cross-run
  diffing with cause attribution.
* :mod:`repro.runtime.runs` — append-only ``runs.jsonl`` registry so
  past runs are addressable by manifest-digest prefix.
* :mod:`repro.runtime.gcpause` — :func:`gc_paused`, the one way a
  batch stage suspends the cyclic garbage collector.
"""

from .cache import (
    ACTIVITY_TABLE_VERSION,
    MANIFEST_FORMAT,
    PIPELINE_VERSION,
    ArtifactCache,
    CacheError,
    CacheStoreError,
    cache_key,
    dumps_with_gc_paused,
    fingerprint,
    loads_with_gc_paused,
)
from .executor import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_RETRIES,
    PipelineExecutor,
    ProcessPoolBackend,
    SerialExecutor,
    WorkerPoolError,
    chunked,
    resolve_executor,
)
from .faults import (
    USE_ENV_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultSpec,
)
from .gcpause import gc_paused
from .inspect import (
    RunArtifacts,
    TraceView,
    critical_path,
    diff_runs,
    folded_stacks,
    load_run,
    load_trace,
    render_diff,
    render_trace,
)
from .ledger import (
    LEDGER_FORMAT,
    LedgerBoundary,
    boundary,
    build_ledger,
    check_ledger,
    ledger_disabled,
    ledger_enabled,
    load_ledger,
    record_boundary,
    render_ledger,
    set_ledger_enabled,
    write_ledger,
)
from .observability import (
    RUN_MANIFEST_FORMAT,
    TRACE_FORMAT,
    MetricsRegistry,
    Span,
    Tracer,
    build_run_manifest,
    get_metrics,
    git_describe,
    reset_metrics,
    write_bytes_atomic,
    write_json_atomic,
    write_jsonl_atomic,
    write_run_manifest,
)
from .profiling import PipelineStats, StageTiming
from .runs import (
    RUNS_FORMAT,
    RunLookupError,
    load_runs,
    record_run,
    resolve_run,
    run_path,
)

__all__ = [
    "RUN_MANIFEST_FORMAT",
    "TRACE_FORMAT",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "build_run_manifest",
    "get_metrics",
    "git_describe",
    "reset_metrics",
    "write_bytes_atomic",
    "write_json_atomic",
    "write_jsonl_atomic",
    "write_run_manifest",
    "PIPELINE_VERSION",
    "ACTIVITY_TABLE_VERSION",
    "MANIFEST_FORMAT",
    "ArtifactCache",
    "CacheError",
    "CacheStoreError",
    "cache_key",
    "dumps_with_gc_paused",
    "fingerprint",
    "loads_with_gc_paused",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_RETRIES",
    "PipelineExecutor",
    "ProcessPoolBackend",
    "SerialExecutor",
    "WorkerPoolError",
    "chunked",
    "resolve_executor",
    "USE_ENV_FAULTS",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "gc_paused",
    "PipelineStats",
    "StageTiming",
    "LEDGER_FORMAT",
    "LedgerBoundary",
    "boundary",
    "build_ledger",
    "check_ledger",
    "ledger_disabled",
    "ledger_enabled",
    "load_ledger",
    "record_boundary",
    "render_ledger",
    "set_ledger_enabled",
    "write_ledger",
    "RunArtifacts",
    "TraceView",
    "critical_path",
    "diff_runs",
    "folded_stacks",
    "load_run",
    "load_trace",
    "render_diff",
    "render_trace",
    "RUNS_FORMAT",
    "RunLookupError",
    "load_runs",
    "record_run",
    "resolve_run",
    "run_path",
]
