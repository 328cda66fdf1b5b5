"""Per-stage pipeline accounting, as a thin view over the tracer.

Historical-attribution services serve this workload with precomputation
and caching; knowing *which* stage dominates is what makes that
precomputation targeted.  A :class:`PipelineStats` is threaded through
``build_datasets`` (and from there into the restoration and lifetime
builders); every stage records wall time and how many items it fanned
out over.  The CLI surfaces it via ``simulate --profile`` and the
scaling benchmark persists it to ``benchmarks/results/``.

Since the observability layer landed, :class:`PipelineStats` no longer
stores timings itself: every ``stage()`` block opens a span on an
underlying :class:`~repro.runtime.observability.Tracer` (kind
``"stage"``), ``note()`` doubles as a span annotation, and ``events``
*is* the tracer's event log.  The render/compare API is unchanged;
``stages`` is computed from the tracer's finished stage spans, so the
profile table and the exported JSON-lines trace can never disagree.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from .observability import MetricsRegistry, Span, Tracer, resolve_metrics

__all__ = ["StageTiming", "PipelineStats"]


def _human_bytes(n: int) -> str:
    """``4242`` → ``'4.1KiB'`` — compact payload sizes for the table."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{int(value)}B"  # pragma: no cover - unreachable


@dataclass
class StageTiming:
    """One stage's wall time and (optional) fan-out width/payload."""

    name: str
    seconds: float
    items: Optional[int] = None
    #: Total pickled payload bytes the stage's pool fan-outs shipped to
    #: workers (``None`` when the stage never crossed a process pool).
    bytes_shipped: Optional[int] = None

    def rate(self) -> Optional[float]:
        """Items per second, when both are known."""
        if self.items is None or self.seconds <= 0:
            return None
        return self.items / self.seconds


class PipelineStats:
    """Ordered per-stage timings of one pipeline run.

    Besides timings, a run accumulates :attr:`events` — the runtime's
    degradation log (cache quarantines, failed stores, worker-pool
    retries, serial fallback).  A clean run has an empty list; anything
    in it means the pipeline survived a fault and how.

    Parameters
    ----------
    tracer:
        The :class:`~repro.runtime.observability.Tracer` this object
        views; a fresh one is created when omitted.  ``stages`` and
        ``events`` are projections of its spans and event log.
    metrics:
        The :class:`~repro.runtime.observability.MetricsRegistry` the
        run aggregates into (default: the process-global registry).
    """

    def __init__(
        self,
        backend: str = "serial",
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.backend = backend
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = resolve_metrics(metrics)

    @property
    def stages(self) -> List[StageTiming]:
        """Finished stage spans, projected to the profile view."""
        return [
            StageTiming(
                name=span.name,
                seconds=span.seconds,
                items=span.items,
                bytes_shipped=span.attrs.get("bytes_shipped"),
            )
            for span in self.tracer.stage_spans()
        ]

    @property
    def events(self) -> List[str]:
        """The tracer's event log (the very list object, mutable)."""
        return self.tracer.events

    def note(self, message: str) -> None:
        """Record one runtime event (retry, quarantine, degradation)."""
        self.tracer.note(message)

    def drain_events_from(self, *sources: object) -> None:
        """Move the ``events`` logs of caches/executors into this run.

        The source log is snapshotted before extending and cleared
        afterwards, so a source reused across runs never re-reports old
        events — and draining a source that shares this run's event
        list (including this object itself) is a safe no-op instead of
        an unbounded self-extension.
        """
        own = self.events
        for source in sources:
            log = getattr(source, "events", None)
            if log is None or log is own:
                continue
            pending = [str(event) for event in log]
            if not pending:
                continue
            try:
                log.clear()
            except AttributeError:
                pass  # immutable source log: report it, cannot drain it
            for event in pending:
                self.note(event)

    @contextmanager
    def stage(
        self, name: str, items: Optional[int] = None, **attrs: object
    ) -> Iterator[Span]:
        """Time a stage; the yielded span can be given a late item count.

        Extra keyword attributes (component, engine, registry, ...)
        land on the stage's span and flow into the exported trace and
        the manifest's span digest.
        """
        span = self.tracer.start_span(name, kind="stage", items=items, **attrs)
        try:
            yield span
        finally:
            self.tracer.finish_span(span)
            self.metrics.observe(f"stage.{name}.seconds", span.seconds)

    def record(
        self, name: str, seconds: float, items: Optional[int] = None, **attrs: object
    ) -> Span:
        """Append an externally measured stage; returns its span so
        callers can attach late attributes (ledger summaries)."""
        span = self.tracer.record(name, seconds, kind="stage", items=items, **attrs)
        self.metrics.observe(f"stage.{name}.seconds", seconds)
        return span

    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def seconds_of(self, name: str) -> float:
        """Total wall time of every stage with this name."""
        return sum(s.seconds for s in self.stages if s.name == name)

    def as_dict(self) -> Dict[str, float]:
        """stage name → total seconds (stages repeating a name sum up)."""
        out: Dict[str, float] = {}
        for stage in self.stages:
            out[stage.name] = out.get(stage.name, 0.0) + stage.seconds
        return out

    def render(self) -> str:
        """Fixed-width table of stages, for terminals and result files."""
        stages = self.stages
        total = sum(stage.seconds for stage in stages)
        lines = [
            f"Pipeline profile ({self.backend} backend, {total:.3f}s total)",
            f"{'stage':<28} {'seconds':>9} {'share':>7} {'items':>8} {'shipped':>9}",
        ]
        for stage in stages:
            share = stage.seconds / total if total > 0 else 0.0
            items = "" if stage.items is None else str(stage.items)
            shipped = (
                "" if stage.bytes_shipped is None
                else _human_bytes(stage.bytes_shipped)
            )
            lines.append(
                f"{stage.name:<28} {stage.seconds:>9.3f} {share:>6.1%} "
                f"{items:>8} {shipped:>9}"
            )
        if self.events:
            lines.append(f"runtime events ({len(self.events)}):")
            lines.extend(f"  {event}" for event in self.events)
        return "\n".join(lines)

    def compare(
        self,
        baseline: "PipelineStats",
        *,
        label: str = "this",
        baseline_label: str = "baseline",
    ) -> str:
        """Side-by-side per-stage comparison against a baseline run.

        Stage names present in either run are listed (in first-seen
        order); the speedup column is baseline seconds over this run's
        seconds, so values above 1 mean this run is faster.  Used by
        the scaling benchmark to contrast backends stage by stage.
        """
        mine = self.as_dict()
        theirs = baseline.as_dict()
        names = list(dict.fromkeys(
            [s.name for s in self.stages] + [s.name for s in baseline.stages]
        ))
        lines = [
            f"{'stage':<28} {label:>10} {baseline_label:>10} {'speedup':>8}",
        ]
        for name in names:
            a = mine.get(name)
            b = theirs.get(name)
            a_txt = "" if a is None else f"{a:.3f}s"
            b_txt = "" if b is None else f"{b:.3f}s"
            if a and b:
                speedup = f"{b / a:>7.1f}x"
            else:
                speedup = ""
            lines.append(f"{name:<28} {a_txt:>10} {b_txt:>10} {speedup:>8}")
        total_a = self.total_seconds()
        total_b = baseline.total_seconds()
        speedup = f"{total_b / total_a:>7.1f}x" if total_a > 0 and total_b > 0 else ""
        lines.append(
            f"{'total':<28} {total_a:>9.3f}s {total_b:>9.3f}s {speedup:>8}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PipelineStats backend={self.backend} "
            f"stages={len(self.stages)} events={len(self.events)}>"
        )
