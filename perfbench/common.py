"""Shared pieces of the benchmark: timing statistics, process
accounting, the run context and the configuration stamp.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Every workload repeats its unit of work at least this often, even
#: when ``--seconds`` runs out first, so a median always has company.
MIN_REPS = 3

#: World seed of ``serve-query``'s store.  At scale 0.01 worlds differ
#: so much that the store build plus append took 3.3 s on one seed and
#: 5.4 s on another, and query latency moved with them, which would
#: swamp any change.  So the store keeps one world and ``--seed``
#: chooses the window and the query plan.
SERVE_WORLD_SEED = 2021

#: The store's window ends up to this many days before the world's end.
WINDOW_SPREAD_DAYS = 90


def window_end(world_end: int, seed: int) -> int:
    """The last day of the store's window for ``seed``."""
    return world_end - random.Random(seed).randrange(WINDOW_SPREAD_DAYS)


@dataclass
class Context:
    """What one benchmark invocation was asked to do."""

    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    corrupt: bool
    work: Path

    def child_env(self) -> Dict[str, str]:
        """Environment for child Python processes: the checkout's
        sources first, unbuffered output (the parent reads lines)."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        return env


@dataclass
class Outcome:
    """What a workload measured and checked."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Failed operations, when one failure message can stand for many.
    failed: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return [only, only, only]
    return [float(q) for q in statistics.quantiles(values, n=4)]


def peak_rss_mb_self() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size of a live child process (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_seconds_of(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        stat = handle.read()
    # the command name may hold spaces; fields resume after its ')'
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def usable_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


def git_revision(root: Path) -> str:
    """HEAD's commit when the checkout is a git work tree, else
    ``"unknown"`` (benchmark checkouts are usually plain trees)."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="ascii").strip()
        if text.startswith("ref: "):
            return (root / ".git" / text[5:]).read_text(encoding="ascii").strip()
        return text
    except OSError:
        return "unknown"


def base_stamp(ctx: Context) -> Dict[str, Any]:
    """The configuration every result is keyed by."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "size": ctx.size,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": git_revision(ctx.root),
        "jobs": 1,
        "cache": "none",
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def emit(line: Dict[str, Any]) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def load_expected() -> Dict[str, Any]:
    """The pinned reference outputs (``expected.json``)."""
    path = Path(__file__).resolve().parent / "expected.json"
    return json.loads(path.read_text(encoding="utf-8"))


def overhead(untraced: Sequence[float], traced: Sequence[float]) -> Optional[float]:
    """Traced minus untraced median, when both sides were sampled."""
    if not untraced or not traced:
        return None
    return median(traced) - median(untraced)
