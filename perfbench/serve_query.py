"""``serve-query``: the serve tier's read path, out of process.

Untimed, ``ingest.py`` builds the store over a seed-chosen window of
the serve world by build + append and checks it against a rebuild.
Then ``repro serve`` runs in its own process, and ``query_client.py``
replays a ``plan_queries`` plan (default zipf mix)
over two keep-alive connections as a closed loop, the way a bulk-join
client waits for each reply.  Server and generator are pinned to
different CPUs when there are two, so the generator's own work does not
queue in front of the server's.  This is the only workload in which
``serve.http``, ``serve.index`` and ``serve.telemetry`` do the work; its
timed phase runs no ``bgp``, ``restoration`` or ``simulation`` code
(``server.stage_s`` shows it).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep
from typing import Optional, Tuple

import ingest
from common import (
    SERVE_WORLD_SEED,
    Context,
    Outcome,
    median,
    peak_rss_mb_of,
    usable_cpus,
    window_end,
)

from repro.simulation import WorldConfig, build_datasets

#: (world scale, window days, appended days, queries per batch,
#: minimum queries).  Sanitize cost grows faster than linearly with
#: scale: one store build takes about 2 s at 0.01 and 8.5 s at 0.02.
SIZES = {
    "full": (0.01, 120, 2, 10_000, 50_000),
    "smoke": (0.006, 30, 2, 1_000, 2_000),
}

#: Keep-alive connections of the closed loop.
CONNECTIONS = 2

#: Server start-ups timed for ``setup_s``; the last one serves the load.
SERVER_LAUNCHES = 3

#: Access-log size past which the server would rotate it; above what a
#: traced run writes, so one file holds the whole load.
ACCESS_LOG_MAX_BYTES = 1 << 30

#: Seconds a server may take to announce its port and answer /healthz.
START_TIMEOUT = 60.0

LAYER_METRICS = ingest.LAYER_METRICS + (
    "http.request_us.p50",
    "http.request_us.p99",
    "http.handler_us.p50",
    "http.transport_us.p50",
    "index.open_s",
    "server.stage_s",
    "index.lives_us",
    "index.taxonomy_us",
    "index.as_of_us",
    "index.range_us",
    "encode.point_us",
    "encode.range_us",
    "http.resp_bytes.point",
    "http.resp_bytes.range",
    "telemetry.record_us",
    "loadgen.cpu_share",
    "server.cpu_share",
    "loadgen.saturated",
    "query.qps",
    "query.p99_ms",
    "query.samples",
    "trace.overhead_s",
)

_URL = re.compile(r"http://([^:/\s]+):(\d+)")


def _launch(
    ctx: Context, store: Path, cpu: Optional[int], access_log: Optional[Path] = None
) -> Tuple[subprocess.Popen, int, float]:
    """Start ``repro serve``, logging every request to ``access_log`` if
    given; returns (process, port, seconds from the launch until
    ``/healthz`` answered 200)."""
    command = [sys.executable, "-m", "repro.cli", "serve", "--store", str(store), "--port", "0"]
    if access_log is not None:
        command += ["--access-log", str(access_log), "--log-max-bytes", str(ACCESS_LOG_MAX_BYTES)]
    t0 = perf_counter()
    server = subprocess.Popen(
        command,
        cwd=ctx.root, env=ctx.child_env(), stdout=subprocess.PIPE,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None,
    )
    try:
        ready, _, _ = select.select([server.stdout], [], [], START_TIMEOUT)
        line = server.stdout.readline().decode("utf-8") if ready else ""
        match = _URL.search(line)
        if match is None:
            raise RuntimeError(f"server did not announce its address: {line!r}")
        port = int(match.group(2))
        while perf_counter() - t0 < START_TIMEOUT:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return server, port, perf_counter() - t0
            except OSError:
                sleep(0.005)
            finally:
                conn.close()
        raise RuntimeError("server never answered /healthz")
    except BaseException:
        _stop(server)
        raise


def _stop(server: subprocess.Popen) -> None:
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    server.stdout.close()


def run(ctx: Context) -> Outcome:
    scale, window, days, batch, min_queries = SIZES[ctx.size]
    bundle = build_datasets(WorldConfig(seed=SERVE_WORLD_SEED, scale=scale))
    last = window_end(bundle.world.config.end_day, ctx.seed)
    store = ctx.work / "store"
    checks, failures, layers = ingest.build_by_append(
        store, ctx.work, bundle.world, bundle.admin_lives, last - window + 1, last, days,
        trace=ctx.trace, corrupt=ctx.corrupt,
    )
    del bundle

    cpus = usable_cpus()
    server_cpu, client_cpu = (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)
    # a traced run's serving launch logs every request: the exact source
    # of the server-side per-request times
    access_log = ctx.work / "access.jsonl" if ctx.trace else None
    setup = []
    for launch in range(SERVER_LAUNCHES):
        serving = launch == SERVER_LAUNCHES - 1
        server, port, seconds = _launch(ctx, store, server_cpu, access_log if serving else None)
        setup.append(seconds)
        if not serving:
            _stop(server)
    try:
        command = [
            sys.executable, str(Path(__file__).resolve().parent / "query_client.py"),
            "--port", str(port), "--store", str(store), "--server-pid", str(server.pid),
            "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
            "--batch", str(batch), "--min-queries", str(min_queries),
            "--connections", str(CONNECTIONS), "--trace", str(int(ctx.trace)),
        ]
        if client_cpu is not None:
            command += ["--cpu", str(client_cpu)]
        if access_log is not None:
            command += ["--access-log", str(access_log)]
        if ctx.corrupt:
            command.append("--corrupt")
        client = subprocess.run(
            command, cwd=ctx.root, env=ctx.child_env(), stdout=subprocess.PIPE,
            text=True, timeout=ctx.seconds + 120, check=True,
        )
        report = json.loads(client.stdout.strip().splitlines()[-1])
        server_rss = peak_rss_mb_of(server.pid)
    finally:
        _stop(server)

    if report["saturated"]:
        print(
            f"serve-query: generator CPU share {report['loadgen_cpu_share']:.2f} "
            "is at saturation; this run's query rate measures the generator",
            file=sys.stderr,
        )
    return Outcome(
        end_to_end={
            "setup_s": median(setup),
            "wall_s": report["p50_s"],
            "peak_rss_mb": server_rss,
        },
        per_layer=dict(layers, **report.get("layers", {})),
        attempted=checks + report["attempted"],
        failed=len(failures) + report["failed"],
        failures=failures + report["failures"],
        config={
            "scale": scale,
            "world_seed": SERVE_WORLD_SEED,
            "window_end": last,
            "window_days": window,
            "append_days": days,
            "queries": report["sent"],
            "batches": report["batches"],
            "connections": CONNECTIONS,
            "loop": "closed",
            "server_cpu": server_cpu,
            "client_cpu": client_cpu,
            "server_launches": SERVER_LAUNCHES,
            "qps": report["qps"],
            "p99_ms": report["p99_ms"],
            "loadgen_cpu_share": report["loadgen_cpu_share"],
            "server_cpu_share": report["server_cpu_share"],
            "saturated": "generator" if report["saturated"] else None,
            "p50_us_samples": report["p50_us_samples"],
        },
    )
