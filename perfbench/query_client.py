"""The load-generator process of the ``serve-query`` workload.

Replays one ``serve.loadgen.plan_queries`` plan against a ``repro
serve`` process as a closed loop (each connection waits for its reply)
in batches through ``run_load_checked``, until ``--seconds`` have passed
and at least ``--min-queries`` were sent.  Then, outside the timed
batches, it checks the server's answers against ``StoreIndex`` results
computed in this process, and with ``--trace 1`` times the layers the
server's requests pass through, reading the server's per-request times
from its access log.  The last stdout line is one JSON
object; ``serve_query.py`` reads it.

Run by ``serve_query.py``, not by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import random
import sys
from collections import Counter
from time import perf_counter, perf_counter_ns, process_time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from common import cpu_seconds_of, median

from repro.runtime.observability import OVERFLOW_BUCKET, MetricsRegistry, quantile_from_buckets
from repro.serve.http import route_template
from repro.serve.index import StoreIndex
from repro.serve.loadgen import (
    QueryPlan,
    _data_route,
    _percentile,
    plan_queries,
    run_load,
    run_load_checked,
)
from repro.serve.telemetry import ServerTelemetry, le_label, parse_exposition
from repro.timeline.dates import from_iso

#: Response bodies fetched again, one by one, and compared byte for
#: byte with directly encoded ``StoreIndex`` results.
SAMPLE_BODIES = 200

#: ``StoreIndex.open`` repetitions timed for ``index.open_s``.
OPEN_REPS = 3

#: Generator CPU share from which a run is flagged: the generator, not
#: the server, may be what limits the closed loop.
SATURATED_SHARE = 0.9

_LE_INDEX = {le_label(i): i for i in range(OVERFLOW_BUCKET + 1)}
_POINT_KINDS = ("lives", "taxonomy", "as_of")


def answer(index: StoreIndex, path: str) -> Tuple[str, Optional[dict]]:
    """(query kind, document or ``None`` for an unknown ASN) of one
    planned path, straight from the index."""
    target = urlsplit(path)
    segments = [s for s in target.path.split("/") if s]
    if segments[0] == "asn":
        asn = int(segments[1])
        if segments[2] == "lives":
            return "lives", index.lives(asn)
        if segments[2] == "taxonomy":
            return "taxonomy", index.taxonomy(asn)
        return "as_of", index.as_of(asn, from_iso(segments[3]))
    lo, hi = (int(part) for part in segments[1].split("-"))
    limit = int(parse_qs(target.query)["limit"][-1])
    return "range", index.range_summary(lo, hi, limit=limit)


def encode(document: Optional[dict]) -> Tuple[int, bytes]:
    """The status and body the server must send for a document."""
    status = 200 if document is not None else 404
    if document is None:
        document = {"error": "unknown asn"}
    body = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    return status, body.encode("utf-8")


def scrape(conn: http.client.HTTPConnection) -> Dict:
    conn.request("GET", "/metrics")
    response = conn.getresponse()
    return parse_exposition(response.read().decode("utf-8"))


def status_counts(samples: Dict) -> Counter:
    """(route, status) → requests, over the data routes."""
    out: Counter = Counter()
    for (name, items), value in samples.items():
        labels = dict(items)
        if name == "repro_serve_http_requests_total" and "status" in labels:
            if _data_route(labels):
                out[(labels["route"], int(labels["status"]))] += int(value)
    return out


def handler_buckets(samples: Dict) -> List[int]:
    """Per-bucket counts of the server's handler-time histogram.

    ``loadgen._data_buckets`` folds only the per-route ``request_us``
    family; the handler histogram is one unlabeled series.
    """
    cumulative = [0] * (OVERFLOW_BUCKET + 1)
    for (name, items), value in samples.items():
        if name == "repro_serve_http_latency_us_bucket":
            cumulative[_LE_INDEX[dict(items)["le"]]] = int(value)
    return [cum - previous for cum, previous in zip(cumulative, [0] + cumulative[:-1])]


def logged_request_us(access_log: str, checked_after: int) -> List[float]:
    """Exact server-side ``request_us`` of every data request of the
    load, from the server's access log.  The load's data requests are
    all the logged ones but the last ``checked_after``: the sampled
    bodies, fetched one by one after the load."""
    values = []
    with open(access_log, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if _data_route(entry):
                values.append(float(entry["us"]))
    return values[:len(values) - checked_after]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--server-pid", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--min-queries", type=int, required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--access-log", default=None,
                        help="the server's access log; required with --trace 1")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    if args.trace and args.access_log is None:
        parser.error("--trace 1 needs --access-log")
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    opens = []
    for _ in range(OPEN_REPS if args.trace else 1):
        t0 = perf_counter()
        index = StoreIndex.open(args.store)
        opens.append(perf_counter() - t0)
    # twice the minimum, replayed cyclically when a run sends more
    plan = plan_queries(index.all_asns(), index.meta, 2 * args.min_queries, seed=args.seed)
    paths = plan.paths

    metrics_conn = http.client.HTTPConnection(args.host, args.port, timeout=30)
    before = scrape(metrics_conn)
    server_cpu0 = cpu_seconds_of(args.server_pid)
    own_cpu0 = process_time()
    wall0 = perf_counter()
    p50s: List[float] = []
    p99s: List[float] = []
    load_seconds = 0.0
    sent: List[str] = []
    failures: List[str] = []
    failed = 0
    checks = 0
    by_kind: Dict[bool, List[float]] = {False: [], True: []}
    min_batches = 2 if args.trace else 1
    batch_seconds = 0.0
    # stop before a batch would run past --seconds
    while (len(sent) < args.min_queries or len(p50s) < min_batches
           or perf_counter() - wall0 + batch_seconds < args.seconds):
        lo = len(sent) % len(paths)
        batch = paths[lo:lo + args.batch]
        sub = QueryPlan(paths=batch, seed=plan.seed, skew=plan.skew)
        # a traced run alternates plain batches with batches bracketed
        # by /metrics scrapes, to price reading the server's telemetry
        checked = not args.trace or len(p50s) % 2 == 1
        if checked:
            report, consistency = asyncio.run(run_load_checked(
                args.host, args.port, sub, concurrency=args.connections
            ))
            checks += 1
            if not consistency["requests_match"]:
                failed += 1
                failures.append(
                    f"batch {len(p50s) + 1}: server counted "
                    f"{consistency['server_requests']} of {consistency['sent']} requests"
                )
        else:
            report = asyncio.run(run_load(args.host, args.port, sub, concurrency=args.connections))
        sent.extend(batch)
        p50s.append(report.p50_us)
        p99s.append(report.p99_us)
        by_kind[checked].append(report.p50_us)
        load_seconds += report.seconds
        batch_seconds = report.seconds
        if report.errors:
            failed += report.errors
            failures.append(f"batch {len(p50s)}: {report.errors} failed requests")
    wall = perf_counter() - wall0
    own_cpu = process_time() - own_cpu0
    server_cpu = cpu_seconds_of(args.server_pid) - server_cpu0
    after = scrape(metrics_conn)

    # statuses as planned, from the server's own per-route counters:
    # only an /asn/ path whose ASN the index lacks is a 404
    expected: Counter = Counter()
    for path in sent:
        segments = path.split("/")
        missing = segments[1] == "asn" and index.record(int(segments[2])) is None
        expected[(route_template(urlsplit(path).path), 404 if missing else 200)] += 1
    served = status_counts(after)
    served.subtract(status_counts(before))
    served = Counter({key: n for key, n in served.items() if n})
    if served != expected:
        failed += 1
        failures.append(f"server statuses {dict(served)} != planned {dict(expected)}")

    # a sample of bodies, byte for byte
    rng = random.Random(args.seed)
    sample = rng.sample(sorted(set(sent)), min(SAMPLE_BODIES, len(set(sent))))
    mismatched = 0
    for i, path in enumerate(sample):
        metrics_conn.request("GET", path)
        response = metrics_conn.getresponse()
        got = (response.status, response.read())
        if args.corrupt and i == 0:
            got = (got[0], got[1][:-2] + b"?\n")
        if got != encode(answer(index, path)[1]):
            mismatched += 1
    metrics_conn.close()
    failed += mismatched
    if mismatched:
        failures.append(f"{mismatched} of {len(sample)} sampled bodies differ from the index")
    if args.trace:
        # the server logs every request; the log is the exact per-request
        # source of the server-side quantiles
        served_us = sorted(logged_request_us(args.access_log, len(sample)))
        checks += 1
        if len(served_us) != len(sent):
            failed += 1
            failures.append(f"access log holds {len(served_us)} load requests, sent {len(sent)}")

    load_share = own_cpu / wall
    server_share = server_cpu / wall
    saturated = load_share >= SATURATED_SHARE and load_share >= server_share
    client_p50_us = median(p50s)
    result = {
        "sent": len(sent),
        "batches": len(p50s),
        # every request, every batch's counter check, the status tally
        # and every sampled body
        "attempted": len(sent) + checks + 1 + len(sample),
        "failed": failed,
        "failures": failures,
        "p50_s": client_p50_us / 1e6,
        "p99_ms": median(p99s) / 1e3,
        "qps": len(sent) / load_seconds,
        "loadgen_cpu_share": load_share,
        "server_cpu_share": server_share,
        "saturated": saturated,
        "p50_us_samples": [round(p, 1) for p in p50s],
    }
    if args.trace:
        result["layers"] = trace_layers(
            index, paths[:args.min_queries], served_us, before, after, client_p50_us, opens
        )
        result["layers"].update({
            "loadgen.cpu_share": load_share,
            "server.cpu_share": server_share,
            "loadgen.saturated": float(saturated),
            "query.qps": result["qps"],
            "query.p99_ms": result["p99_ms"],
            "query.samples": float(len(sent)),
            "trace.overhead_s": (median(by_kind[True]) - median(by_kind[False])) / 1e6,
        })
    print(json.dumps(result, sort_keys=True))
    return 0


def trace_layers(index, paths, served_us, before, after, client_p50_us, opens) -> Dict[str, float]:
    """Per-layer figures of the serve path: the server's per-request
    times from its access log (``served_us``, sorted), its handler
    histogram's delta over the load, and in-process replays of ``paths``
    through the index, the JSON encoder and the telemetry recorder."""
    request_p50 = _percentile(served_us, 0.5)
    handler = [a - b for a, b in zip(handler_buckets(after), handler_buckets(before))]
    layers = {
        "http.request_us.p50": request_p50,
        "http.request_us.p99": _percentile(served_us, 0.99),
        # bucket resolution: the log carries no handler time
        "http.handler_us.p50": quantile_from_buckets(handler, 0.5) if sum(handler) else 0.0,
        "http.transport_us.p50": client_p50_us - request_p50,
        "index.open_s": median(opens),
        # pipeline stage spans the server recorded while it served the
        # load: none of simulation, restoration or bgp runs there
        "server.stage_s": sum(
            value - before.get(key, 0.0)
            for key, value in after.items()
            if key[0].startswith("repro_stage_") and key[0].endswith("_seconds_sum")
        ),
    }
    calls: Dict[str, List[int]] = {kind: [] for kind in _POINT_KINDS + ("range",)}
    encodes: Dict[str, List[int]] = {"point": [], "range": []}
    sizes: Dict[str, int] = {"point": 0, "range": 0}
    bodies = []
    for path in paths:
        t0 = perf_counter_ns()
        kind, document = answer(index, path)
        t1 = perf_counter_ns()
        status, body = encode(document)
        t2 = perf_counter_ns()
        shape = "range" if kind == "range" else "point"
        calls[kind].append(t1 - t0)
        encodes[shape].append(t2 - t1)
        sizes[shape] += len(body)
        bodies.append((path, status, len(body)))
    for kind, values in calls.items():
        layers[f"index.{kind}_us"] = median(values) / 1e3 if values else 0.0
    for shape, values in encodes.items():
        layers[f"encode.{shape}_us"] = median(values) / 1e3 if values else 0.0
        layers[f"http.resp_bytes.{shape}"] = float(sizes[shape])

    telemetry = ServerTelemetry(metrics=MetricsRegistry())
    records = []
    for path, status, size in bodies:
        route = route_template(urlsplit(path).path)
        t0 = perf_counter_ns()
        telemetry.record_request(
            method="GET", route=route, path=path, status=status,
            request_us=150.0, handler_us=40.0, bytes_out=size,
        )
        records.append(perf_counter_ns() - t0)
    layers["telemetry.record_us"] = median(records) / 1e3
    return layers


if __name__ == "__main__":
    sys.exit(main())
