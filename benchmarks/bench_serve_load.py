"""Closed-loop load benchmark for the ``repro.serve`` HTTP service.

Boots a real :class:`~repro.serve.TimelineServer` on an ephemeral port
(:class:`~repro.serve.BackgroundServer`) and drives it with closed-loop
``http.client`` workers at 1 / 8 / 32 concurrent clients, in two
regimes:

* **cold** -- every request carries a distinct date window, so every
  request misses the result cache and pays a full retrieve+summarise;
* **warm** -- every request repeats one query, so after the first hit
  the versioned LRU cache answers everything.

Per configuration the table records p50 / p99 latency and throughput.
Three claims ride along, enforced under ``BENCH_ASSERT=1`` (wall-clock
ratios flake on oversubscribed runners, so they are informational by
default -- except the correctness ones, which always assert):

1. warm-cache p50 is >= 5x faster than cold p50 (ratio: opt-in);
2. a deliberately saturated server (``max_inflight=1``, 16 clients)
   sheds with 429s and serves **zero** 5xx (always asserted);
3. the served timeline is byte-identical to the direct library call
   (always asserted).

Scale knobs: ``WILSON_BENCH_SERVE_SCALE`` (default 0.02 of the
timeline17-shaped corpus) and ``WILSON_BENCH_SERVE_REQUESTS`` (default
24 requests per concurrency level per regime).
"""

import datetime
import http.client
import itertools
import json
import os
import threading
import time

from common import assert_if_opted_in, emit, write_json_result
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    BackgroundServer,
    ServeConfig,
    TimelineServer,
    canonical_json,
)
from repro.tlsdata.synthetic import make_timeline17_like

SCALE = float(os.environ.get("WILSON_BENCH_SERVE_SCALE", "0.02"))
REQUESTS_PER_LEVEL = int(
    os.environ.get("WILSON_BENCH_SERVE_REQUESTS", "24")
)
CONCURRENCY_LEVELS = (1, 8, 32)


def _build_system():
    instance = make_timeline17_like(scale=SCALE, seed=11).instances[0]
    system = RealTimeTimelineSystem()
    system.ingest(instance.corpus.articles)
    return system, instance


def _payloads(instance, count, distinct):
    """*count* request bodies; distinct date windows iff *distinct*."""
    start, end = instance.corpus.window
    span = (end - start).days
    payloads = []
    for i in range(count):
        offset = (i % max(1, span // 2)) if distinct else 0
        payloads.append(
            json.dumps(
                {
                    "keywords": list(instance.corpus.query),
                    "start": (
                        start + datetime.timedelta(days=offset)
                    ).isoformat(),
                    "end": end.isoformat(),
                    "num_dates": 5,
                    "num_sentences": 1,
                }
            ).encode("utf-8")
        )
    return payloads


def _closed_loop(port, payloads, concurrency):
    """Drive *payloads* through *concurrency* clients; return stats."""
    counter = itertools.count()
    lock = threading.Lock()
    latencies = []
    statuses = {}

    def client():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    i = next(counter)
                if i >= len(payloads):
                    return
                started = time.perf_counter()
                conn.request(
                    "POST", "/v1/timeline", body=payloads[i],
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    statuses[response.status] = (
                        statuses.get(response.status, 0) + 1
                    )
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client) for _ in range(concurrency)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    return latencies, statuses, wall


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[rank]


def test_serve_load(benchmark, capsys, json_out):
    system, instance = _build_system()
    config = ServeConfig(port=0, cache_size=1024, max_inflight=64)

    def load_matrix():
        results = {}
        with BackgroundServer(TimelineServer(system, config)) as server:
            for concurrency in CONCURRENCY_LEVELS:
                for regime in ("cold", "warm"):
                    payloads = _payloads(
                        instance, REQUESTS_PER_LEVEL,
                        distinct=(regime == "cold"),
                    )
                    if regime == "cold":
                        # Distinct windows repeat across levels; drop
                        # prior entries so every cold request misses.
                        server.cache.clear()
                    else:
                        # Prime the single warm entry outside the
                        # measured region.
                        _closed_loop(server.port, payloads[:1], 1)
                    results[(concurrency, regime)] = _closed_loop(
                        server.port, payloads, concurrency
                    )
        return results

    results = benchmark.pedantic(load_matrix, rounds=1, iterations=1)

    rows = []
    p50 = {}
    total_statuses = {}
    for (concurrency, regime), (latencies, statuses, wall) in sorted(
        results.items()
    ):
        latencies.sort()
        p50[(concurrency, regime)] = _percentile(latencies, 0.50)
        for status, count in statuses.items():
            total_statuses[status] = total_statuses.get(status, 0) + count
        rows.append(
            [
                f"{concurrency} clients",
                regime,
                f"{_percentile(latencies, 0.50) * 1e3:.1f}ms",
                f"{_percentile(latencies, 0.99) * 1e3:.1f}ms",
                f"{len(latencies) / max(wall, 1e-9):.1f} req/s",
                sum(
                    count for status, count in statuses.items()
                    if status != 200
                ),
            ]
        )

    # -- saturation: max_inflight=1 under 16 clients must shed, not fail.
    shed_config = ServeConfig(port=0, cache_size=4, max_inflight=1)
    with BackgroundServer(TimelineServer(system, shed_config)) as server:
        payloads = _payloads(instance, 48, distinct=True)
        _, shed_statuses, _ = _closed_loop(server.port, payloads, 16)
    shed_429 = shed_statuses.get(429, 0)
    shed_5xx = sum(
        count for status, count in shed_statuses.items() if status >= 500
    )
    rows.append(
        [
            "16 clients", "saturated (max_inflight=1)", "-", "-", "-",
            shed_429,
        ]
    )

    emit(
        "serve_load",
        [
            "concurrency", "cache regime", "p50", "p99",
            "throughput", "non-200",
        ],
        rows,
        title=(
            f"HTTP serve load: closed loop, {REQUESTS_PER_LEVEL} requests "
            f"per level, corpus scale {SCALE}"
        ),
        capsys=capsys,
        notes=[
            f"host cpus: {os.cpu_count()}; saturation row counts 429s "
            f"shed at max_inflight=1 ({shed_429} shed, {shed_5xx} 5xx)",
            "warm regime repeats one query (versioned cache hit); cold "
            "rotates distinct date windows",
        ],
    )

    write_json_result(
        "serve_load",
        {
            "scale": SCALE,
            "requests_per_level": REQUESTS_PER_LEVEL,
            "p50_seconds": {
                f"{regime}_{concurrency}": value
                for (concurrency, regime), value in p50.items()
            },
            "shed_429": shed_429,
            "shed_5xx": shed_5xx,
        },
        json_out,
    )

    # -- always-on correctness gates ------------------------------------
    # Overload must degrade to 429s, never to 5xx.
    assert shed_5xx == 0, f"saturated server returned 5xx: {shed_statuses}"
    assert sum(
        count for status, count in total_statuses.items()
        if status >= 500
    ) == 0, f"load run returned 5xx: {total_statuses}"
    assert shed_429 > 0, (
        f"expected shedding at max_inflight=1 under 16 clients, "
        f"statuses: {shed_statuses}"
    )

    # Served bytes == direct library call.
    start, end = instance.corpus.window
    direct = system.generate_timeline(
        keywords=tuple(instance.corpus.query),
        start=start, end=end, num_dates=5, num_sentences=1,
    )
    with BackgroundServer(
        TimelineServer(system, ServeConfig(port=0))
    ) as server:
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=120
        )
        try:
            conn.request(
                "POST", "/v1/timeline",
                body=_payloads(instance, 1, distinct=False)[0],
                headers={"Content-Type": "application/json"},
            )
            served = json.loads(conn.getresponse().read())
        finally:
            conn.close()
    assert canonical_json(served["result"]["timeline"]) == canonical_json(
        direct.timeline.to_dict()
    ), "served timeline diverged from the direct library call"

    # Wall-clock ratio: opt-in (oversubscribed runners can't show it).
    for concurrency in CONCURRENCY_LEVELS:
        cold = p50[(concurrency, "cold")]
        warm = p50[(concurrency, "warm")]
        assert_if_opted_in(
            warm * 5 <= cold,
            f"expected warm p50 >= 5x faster than cold at {concurrency} "
            f"clients, got cold={cold * 1e3:.1f}ms "
            f"warm={warm * 1e3:.1f}ms",
            capsys,
        )
