"""Write-path benchmark: sustained ingest under concurrent queries.

Boots a real :class:`~repro.serve.TimelineServer` with an attached
:class:`~repro.ingest.IngestPlane` and measures the streaming write
path of docs/ingest.md in three phases:

* **idle** -- closed-loop ``/v1/timeline`` queries with no write
  traffic (the read-path baseline);
* **under ingest** -- the same closed query loop while a writer thread
  streams the held-back tail of the corpus through ``POST /v1/ingest``
  in small async batches (ingest throughput, ack latency, and the
  read-latency tax of the write stream);
* **invalidation probe** -- warm one window covering the probe
  article's dates and one disjoint window, seal the probe with
  ``"sync": true``, and observe day-scoped eviction: the covering
  entry is invalidated, the disjoint entry answers from cache.

Always-on correctness gates (never wall-clock dependent):

1. zero 5xx across every query and ingest request;
2. after the stream drains, the served timeline is byte-identical to a
   cold re-index of base + streamed + probe articles, at the same
   ``index_version``;
3. the seal stream invalidated at least one intersecting cached
   window, and the disjoint window survived the probe seal warm.

Wall-clock claims (opt-in via ``BENCH_ASSERT=1``, see
``common.BENCH_ASSERT``): query p50 under ingest stays within 10x the
idle p50, and seal p50 stays under half a second.

Scale knobs: ``WILSON_BENCH_INGEST_SCALE`` (default 0.02 of the
timeline17-shaped corpus) and ``WILSON_BENCH_INGEST_REQUESTS``
(default 16 queries per phase).
"""

import calendar
import datetime
import http.client
import itertools
import json
import os
import threading
import time

from common import assert_if_opted_in, emit, write_json_result
from repro.ingest import IngestConfig, IngestPlane
from repro.obs.metrics import Metrics
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    BackgroundServer,
    ServeConfig,
    TimelineServer,
    canonical_json,
)
from repro.tlsdata.synthetic import make_timeline17_like
from repro.tlsdata.types import Article

SCALE = float(os.environ.get("WILSON_BENCH_INGEST_SCALE", "0.02"))
QUERIES_PER_PHASE = int(
    os.environ.get("WILSON_BENCH_INGEST_REQUESTS", "16")
)
QUERY_CONCURRENCY = 4
INGEST_BATCH = 4


def _build_split():
    """The benchmark corpus split into a served base and a stream tail."""
    instance = make_timeline17_like(scale=SCALE, seed=11).instances[0]
    articles = instance.corpus.articles
    cut = max(1, (len(articles) * 7) // 10)
    if cut == len(articles):
        cut = len(articles) - 1
    return instance, articles[:cut], articles[cut:]


def _wire(article):
    """The ``POST /v1/ingest`` representation of *article*."""
    return {
        "article_id": article.article_id,
        "publication_date": article.publication_date.isoformat(),
        "title": article.title,
        "text": article.text,
    }


def _from_wire(article):
    """The article a worker reconstructs from :func:`_wire` bytes."""
    return Article(
        article_id=article.article_id,
        publication_date=article.publication_date,
        title=article.title,
        text=article.text,
    )


def _probe_article(window_end):
    """An article whose touched dates sit strictly after *window_end*."""
    mention = window_end + datetime.timedelta(days=3)
    text = (
        f"The archive expanded on "
        f"{calendar.month_name[mention.month]} {mention.day}, "
        f"{mention.year}."
    )
    return Article(
        article_id="bench-ingest-probe",
        publication_date=window_end + datetime.timedelta(days=2),
        title="Archive expansion",
        text=text,
    )


def _timeline_payload(instance, start, end):
    return json.dumps(
        {
            "keywords": list(instance.corpus.query),
            "start": start.isoformat(),
            "end": end.isoformat(),
            "num_dates": 5,
            "num_sentences": 1,
        }
    ).encode("utf-8")


def _query_payloads(instance, count):
    """*count* distinct-window bodies (every request misses the cache)."""
    start, end = instance.corpus.window
    span = (end - start).days
    return [
        _timeline_payload(
            instance,
            start + datetime.timedelta(days=i % max(1, span // 2)),
            end,
        )
        for i in range(count)
    ]


def _request(port, method, path, body):
    """One HTTP round trip; returns ``(status, raw_body, seconds)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        started = time.perf_counter()
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, raw, time.perf_counter() - started
    finally:
        conn.close()


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


def _stream(port, articles, statuses, ack_latencies):
    """POST *articles* in async batches, retrying 429s until accepted."""
    for i in range(0, len(articles), INGEST_BATCH):
        batch = articles[i:i + INGEST_BATCH]
        body = json.dumps(
            {"articles": [_wire(a) for a in batch], "sync": False}
        ).encode("utf-8")
        while True:
            status, _, elapsed = _request(port, "POST", "/v1/ingest", body)
            statuses[status] = statuses.get(status, 0) + 1
            if status != 429:
                ack_latencies.append(elapsed)
                break
            time.sleep(0.01)


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[rank]


def test_ingest_under_load(benchmark, capsys, json_out):
    instance, base, streamed = _build_split()
    start, end = instance.corpus.window
    span = (end - start).days
    probe = _probe_article(end)
    disjoint_window = (start, start + datetime.timedelta(days=span // 4))
    covering_window = (start, end + datetime.timedelta(days=5))

    system = RealTimeTimelineSystem()
    system.ingest(base)
    metrics = Metrics()
    plane = IngestPlane(
        system,
        IngestConfig(batch_articles=INGEST_BATCH, batch_age_ms=5.0),
        metrics=metrics,
    )
    plane.start()
    server = TimelineServer(
        system,
        ServeConfig(port=0, cache_size=1024, max_inflight=64),
        metrics=metrics,
        ingest=plane,
    )

    def run_phases():
        results = {}
        with BackgroundServer(server) as running:
            port = running.port
            payloads = _query_payloads(instance, QUERIES_PER_PHASE)

            # Phase 1: the read path with no write traffic.
            running.cache.clear()
            results["idle"] = _closed_loop(
                port, payloads, QUERY_CONCURRENCY
            )

            # Phase 2: the same query loop under a sustained stream.
            # The covering window warms first so the stream's seals have
            # a cached intersecting entry to invalidate.
            running.cache.clear()
            _request(
                port, "POST", "/v1/timeline",
                _timeline_payload(instance, *covering_window),
            )
            ingest_statuses = {}
            ack_latencies = []
            writer = threading.Thread(
                target=_stream,
                args=(port, streamed, ingest_statuses, ack_latencies),
            )
            stream_start = time.perf_counter()
            writer.start()
            results["under_ingest"] = _closed_loop(
                port, payloads, QUERY_CONCURRENCY
            )
            writer.join()
            plane.flush()  # every acknowledged batch is sealed
            results["stream"] = (
                time.perf_counter() - stream_start,
                ingest_statuses,
                ack_latencies,
            )
            results["invalidated_by_stream"] = metrics.counter(
                "serve.ingest_invalidated_results"
            ).value

            # Phase 3: the precision probe. Warm a window covering the
            # probe article's dates and one disjoint from them, seal the
            # probe synchronously, and re-query both.
            for window in (covering_window, disjoint_window):
                _request(
                    port, "POST", "/v1/timeline",
                    _timeline_payload(instance, *window),
                )
            hits_before = metrics.counter("serve.cache_hits").value
            invalidated_before = metrics.counter(
                "serve.ingest_invalidated_results"
            ).value
            probe_body = json.dumps(
                {"articles": [_wire(probe)], "sync": True}
            ).encode("utf-8")
            probe_status, _, probe_seconds = _request(
                port, "POST", "/v1/ingest", probe_body
            )
            _request(
                port, "POST", "/v1/timeline",
                _timeline_payload(instance, *disjoint_window),
            )
            results["probe"] = {
                "status": probe_status,
                "sync_seconds": probe_seconds,
                "disjoint_hit_retained": (
                    metrics.counter("serve.cache_hits").value
                    > hits_before
                ),
                "invalidated": (
                    metrics.counter(
                        "serve.ingest_invalidated_results"
                    ).value
                    - invalidated_before
                ),
            }

            # Served bytes for the equivalence gate, after full drain.
            status, raw, _ = _request(
                port, "POST", "/v1/timeline",
                _timeline_payload(instance, *covering_window),
            )
            results["final"] = (status, json.loads(raw))
        return results

    results = benchmark.pedantic(run_phases, rounds=1, iterations=1)

    phase_stats = {}
    total_statuses = {}
    rows = []
    for phase in ("idle", "under_ingest"):
        latencies, statuses, wall = results[phase]
        latencies.sort()
        phase_stats[phase] = {
            "p50": _percentile(latencies, 0.50),
            "p99": _percentile(latencies, 0.99),
            "qps": len(latencies) / max(wall, 1e-9),
        }
        for status, count in statuses.items():
            total_statuses[status] = total_statuses.get(status, 0) + count
        rows.append(
            [
                f"queries ({phase.replace('_', ' ')})",
                f"{phase_stats[phase]['p50'] * 1e3:.1f}ms",
                f"{phase_stats[phase]['p99'] * 1e3:.1f}ms",
                f"{phase_stats[phase]['qps']:.1f} req/s",
                sum(
                    count for status, count in statuses.items()
                    if status != 200
                ),
            ]
        )

    stream_wall, ingest_statuses, ack_latencies = results["stream"]
    for status, count in ingest_statuses.items():
        total_statuses[status] = total_statuses.get(status, 0) + count
    ack_latencies.sort()
    articles_per_second = len(streamed) / max(stream_wall, 1e-9)
    seal_summary = metrics.snapshot()["histograms"].get(
        "ingest.seal_seconds", {"count": 0}
    )
    seal_p50 = seal_summary.get("p50", 0.0)
    rows.append(
        [
            f"ingest stream ({len(streamed)} articles)",
            f"{_percentile(ack_latencies, 0.50) * 1e3:.1f}ms ack",
            f"{seal_p50 * 1e3:.1f}ms seal p50",
            f"{articles_per_second:.1f} art/s",
            sum(
                count for status, count in ingest_statuses.items()
                if status not in (200, 202)
            ),
        ]
    )

    probe = results["probe"]
    rows.append(
        [
            "sync probe + invalidation",
            f"{probe['sync_seconds'] * 1e3:.1f}ms sync",
            f"{probe['invalidated']} evicted",
            "hit retained" if probe["disjoint_hit_retained"] else "MISS",
            0 if probe["status"] == 200 else 1,
        ]
    )

    emit(
        "ingest_under_load",
        ["phase", "p50 / ack", "p99 / seal", "throughput", "non-OK"],
        rows,
        title=(
            f"Streaming ingest under load: {QUERIES_PER_PHASE} queries "
            f"per phase at {QUERY_CONCURRENCY} clients, corpus scale "
            f"{SCALE} ({len(base)} base + {len(streamed)} streamed)"
        ),
        capsys=capsys,
        notes=[
            f"host cpus: {os.cpu_count()}; stream invalidated "
            f"{results['invalidated_by_stream']} cached result(s); "
            f"{metrics.counter('ingest.segments_sealed').value:.0f} "
            f"segments sealed",
            "probe row: a sync seal touching only post-window dates "
            "evicts the covering cached window and leaves the disjoint "
            "one warm (day-scoped invalidation)",
        ],
    )

    write_json_result(
        "ingest_under_load",
        {
            "scale": SCALE,
            "base_articles": len(base),
            "streamed_articles": len(streamed),
            "query_p50_idle_seconds": phase_stats["idle"]["p50"],
            "query_p99_idle_seconds": phase_stats["idle"]["p99"],
            "query_p50_under_ingest_seconds": (
                phase_stats["under_ingest"]["p50"]
            ),
            "query_p99_under_ingest_seconds": (
                phase_stats["under_ingest"]["p99"]
            ),
            "ingest_throughput_articles_per_second": articles_per_second,
            "ingest_ack_p50_seconds": _percentile(ack_latencies, 0.50),
            "seal_p50_seconds": seal_p50,
            "sync_probe_seconds": probe["sync_seconds"],
            "segments_sealed": metrics.counter(
                "ingest.segments_sealed"
            ).value,
            "invalidated_results": results["invalidated_by_stream"],
            "errors_5xx": sum(
                count for status, count in total_statuses.items()
                if status >= 500
            ),
        },
        json_out,
    )

    # -- always-on correctness gates ------------------------------------
    # Load (read or write) must never produce a 5xx.
    assert sum(
        count for status, count in total_statuses.items() if status >= 500
    ) == 0, f"ingest-under-load run returned 5xx: {total_statuses}"

    # The sync probe sealed before responding, evicted the covering
    # cached window, and left the disjoint window warm.
    assert probe["status"] == 200, probe
    assert probe["invalidated"] >= 1, (
        "probe seal evicted no cached results despite a warm covering "
        "window"
    )
    assert probe["disjoint_hit_retained"], (
        "a cached window disjoint from the probe seal's touched dates "
        "was evicted -- invalidation is not day-scoped"
    )
    assert results["invalidated_by_stream"] >= 1, (
        "the warmed covering window survived a stream that wrote "
        "inside it"
    )

    # Byte-equivalence: the drained live server answers exactly like a
    # cold re-index of base + streamed + probe, at the same version.
    cold = RealTimeTimelineSystem()
    cold.ingest(
        list(base)
        + [_from_wire(a) for a in streamed]
        + [_from_wire(_probe_article(end))]
    )
    assert system.index_version == cold.index_version
    direct = cold.generate_timeline(
        keywords=tuple(instance.corpus.query),
        start=covering_window[0], end=covering_window[1],
        num_dates=5, num_sentences=1,
    )
    final_status, final_payload = results["final"]
    assert final_status == 200, final_status
    assert canonical_json(
        final_payload["result"]["timeline"]
    ) == canonical_json(direct.timeline.to_dict()), (
        "streamed timeline diverged from the cold re-index"
    )

    # -- wall-clock claims: opt-in --------------------------------------
    assert_if_opted_in(
        phase_stats["under_ingest"]["p50"]
        <= 10 * max(phase_stats["idle"]["p50"], 1e-6),
        f"expected query p50 under ingest within 10x idle, got "
        f"idle={phase_stats['idle']['p50'] * 1e3:.1f}ms "
        f"under={phase_stats['under_ingest']['p50'] * 1e3:.1f}ms",
        capsys,
    )
    assert_if_opted_in(
        seal_p50 <= 0.5,
        f"expected seal p50 <= 500ms, got {seal_p50 * 1e3:.1f}ms",
        capsys,
    )
