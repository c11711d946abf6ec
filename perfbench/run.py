#!/usr/bin/env python3
"""Served-timeline benchmark of the WILSON reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload single-cold --seed 1 --seconds 15 --trace 0

Workloads: ``single-cold`` (one ``serve`` process, distinct queries that
all miss the result cache), ``routed-cold`` (the same queries through
``serve --shards 2``) and ``cold-ingest`` (``serve --ingest``: distinct
queries read beside an open-loop stream of synchronous ingest writes).
See ``perfbench/README.md``.

The benchmark builds its inputs from ``--seed``, sets the system up the
way an operator does (``repro snapshot`` then ``repro serve``), drives it
from a separate load-generator process for ``--seconds`` seconds and
checks every answer byte for byte against the library. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics, replaying the queries in-process under the benchmark's own
spans, and writes those spans to ``.perfbench/out/``. The last line of
standard output is the result object; the line before it is a detailed
report (host stamp, per-phase counts, checks, every metric).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench" / "out"

WORKLOADS = ("single-cold", "routed-cold", "cold-ingest")
#: Synthetic corpus scale (1.0 is timeline17's full size per topic).
DEFAULT_SCALE = 0.2
#: Full set-ups per untraced run; ``setup_s`` is their median.
DEFAULT_SETUPS = 3
#: Distinct warmup queries sent before timing.
WARMUP_QUERIES = 16
#: The cold-ingest reads compared after the writer drains: the first ones
#: of the timed phase, so every seal can have evicted their cached answers.
VERIFY_QUERIES = 12
#: Seconds between cold-ingest writes; each write seals one segment, and
#: the held-out articles are split evenly over the timed phase's writes.
WRITE_INTERVAL_S = 1.0
#: Queries replayed under spans in a traced run.
TRACED_QUERIES = 40
#: Served queries replayed untraced for ``library.ms`` in a traced run.
LIBRARY_QUERIES = 120
#: Fewest timed samples for a p90: ten must lie beyond it.
MIN_TAIL_SAMPLES = 100

END_TO_END = {
    "timeline_p50_ms": "ms",
    "timeline_p90_ms": "ms",
    "timeline_qps": "1/s",
    "setup_s": "s",
    "rss_mb": "MiB",
}
PER_LAYER = {
    "search.fetch_ms": "ms",
    "search.candidates": "count",
    "date_selection.ms": "ms",
    "date_selection.graph_dates": "count",
    "daily.ms": "ms",
    "daily.sentences_ranked": "count",
    "daily.matrix_hit_ratio": "ratio",
    "postprocess.ms": "ms",
    "analysis.hit_ratio": "ratio",
    "analysis.tokenize_ms": "ms",
    "library.ms": "ms",
    "library.self_ms": "ms",
    "serve.http_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.batch_size_mean": "count",
    "serve.coalesced": "count",
    "serve.shed": "count",
    "router.hop_ms": "ms",
    "router.fanout_p50_ms": "ms",
    "router.merge_p50_ms": "ms",
    "pool.reuse_ratio": "ratio",
    "router.binary_frame_ratio": "ratio",
    "router.shard_retries": "count",
    "replica.hedges": "count",
    "ingest_p50_ms": "ms",
    "ingest_p90_ms": "ms",
    "ingest.seal_p50_ms": "ms",
    "ingest.segments_sealed": "count",
    "ingest.invalidated_days": "count",
    "serve.invalidated_results": "count",
    "setup.index_s": "s",
    "setup.snapshot_s": "s",
    "setup.boot_s": "s",
    "serve.warmup_s": "s",
    "loadgen.late_p90_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "loadgen.attempted": "count",
    "error_rate": "ratio",
    "trace.overhead_ms": "ms",
}
UNITS = {**END_TO_END, **PER_LAYER}


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile, *q* in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (
        position - lower
    )


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def host_stamp() -> dict:
    """What makes numbers from two hosts comparable, or not."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "calibration_ms": best * 1000.0,
    }


class Run:
    """One workload run: inputs, set-up, timed phase, checks, metrics."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        from procs import child_env

        self.args = args
        self.workload = args.workload
        self.traced = args.trace == 1
        self.work = work
        self.env = child_env(ROOT, work)
        self.servers: List = []
        self.report: Dict[str, object] = {"checks": {}, "phases": {}}
        self.metrics: Dict[str, float] = {}
        self.failed = 0
        self.attempted = 0
        self.main_mismatches = 0

    # -- inputs -------------------------------------------------------------

    def make_inputs(self) -> None:
        from inputs import ingest_bodies, make_inputs, query_stream
        from repro.tlsdata.loaders import load_corpus, save_corpus
        from repro.tlsdata.types import Corpus

        args = self.args
        inputs = make_inputs(args.seed, args.scale)
        ingest = self.workload == "cold-ingest"
        if ingest:
            indexed, held_out = inputs.split()
        else:
            indexed, held_out = inputs.articles, []
        self.corpus_path = self.work / "corpus.jsonl"
        save_corpus(Corpus(topic="perfbench", articles=indexed),
                    self.corpus_path)
        # Exactly what the system under test reads back.
        self.articles = load_corpus(self.corpus_path).articles
        count = 1 + WARMUP_QUERIES + 200 * args.seconds + 200
        queries = query_stream(inputs, args.seed, count)
        self.probe = queries[0]
        warmup = queries[1:1 + WARMUP_QUERIES]
        self.stream = queries[1 + WARMUP_QUERIES:]
        if ingest:
            # One reader and one writer: the load generator's two threads.
            self.verify = self.stream[:VERIFY_QUERIES]
            self.reads = {"clients": 1}
            count = max(1, round(args.seconds / WRITE_INTERVAL_S))
            writes = ingest_bodies(held_out, -(-len(held_out) // count))
            self.writer = {"bodies": writes, "interval": WRITE_INTERVAL_S}
        else:
            self.verify = []
            self.reads = {"clients": 2, "keep_bodies": True}
            self.writer = None
        self.reads.update({
            "bodies": [b.decode() for b in self.stream],
            "warmup": [b.decode() for b in warmup],
        })

    # -- set-up -------------------------------------------------------------

    def serve_argv(self, snapshot: Path, tag: str,
                   routed: Optional[bool] = None) -> List[str]:
        from layers import SNAPSHOT_MODE
        from procs import repro_cmd

        argv = repro_cmd("serve", "--snapshot", str(snapshot),
                         "--snapshot-mode", SNAPSHOT_MODE, "--port", "0")
        if routed is None:
            routed = self.workload == "routed-cold"
        if routed:
            argv += ["--shards", "2",
                     "--topology-dir", str(self.work / f"topology-{tag}")]
        if self.workload == "cold-ingest":
            argv.append("--ingest")
        return argv

    def boot(self, argv: List[str], tag: str):
        """Spawn a server, wait for its banner, get a 200 on the probe."""
        from procs import BootError, Server, post

        server = Server(argv, self.env, self.work / f"serve-{tag}.log", ROOT)
        self.servers.append(server)
        port = server.wait_ready()
        status, body = post(port, "/v1/timeline", self.probe)
        if status != 200:
            raise BootError(f"probe answered {status}: {body[:300]!r}")
        return server

    def stop(self, server) -> None:
        server.stop()
        self.servers.remove(server)

    def operator_setup(self):
        """``repro snapshot`` then ``repro serve``, timed to the first 200;
        repeated, keeping the last server up."""
        from procs import repro_cmd

        times, server = [], None
        for number in range(DEFAULT_SETUPS):
            if server is not None:
                self.stop(server)
            snapshot = self.work / f"index-{number}.snap"
            started = time.perf_counter()
            with open(self.work / f"snapshot-{number}.log", "wb") as log:
                subprocess.run(
                    repro_cmd("snapshot", str(self.corpus_path),
                              "--out", str(snapshot), "--format", "v2"),
                    env=self.env, cwd=ROOT, stdout=log,
                    stderr=subprocess.STDOUT, check=True, timeout=600,
                )
            server = self.boot(self.serve_argv(snapshot, str(number)),
                               str(number))
            times.append(time.perf_counter() - started)
        self.report["setup_seconds"] = times
        self.metrics["setup_s"] = statistics.median(times)
        self.snapshot = snapshot
        return server

    def traced_setup(self):
        """The same steps through the library, each timed on its own."""
        from layers import index_articles

        started = time.perf_counter()
        engine = index_articles(self.articles)
        indexed = time.perf_counter()
        self.snapshot = self.work / "index.snap"
        engine.save_snapshot(self.snapshot, snapshot_format="v2")
        saved = time.perf_counter()
        server = self.boot(self.serve_argv(self.snapshot, "traced"), "traced")
        self.metrics.update({
            "setup.index_s": indexed - started,
            "setup.snapshot_s": saved - indexed,
            "setup.boot_s": time.perf_counter() - saved,
            "serve.warmup_s": server.warmup_s,
        })
        return server

    # -- timed phase --------------------------------------------------------

    def drive(self, server, tag: str) -> dict:
        """One load-generator process against *server*; /metrics deltas."""
        from procs import scrape

        plan = {
            "host": "127.0.0.1",
            "port": server.port,
            "seconds": self.args.seconds,
            "reads": self.reads,
            "writer": None if self.writer is None else {
                "bodies": [b.decode() for b in self.writer["bodies"]],
                "interval": self.writer["interval"],
            },
            "verify": [b.decode() for b in self.verify],
        }
        plan_path = self.work / f"plan-{tag}.json"
        result_path = self.work / f"result-{tag}.json"
        plan_path.write_text(json.dumps(plan))
        before = scrape(server.port)
        subprocess.run(
            [sys.executable, str(HERE / "loadgen.py"), str(plan_path),
             str(result_path)],
            env=self.env, cwd=ROOT, check=True,
            timeout=4 * self.args.seconds + 120,
        )
        after = scrape(server.port)
        result = json.loads(result_path.read_text())
        result["delta"] = {
            name: value - before.get(name, 0.0)
            for name, value in after.items()
        }
        result["after"] = after
        for phase, counts in result["phases"].items():
            self.report["phases"][f"{tag}.{phase}"] = counts
            self.attempted += counts["sent"]
            self.failed += counts["failed"]
        return result

    # -- checks -------------------------------------------------------------

    def parse(self, body: bytes):
        """A request body as the server reads it, with its defaults of 10
        dates and 1 sentence a date."""
        from repro.serve.app import parse_timeline_payload

        return parse_timeline_payload(body, None, 10, 1)

    def check_cold(self, results: Sequence[dict]) -> List[int]:
        """Byte-compare every timed answer with the library's answer over
        the served snapshot; returns the indices of the queries served."""
        from layers import reference
        from repro.serve.app import canonical_json

        served = sorted({int(i) for r in results for i in r["bodies"]})
        answers = reference(
            self.snapshot, [self.parse(self.stream[i]) for i in served])
        expected = dict(zip(served, answers))
        compared, mismatched = 0, []
        for number, result in enumerate(results):
            for index, body in result["bodies"].items():
                timeline = json.loads(body)["result"]["timeline"]
                compared += 1
                if canonical_json(timeline) != expected[int(index)]:
                    mismatched.append(self.stream[int(index)].decode())
                    self.main_mismatches += number == 0
        mismatches = len(mismatched)
        self.failed += mismatches
        self.report["checks"]["mismatched_requests"] = mismatched[:10]
        if len(results) == 2:
            # Routed == single-index, checked directly on the same queries.
            routed, single = (
                {i: json.loads(b)["result"]["timeline"]
                 for i, b in r["bodies"].items()} for r in results)
            self.report["checks"]["routed_vs_single_mismatches"] = sum(
                routed[i] != single[i] for i in routed.keys() & single.keys())
        hits = sum(s[4] for r in results for s in r["samples"])
        self.report["checks"].update({
            "bytes_compared": compared,
            "byte_mismatches": mismatches,
            "cold_cache_hits": hits,
        })
        self.checks_ok = compared > 0 and mismatches == 0 and hits == 0
        return served

    def check_ingest(self, result: dict) -> None:
        """After the writer drains: the first queries read, read again,
        must equal a cold re-index of the base plus every streamed
        article. Their answers were cached before most seals, so a seal
        that failed to evict a window it touched shows up here."""
        from layers import index_articles, reference
        from repro.serve.app import canonical_json, parse_ingest_payload

        streamed = [a for body in self.writer["bodies"]
                    for a in parse_ingest_payload(body)[0]]
        reindexed = self.work / "reindex.snap"
        index_articles(list(self.articles) + streamed).save_snapshot(
            reindexed, snapshot_format="v2")
        answers = reference(reindexed, [self.parse(b) for b in self.verify])
        compared, mismatched = 0, []
        for body, served, expected in zip(self.verify, result["verify"],
                                          answers):
            if served is None:
                continue
            compared += 1
            timeline = json.loads(served)["result"]["timeline"]
            if canonical_json(timeline) != expected:
                mismatched.append(body.decode())
        mismatches = len(mismatched)
        self.failed += mismatches
        self.report["checks"]["mismatched_requests"] = mismatched
        writes_ok = result["phases"]["writes"]["succeeded"]
        self.report["checks"].update({
            "bytes_compared": compared,
            "byte_mismatches": mismatches,
            "writes_sealed": writes_ok,
            "writes_planned": len(self.writer["bodies"]),
        })
        self.checks_ok = (
            compared == len(self.verify) and mismatches == 0
            and writes_ok == len(self.writer["bodies"])
        )

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, result: dict) -> None:
        """Timeline latency and throughput of the timed phase; the write
        latency and generator lateness of the open-loop writer."""
        latencies = [s[1] for s in result["samples"] if s[2]]
        p90 = percentile(latencies, 90)
        beyond = sum(1 for latency in latencies if latency > p90)
        self.tail_ok = len(latencies) >= MIN_TAIL_SAMPLES and beyond >= 10
        hits = [s[1] for s in result["samples"] if s[2] and s[4]]
        misses = [s[1] for s in result["samples"] if s[2] and not s[4]]
        self.report["checks"].update({
            "timed_reads": len(latencies),
            "tail_samples_beyond_p90": beyond,
        })
        self.report["reads"] = {
            "cache_hits": len(hits),
            "cache_misses": len(misses),
            "hit_p50_ms": percentile(hits, 50) * 1000.0,
            "miss_p50_ms": percentile(misses, 50) * 1000.0,
        }
        answered = len(latencies) - self.main_mismatches
        self.metrics.update({
            "timeline_p50_ms": percentile(latencies, 50) * 1000.0,
            "timeline_p90_ms": p90 * 1000.0,
            "timeline_qps": answered / result["timed_seconds"],
        })
        writes = result["writes"]
        ingest = [w[1] for w in writes if w[2]]
        late = [w[0] for w in writes]
        self.report["checks"]["timed_writes"] = len(ingest)
        self.metrics.update({
            "ingest_p50_ms": percentile(ingest, 50) * 1000.0,
            "ingest_p90_ms": percentile(ingest, 90) * 1000.0,
            "loadgen.late_p90_ms": percentile(late, 90) * 1000.0,
            "loadgen.late_max_ms": max(late, default=0.0) * 1000.0,
            "loadgen.attempted": float(self.attempted),
        })

    def served_layers(self, result: dict) -> None:
        delta, after = result["delta"], result["after"]
        front = "router" if self.workload == "routed-cold" else "serve"
        hits = delta.get(f"{front}_cache_hits_total", 0.0)
        misses = delta.get(f"{front}_cache_misses_total", 0.0)
        p50 = '{quantile="0.5"}'
        self.metrics.update({
            "serve.cache_hit_ratio": ratio(hits, hits + misses),
            "serve.batch_size_mean": ratio(
                delta.get("serve_batch_size_sum", 0.0),
                delta.get("serve_batch_size_count", 0.0),
            ),
            "serve.coalesced": delta.get(
                f"{front}_coalesced_requests_total", 0.0),
            "serve.shed": delta.get(f"{front}_shed_total", 0.0),
            "router.fanout_p50_ms": 1000.0 * after.get(
                f"router_fanout_seconds{p50}", 0.0),
            "router.merge_p50_ms": 1000.0 * after.get(
                f"router_merge_seconds{p50}", 0.0),
            "pool.reuse_ratio": ratio(
                delta.get("pool_reuses_total", 0.0),
                delta.get("pool_reuses_total", 0.0)
                + delta.get("pool_opens_total", 0.0),
            ),
            "router.binary_frame_ratio": ratio(
                delta.get("router_binary_frames_total", 0.0),
                delta.get("router_shard_requests_total", 0.0),
            ),
            "router.shard_retries": delta.get(
                "router_shard_retries_total", 0.0),
            "replica.hedges": delta.get("replica_hedges_total", 0.0),
            "ingest.seal_p50_ms": 1000.0 * after.get(
                f"ingest_seal_seconds{p50}", 0.0),
            "ingest.segments_sealed": delta.get(
                "ingest_segments_sealed_total", 0.0),
            "ingest.invalidated_days": delta.get(
                "ingest_invalidated_days_total", 0.0),
            "serve.invalidated_results": delta.get(
                "serve_ingest_invalidated_results_total", 0.0),
        })

    def library_layers(self, indices: List[int], served: Dict[int, float],
                       single: Optional[Dict[int, float]]) -> None:
        """Per-layer times from replaying the served queries over the
        served snapshot, as the server maps it; HTTP and router hops as
        served minus library (or routed minus single) on shared queries."""
        from layers import ROOT_SPAN, SpanLog, load_system, replay, traced_replay

        indices = indices[:LIBRARY_QUERIES]
        queries = [self.parse(self.stream[i]) for i in indices]
        untraced = dict(zip(indices, replay(load_system(self.snapshot),
                                            queries)))
        log = SpanLog()
        replayed = queries[:TRACED_QUERIES]
        traced = traced_replay(self.snapshot, replayed, log)
        spans_path = OUT_DIR / (
            f"spans-{self.workload}-seed{self.args.seed}.json")
        log.write(spans_path)
        self.report["spans_file"] = str(spans_path.relative_to(ROOT))

        def p50_ms(values):
            return percentile(values, 50) * 1000.0

        def counter_p50(name):
            return percentile(
                [c.get(name, 0.0) for c in traced["counters"]], 50)

        matrix_hits = sum(c.get("prune.day_matrix_hits", 0.0)
                          for c in traced["counters"])
        matrix_all = matrix_hits + sum(
            c.get("prune.day_matrix_misses", 0.0) for c in traced["counters"])
        seconds = traced["seconds"]
        analysis = traced["analysis"]
        self.metrics.update({
            "search.fetch_ms": p50_ms(seconds.get("search.fetch", [])),
            "search.candidates": counter_p50("realtime.candidates"),
            "date_selection.ms": p50_ms(seconds.get("date_selection", [])),
            "date_selection.graph_dates": counter_p50(
                "prune.graph_dates_considered"),
            "daily.ms": p50_ms(seconds.get("daily", [])),
            "daily.sentences_ranked": counter_p50("daily.sentences_ranked"),
            "daily.matrix_hit_ratio": ratio(matrix_hits, matrix_all),
            "postprocess.ms": p50_ms(seconds.get("postprocess", [])),
            "analysis.hit_ratio": ratio(
                analysis["hits"], analysis["hits"] + analysis["misses"]),
            "analysis.tokenize_ms": (
                1000.0 * analysis["tokenize_seconds"] / len(replayed)),
            "library.ms": p50_ms(list(untraced.values())),
            "library.self_ms": p50_ms(traced["self_seconds"][ROOT_SPAN]),
            "trace.overhead_ms": (
                p50_ms(seconds[ROOT_SPAN])
                - p50_ms(traced["untraced_seconds"])),
        })

        def shared_p50_ms(latencies: Dict[int, float], keys) -> float:
            return p50_ms([latencies[k] for k in keys])

        http_base = single if single is not None else served
        shared = sorted(set(http_base) & set(untraced))
        self.metrics["serve.http_ms"] = (
            shared_p50_ms(http_base, shared) - shared_p50_ms(untraced, shared))
        if single is not None:
            shared = sorted(set(served) & set(single))
            self.metrics["router.hop_ms"] = (
                shared_p50_ms(served, shared) - shared_p50_ms(single, shared))
        else:
            self.metrics["router.hop_ms"] = 0.0

    # -- the run ------------------------------------------------------------

    def execute(self) -> None:
        self.make_inputs()
        server = self.traced_setup() if self.traced else self.operator_setup()
        result = self.drive(server, "main")
        self.metrics["rss_mb"] = server.unique_rss_mib()
        self.stop(server)
        results = [result]
        single = None
        if self.traced and self.workload == "routed-cold":
            # The router hop: the same queries through one single server.
            server = self.boot(
                self.serve_argv(self.snapshot, "single", routed=False),
                "single")
            results.append(self.drive(server, "single"))
            self.stop(server)
            single = latency_by_query(results[1])
        if self.workload == "cold-ingest":
            self.check_ingest(result)
            indices = sorted(latency_by_query(result))
        else:
            indices = self.check_cold(results)
        self.end_to_end(result)
        self.report["checks"]["tail_rule_ok"] = self.tail_ok
        self.checks_passed = self.checks_ok and self.tail_ok
        if self.traced:
            self.served_layers(result)
            self.library_layers(indices, latency_by_query(result), single)
        self.metrics["error_rate"] = self.failed / max(self.attempted, 1)

    def close(self) -> None:
        for server in list(self.servers):
            server.stop()
        self.servers.clear()


def latency_by_query(result: dict) -> Dict[int, float]:
    """Median served latency per query index (over its successful reads)."""
    grouped: Dict[int, List[float]] = {}
    for index, latency, ok, _, _ in result["samples"]:
        if ok:
            grouped.setdefault(index, []).append(latency)
    return {index: statistics.median(v) for index, v in grouped.items()}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="corpus scale per topic (default %(default)s)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Unwind on SIGTERM too, so every server started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args, work)
    try:
        run.execute()
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)

    names = PER_LAYER if run.traced else END_TO_END
    missing = [name for name in names if name not in run.metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "host": host_stamp(),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in sorted(run.metrics.items())},
        **run.report,
    }
    report_path = OUT_DIR / (
        f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.checks_passed and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
