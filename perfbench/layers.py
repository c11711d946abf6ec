"""In-process replay of the query stream through the library.

The untraced pass times ``RealTimeTimelineSystem.generate_timeline`` per
query; :func:`reference` gives the byte-level answers the served ones
must equal. The traced pass wraps each layer's public entry point in a span of the
benchmark's own (nothing inside ``src/`` changes), passes a program
``Tracer`` through the public ``tracer=`` argument for its counters,
and reads ``TokenCache.stats()`` deltas for the analysis layer.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import json
import multiprocessing
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import repro.core.pipeline as pipeline_module
from repro.core.daily import DailySummarizer
from repro.core.pipeline import Wilson, WilsonConfig
from repro.obs.trace import Tracer
from repro.search.engine import SearchEngine
from repro.search.realtime import RealTimeTimelineSystem, TimelineQuery
from repro.serve.app import canonical_json

#: (owner, attribute, span name): the layer boundaries the spans wrap.
LAYER_CALLS = (
    (SearchEngine, "fetch_dated_sentences", "search.fetch"),
    (Wilson, "select_dates", "date_selection"),
    (DailySummarizer, "rank_days", "daily"),
    (pipeline_module, "assemble_timeline", "postprocess"),
)
ROOT_SPAN = "library"
#: Processes computing reference answers: one per CPU of a 2-CPU host,
#: once the servers are stopped.
REFERENCE_WORKERS = 2
#: How every system here and every server the benchmark boots restores
#: the snapshot. A ``copy`` load interns the whole vocabulary up front;
#: an ``mmap`` load interns it lazily, query by query, so a served
#: answer would depend on the queries answered before (see README.md).
SNAPSHOT_MODE = "copy"


class SpanLog:
    """Spans kept in memory: name, start, end, parent and request id."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.request: Optional[int] = None
        self._open: List[dict] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "request": self.request,
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper

    def self_seconds(self) -> Dict[int, float]:
        """Each span's duration minus the time its children cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (
                    covered.get(span["parent"], 0.0)
                    + span["end"] - span["start"]
                )
        return {
            span["id"]: span["end"] - span["start"] - covered.get(span["id"], 0.0)
            for span in self.spans
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}))


@contextlib.contextmanager
def layer_spans(log: SpanLog) -> Iterator[None]:
    """Wrap every entry point of :data:`LAYER_CALLS` for the duration."""
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in LAYER_CALLS]
    try:
        for owner, attr, name in LAYER_CALLS:
            setattr(owner, attr, log.wrap(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def index_articles(articles) -> SearchEngine:
    """An engine indexed from *articles*, as ``repro snapshot`` builds it."""
    engine = SearchEngine()
    engine.add_articles(articles)
    return engine


def load_system(snapshot: Path) -> RealTimeTimelineSystem:
    """A library system over a saved snapshot, loaded as ``serve`` loads it."""
    wilson = Wilson(WilsonConfig())
    engine = SearchEngine.load_snapshot(snapshot, cache=wilson.cache,
                                        mode=SNAPSHOT_MODE)
    return RealTimeTimelineSystem(engine=engine, wilson=wilson,
                                  cache=wilson.cache)


def reference(snapshot: Path, queries: Sequence[TimelineQuery]) -> List[bytes]:
    """The library's answer to each query over the served snapshot.

    Every answer is a cold generation, so :data:`REFERENCE_WORKERS`
    processes share them, each over its own load of *snapshot*. Each
    worker answers a different subset of the queries, in a different
    order from the server, so a served answer that depended on the
    queries answered before would show as a mismatch.
    """
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=REFERENCE_WORKERS,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_load_worker_system, initargs=(snapshot,),
    ) as pool:
        return list(pool.map(_answer, queries, chunksize=8))


_worker_system: Optional[RealTimeTimelineSystem] = None


def _load_worker_system(snapshot: Path) -> None:
    global _worker_system
    _worker_system = load_system(snapshot)


def _answer(query: TimelineQuery) -> bytes:
    return timeline_bytes(generate(_worker_system, query))


def timeline_bytes(response) -> bytes:
    return canonical_json(response.to_dict()["timeline"])


def generate(system: RealTimeTimelineSystem, query: TimelineQuery,
             tracer: Optional[Tracer] = None):
    return system.generate_timeline(
        query.keywords, query.start, query.end,
        num_dates=query.num_dates, num_sentences=query.num_sentences,
        tracer=tracer,
    )


def replay(system: RealTimeTimelineSystem,
           queries: Sequence[TimelineQuery]) -> List[float]:
    """Untraced pass: seconds per query, answered in order."""
    seconds = []
    for query in queries:
        started = time.perf_counter()
        generate(system, query)
        seconds.append(time.perf_counter() - started)
    return seconds


def traced_replay(snapshot: Path, queries: Sequence[TimelineQuery],
                  log: SpanLog) -> dict:
    """Traced pass: per-query span times and program counters.

    It runs on a fresh load of *snapshot*, so its analysis and day-matrix
    caches start as cold as a freshly booted server's. Each query also
    runs untraced on a twin load right beside it (alternating which goes
    first) so the tracing overhead is measured on the same queries, the
    same cache state and the same moment.
    """
    plain, traced = load_system(snapshot), load_system(snapshot)
    untraced: List[float] = []
    counters: List[Dict[str, float]] = []
    analysis = {"hits": 0, "misses": 0, "tokenize_seconds": 0.0}
    for number, query in enumerate(queries):
        for turn in ((0, 1) if number % 2 == 0 else (1, 0)):
            if turn == 0:
                started = time.perf_counter()
                generate(plain, query)
                untraced.append(time.perf_counter() - started)
                continue
            log.request = number
            tracer = Tracer()
            before = traced.cache.stats()
            with layer_spans(log), log.span(ROOT_SPAN):
                generate(traced, query, tracer)
            delta = traced.cache.stats().delta(before)
            analysis["hits"] += delta.hits
            analysis["misses"] += delta.misses
            analysis["tokenize_seconds"] += delta.tokenize_seconds
            counters.append(dict(tracer.counters))
    self_seconds = log.self_seconds()
    by_name: Dict[str, List[float]] = {}
    self_by_name: Dict[str, List[float]] = {}
    for span in log.spans:
        by_name.setdefault(span["name"], []).append(span["end"] - span["start"])
        self_by_name.setdefault(span["name"], []).append(self_seconds[span["id"]])
    return {
        "untraced_seconds": untraced,
        "seconds": by_name,
        "self_seconds": self_by_name,
        "counters": counters,
        "analysis": analysis,
    }
