"""Seeded inputs: the corpus, the query streams and the ingest stream.

Everything here is a pure function of ``(seed, scale)``; the system
under test only ever sees the files and request bodies built from it.
"""

from __future__ import annotations

import datetime
import json
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.tlsdata.synthetic import make_timeline17_like
from repro.tlsdata.types import Article, Corpus

#: Distinct timeline17 topics in the corpus.
TOPICS = 4
#: Share of each topic (by publication date) in the cold-ingest base index.
BASE_SHARE = 0.7
#: Timeline length asked of every query.
NUM_DATES = 10
#: Shortest query window, in days.
MIN_WINDOW_DAYS = 30
#: Step of the low-discrepancy sequence that spreads window lengths.
GOLDEN_RATIO_CONJUGATE = 0.6180339887498949


@dataclass(frozen=True)
class Inputs:
    topics: Tuple[Corpus, ...]

    @property
    def articles(self) -> List[Article]:
        return [article for topic in self.topics for article in topic.articles]

    def split(self) -> Tuple[List[Article], List[Article]]:
        """``(base, held_out)``: the first 70% of each topic by date, and
        the rest merged across topics in publication-date order."""
        base: List[Article] = []
        held_out: List[Article] = []
        for topic in self.topics:
            ordered = sorted(
                topic.articles,
                key=lambda a: (a.publication_date, a.article_id),
            )
            cut = int(len(ordered) * BASE_SHARE)
            base.extend(ordered[:cut])
            held_out.extend(ordered[cut:])
        held_out.sort(key=lambda a: (a.publication_date, a.article_id))
        return base, held_out


def make_inputs(seed: int, scale: float) -> Inputs:
    """Four distinct topic corpora of ``make_timeline17_like``.

    Instances of one topic share their articles, so topics are
    deduplicated by name, never by instance.
    """
    dataset = make_timeline17_like(scale=scale, seed=seed)
    by_topic = {}
    for instance in dataset.instances:
        by_topic.setdefault(instance.name.split("/")[0], instance.corpus)
    return Inputs(topics=tuple(list(by_topic.values())[:TOPICS]))


def query_stream(inputs: Inputs, seed: int, count: int) -> List[bytes]:
    """*count* distinct ``POST /v1/timeline`` bodies.

    Each picks a topic, a 1-3 keyword subset of its query terms and a
    random window of at least :data:`MIN_WINDOW_DAYS` days inside it.
    The mix is stratified so that every seed asks for work of the same
    shape: topics take turns, keyword counts cycle through 1-3, and
    window lengths follow a golden-ratio sequence over their range. The
    seed picks the keywords and where each window starts.
    """
    rng = random.Random(f"perfbench-queries-{seed}")
    seen = set()
    bodies: List[bytes] = []
    topics = inputs.topics
    slot = 0
    while len(bodies) < count:
        topic = topics[slot % len(topics)]
        terms = list(topic.query)
        size = 1 + (slot // len(topics)) % min(3, len(terms))
        keywords = rng.sample(terms, size)
        span = (topic.end - topic.start).days
        shortest = min(MIN_WINDOW_DAYS, span)
        share = (slot * GOLDEN_RATIO_CONJUGATE) % 1.0
        length = shortest + int(share * (span - shortest))
        start = topic.start + datetime.timedelta(
            days=rng.randint(0, span - length)
        )
        end = start + datetime.timedelta(days=length)
        slot += 1
        key = (frozenset(keywords), start, end)
        if key in seen:
            continue
        seen.add(key)
        bodies.append(
            json.dumps(
                {
                    "keywords": keywords,
                    "start": start.isoformat(),
                    "end": end.isoformat(),
                    "num_dates": NUM_DATES,
                }
            ).encode()
        )
    return bodies


def ingest_bodies(
    articles: Sequence[Article], per_batch: int
) -> List[bytes]:
    """Synchronous ``POST /v1/ingest`` bodies, in the given order."""
    bodies = []
    for offset in range(0, len(articles), per_batch):
        batch = articles[offset:offset + per_batch]
        bodies.append(
            json.dumps(
                {
                    "articles": [
                        {
                            "article_id": a.article_id,
                            "publication_date": a.publication_date.isoformat(),
                            "title": a.title,
                            "text": a.text,
                        }
                        for a in batch
                    ],
                    "sync": True,
                }
            ).encode()
        )
    return bodies
