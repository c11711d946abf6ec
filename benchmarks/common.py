"""Shared helpers for the benchmark / experiment-regeneration suite.

Every ``bench_*`` module regenerates one table or figure of the paper:
it runs the experiment (timed by pytest-benchmark), renders the result
with :func:`repro.experiments.tables.format_table`, prints it to the
terminal (bypassing capture) and archives it under
``benchmarks/results/``.

Scales are configurable through environment variables so the same suite
can run as a quick smoke (default) or a longer, closer-to-paper sweep:

* ``WILSON_BENCH_T17_SCALE``  (default 0.1)
* ``WILSON_BENCH_CRISIS_SCALE`` (default 0.02)
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.datasets import (
    TaggedDataset,
    standard_crisis,
    standard_timeline17,
)
from repro.experiments.tables import format_table
from repro.obs.trace import Tracer, stage_breakdown

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

T17_SCALE = float(os.environ.get("WILSON_BENCH_T17_SCALE", "0.1"))
CRISIS_SCALE = float(os.environ.get("WILSON_BENCH_CRISIS_SCALE", "0.02"))

#: Opt-in hard assertions on wall-clock *ratios* (``BENCH_ASSERT=1``).
#: Ratio asserts are meaningful on quiet dedicated hardware but flake on
#: slow shared CI runners (and single-core containers can't show
#: multi-worker speedups at all), so by default the benchmarks record
#: the numbers informationally and only enforce them when asked.
BENCH_ASSERT = os.environ.get("BENCH_ASSERT", "") == "1"


def assert_if_opted_in(condition: bool, message: str, capsys) -> None:
    """Assert *condition* under ``BENCH_ASSERT=1``; else print the verdict.

    Keeps the measured claim visible in every run's output while
    confining hard enforcement to environments that opted in.
    """
    if BENCH_ASSERT:
        assert condition, message
    elif not condition:
        with capsys.disabled():
            print(
                f"\nnote: BENCH_ASSERT off, not enforcing: {message}\n"
            )

_TAGGED_CACHE: dict = {}


def tagged_timeline17() -> TaggedDataset:
    """The timeline17-shaped benchmark dataset with cached tagging."""
    key = ("t17", T17_SCALE)
    if key not in _TAGGED_CACHE:
        _TAGGED_CACHE[key] = TaggedDataset(
            standard_timeline17(scale=T17_SCALE)
        )
    return _TAGGED_CACHE[key]


def tagged_crisis() -> TaggedDataset:
    """The crisis-shaped benchmark dataset with cached tagging."""
    key = ("crisis", CRISIS_SCALE)
    if key not in _TAGGED_CACHE:
        _TAGGED_CACHE[key] = TaggedDataset(
            standard_crisis(scale=CRISIS_SCALE)
        )
    return _TAGGED_CACHE[key]


def _metric_slug(text: object) -> str:
    """A metrics-key-safe slug: lowercase, non-alnum runs collapse to _."""
    out = "".join(
        ch if ch.isalnum() else "_" for ch in str(text).strip().lower()
    )
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_") or "value"


def table_metrics(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> Dict[str, float]:
    """Flatten one emitted table into a ``{row.column: value}`` dict.

    Row labels come from the first column; numeric cells (including
    numeric strings) become leaves keyed ``<row>.<column>`` so every
    figure/table bench archives its numbers machine-readably without a
    bespoke schema per table.  Annotation cells (``"3.1x"``, dataset
    names) are dropped; quality scores survive but are descriptive to
    ``compare_baselines.py`` (only seconds/speedup paths are compared).
    """
    metrics: Dict[str, float] = {}
    for row in rows:
        row_key = _metric_slug(row[0])
        for header, cell in zip(headers[1:], row[1:]):
            if isinstance(cell, bool):
                continue
            if isinstance(cell, (int, float)):
                value = float(cell)
            else:
                try:
                    value = float(str(cell))
                except ValueError:
                    continue
            metrics[f"{row_key}.{_metric_slug(header)}"] = value
    return metrics


def emit(
    name: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str,
    capsys,
    notes: Optional[List[str]] = None,
    json_out: Optional[str] = None,
) -> str:
    """Render, print (uncaptured) and archive one experiment table.

    With *json_out* set (route the ``json_out`` fixture through), the
    table's numeric cells are also written as ``BENCH_<name>.json`` via
    :func:`write_json_result` so the whole suite has machine-readable
    history.
    """
    table = format_table(headers, rows, title=title)
    if notes:
        table = table + "\n" + "\n".join(f"  note: {n}" for n in notes)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n", encoding="utf-8")
    if json_out is not None:
        write_json_result(name, table_metrics(headers, rows), json_out)
    with capsys.disabled():
        print(f"\n{table}\n")
    return table


def _git_sha() -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_json_result(
    name: str,
    metrics: Dict[str, object],
    json_out: Optional[str],
) -> Optional[pathlib.Path]:
    """Write ``BENCH_<name>.json`` under *json_out* (no-op when ``None``).

    The payload carries the benchmark's metrics dict verbatim plus the
    git SHA and a UTC timestamp, so results from sweeps across commits
    can be compared mechanically (the ``--json-out`` CLI option routes
    here via the ``json_out`` fixture).
    """
    if json_out is None:
        return None
    directory = pathlib.Path(json_out)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    payload = {
        "benchmark": name,
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
        "metrics": metrics,
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def timed(fn: Callable, *args, **kwargs) -> Tuple[object, float]:
    """Run ``fn(*args, **kwargs)``; return ``(result, seconds)``.

    Always measures with the monotonic ``time.perf_counter`` -- the single
    sanctioned wall-clock for benchmark durations (docs/observability.md).
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def emit_stage_breakdown(
    name: str,
    tracer: Tracer,
    title: str,
    capsys,
    notes: Optional[List[str]] = None,
    json_out: Optional[str] = None,
) -> str:
    """Render + archive a per-stage breakdown table from a traced run.

    Rows follow the span-name contract of docs/observability.md, in
    execution order, with durations aggregated across repeated spans
    (e.g. one ``daily.rank_day`` per selected date).
    """
    rows = [
        [span_name, f"{seconds * 1e3:.1f}", f"{percent:.1f}%"]
        for span_name, seconds, percent in stage_breakdown(tracer)
    ]
    return emit(
        name,
        ["stage (span)", "total ms", "% of run"],
        rows,
        title=title,
        capsys=capsys,
        notes=notes,
        json_out=json_out,
    )
