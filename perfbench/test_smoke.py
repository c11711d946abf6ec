"""Smoke-sized self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs every workload at a tiny corpus scale, untraced and traced, and
checks the output contract: every named metric with its unit, the
correctness checks having run and passed, and the p90 tail rule.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, MIN_TAIL_SAMPLES, PER_LAYER, WORKLOADS  # noqa: E402

SMOKE = ["--seconds", "5", "--scale", "0.05"]


def bench(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), *SMOKE],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_result(result: dict, names: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == set(names)
    for name, unit in names.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))


def check_report(report: dict, workload: str) -> None:
    checks = report["checks"]
    assert checks["bytes_compared"] >= 1
    assert checks["byte_mismatches"] == 0, checks["mismatched_requests"]
    timed = checks["timed_reads"]
    assert timed >= MIN_TAIL_SAMPLES
    # At least ten samples lie beyond the p90.
    assert checks["tail_samples_beyond_p90"] >= 10
    assert checks["tail_rule_ok"] is True
    for key in ("cpus", "python", "platform", "calibration_ms"):
        assert key in report["host"]
    for phase in ("main.warmup", "main.timed", "main.writes", "main.verify"):
        assert set(report["phases"][phase]) >= {"sent", "succeeded", "failed"}
    if workload == "cold-ingest":
        assert checks["writes_sealed"] == checks["writes_planned"] >= 1
    else:
        assert checks["cold_cache_hits"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    report, result = bench(workload, 0)
    check_result(result, END_TO_END)
    assert result["correct"] is True and result["failed"] == 0
    check_report(report, workload)
    assert result["metrics"]["setup_s"]["value"] > 0
    assert result["metrics"]["timeline_qps"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    report, result = bench(workload, 1)
    check_result(result, PER_LAYER)
    assert result["correct"] is True and result["failed"] == 0
    check_report(report, workload)
    spans = json.loads((ROOT / report["spans_file"]).read_text())["spans"]
    names = {span["name"] for span in spans}
    assert {"library", "search.fetch", "date_selection", "daily",
            "postprocess"} <= names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["library.ms"] > 0 and values["setup.index_s"] > 0
    if workload == "routed-cold":
        assert values["router.fanout_p50_ms"] > 0
        assert values["pool.reuse_ratio"] > 0
    if workload == "cold-ingest":
        assert values["ingest.segments_sealed"] >= 1
        assert values["ingest_p50_ms"] > 0


def test_refuses_to_run_without_the_program():
    """A directory holding only the benchmark fails without a result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "single-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""
