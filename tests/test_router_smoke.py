"""End-to-end sharded smoke: ``serve --shards 2``, kill a shard, drain.

Mirrors the CI router-smoke drill: boot the sharded topology as real
subprocesses, probe the router over HTTP, kill one shard worker and
confirm the router degrades (HTTP 200 + ``X-Wilson-Degraded``) instead
of failing, then SIGTERM the router and confirm a clean drain.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from tests.conftest import wait_until

_ROUTER_BANNER = re.compile(r"routing on http://127\.0\.0\.1:(\d+)")
_SHARD_BANNER = re.compile(r"shard (\d+): pid (\d+) on http://")


@pytest.fixture()
def sharded_process():
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--shards", "2", "--port", "0",
            "--scale", "0.02",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        port = None
        shard_pids = {}
        deadline = time.monotonic() + 120
        assert process.stdout is not None
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            shard = _SHARD_BANNER.search(line)
            if shard:
                shard_pids[int(shard.group(1))] = int(shard.group(2))
            match = _ROUTER_BANNER.search(line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "router never printed its banner"
        assert sorted(shard_pids) == [0, 1], shard_pids
        yield process, port, shard_pids
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def _get(port, path, timeout=60):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return response.status, dict(response.getheaders()), response.read()


def _post_json(port, path, payload, timeout=120):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.getheaders()), response.read()


@pytest.mark.slow
def test_sharded_serve_degrades_and_drains(sharded_process):
    process, port, shard_pids = sharded_process

    status, _, body = _get(port, "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["shards"] == 2
    assert health["shards_healthy"] == 2

    status, _, body = _get(port, "/metrics")
    assert status == 200
    assert b"wilson_router_requests_total" in body

    payload = {"keywords": ["released"], "num_dates": 3}
    status, headers, body = _post_json(port, "/v1/timeline", payload)
    assert status == 200
    envelope = json.loads(body)
    assert envelope["schema"] == "wilson.serve/v1"
    assert "X-Wilson-Degraded" not in headers

    # Kill shard 1 and wait until the router sees the outage. (Polling
    # the pid would hang: the worker stays a zombie until the serve
    # process reaps it at drain, and ``os.kill(pid, 0)`` still
    # succeeds on a zombie.)
    os.kill(shard_pids[1], signal.SIGKILL)
    wait_until(
        lambda: json.loads(_get(port, "/healthz")[2])["shards_healthy"] == 1,
        timeout_seconds=30,
        message="the router to notice the dead shard",
    )

    # A fresh query (the earlier one is now served from the healthy
    # merge cache) must scatter, notice the outage, and degrade.
    degraded_payload = {"keywords": ["released"], "num_dates": 4}
    status, headers, body = _post_json(
        port, "/v1/timeline", degraded_payload
    )
    assert status == 200
    assert headers.get("X-Wilson-Degraded") == "1"
    envelope = json.loads(body)
    assert envelope["degraded_shards"] == [1]
    assert envelope["cache"] == "miss"

    status, _, body = _get(port, "/healthz")
    assert status == 200
    assert json.loads(body)["shards_healthy"] == 1

    process.send_signal(signal.SIGTERM)
    assert process.wait(timeout=30) == 0
    output = process.stdout.read()
    assert "shutdown: drained cleanly" in output
