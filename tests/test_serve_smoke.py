"""End-to-end smoke: boot ``python -m repro serve``, curl it, SIGTERM it.

This is the same exercise the CI serve-smoke job performs, kept in the
suite so the full subprocess lifecycle (banner, ephemeral port, graceful
drain, exit code) stays covered locally.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

_BANNER = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")


@pytest.fixture()
def server_process():
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--scale", "0.02",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        port = None
        deadline = time.monotonic() + 60
        assert process.stdout is not None
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            match = _BANNER.search(line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "server never printed its banner"
        yield process, port
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def _get(port, path, timeout=60):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return response.status, response.read()


def _post_json(port, path, payload, timeout=60):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read()


@pytest.mark.slow
def test_serve_boot_request_and_graceful_sigterm(server_process):
    process, port = server_process

    status, body = _get(port, "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["indexed_sentences"] > 0

    status, body = _get(port, "/metrics")
    assert status == 200
    assert b"wilson_serve_requests_total" in body

    status, body = _post_json(
        port, "/v1/timeline", {"keywords": ["released"], "num_dates": 3}
    )
    assert status == 200
    envelope = json.loads(body)
    assert envelope["schema"] == "wilson.serve/v1"
    assert envelope["cache"] == "miss"

    process.send_signal(signal.SIGTERM)
    assert process.wait(timeout=30) == 0
    output = process.stdout.read()
    assert "shutdown: drained cleanly" in output
