"""The load generator: one process, at most two client threads.

Usage: ``python3 loadgen.py PLAN.json RESULT.json``

The plan names the server, the timed duration, the read traffic and an
optional open-loop writer. Reads are closed-loop: each client sends its
next request once the previous answer is read, and the clients walk one
shared list of distinct bodies, so no request repeats. The writer sends
its bodies on a fixed schedule and times each from when it was due, so
a stall also charges the writes queued behind it.

A request fails on any status other than 200 (429 and 503 included),
an ``X-Wilson-Degraded`` header, or a transport error. Stdlib only.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HEADERS = {"Content-Type": "application/json"}


class Client:
    """One keep-alive connection that reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: bytes) -> Tuple[int, bool, bytes]:
        """``(status, degraded, body)``; status 0 on a transport error."""
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=60
                )
            self.conn.request("POST", path, body, HEADERS)
            response = self.conn.getresponse()
            data = response.read()
            degraded = response.getheader("X-Wilson-Degraded") is not None
            if response.getheader("Connection", "").lower() == "close":
                self.close()
            return response.status, degraded, data
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, False, repr(exc).encode()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Phase:
    """Sent / succeeded / failed for one phase, safe across threads."""

    def __init__(self) -> None:
        self.sent = self.succeeded = self.failed = 0
        self.statuses: Dict[str, int] = {}
        self.lock = threading.Lock()

    def record(self, status: int, degraded: bool) -> bool:
        ok = status == 200 and not degraded
        key = "degraded" if degraded else str(status)
        with self.lock:
            self.sent += 1
            if ok:
                self.succeeded += 1
            else:
                self.failed += 1
            self.statuses[key] = self.statuses.get(key, 0) + 1
        return ok

    def as_dict(self) -> dict:
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "statuses": dict(sorted(self.statuses.items())),
        }


def run_clients(count: int, target) -> None:
    threads = [
        threading.Thread(target=target, args=(i,), daemon=True)
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def send_each(host: str, port: int, bodies: List[bytes], phase: Phase,
              clients: int) -> List[Optional[str]]:
    """Send every body once across *clients* threads; keep the answers."""
    answers: List[Optional[str]] = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def worker(_: int) -> None:
        client = Client(host, port)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            status, degraded, data = client.post("/v1/timeline", bodies[index])
            if phase.record(status, degraded):
                answers[index] = data.decode()
        client.close()

    run_clients(clients, worker)
    return answers


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    host, port = plan["host"], plan["port"]
    reads = plan["reads"]
    bodies = [body.encode() for body in reads["bodies"]]
    clients = reads["clients"]
    phases = {name: Phase() for name in ("warmup", "timed", "writes", "verify")}

    send_each(host, port, [b.encode() for b in reads["warmup"]],
              phases["warmup"], clients)

    seconds = plan["seconds"]
    # (body index, latency, ok, sent at (seconds into the timed phase),
    # answered from the result cache)
    samples: List[Tuple[int, float, bool, float, bool]] = []
    kept: Dict[int, str] = {}
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds
    finished = [started] * clients
    cursor = iter(range(len(bodies)))
    keep_bodies = reads.get("keep_bodies", False)

    def reader(slot: int) -> None:
        client = Client(host, port)
        while time.perf_counter() < deadline:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            sent = time.perf_counter()
            status, degraded, data = client.post("/v1/timeline", bodies[index])
            latency = time.perf_counter() - sent
            ok = phases["timed"].record(status, degraded)
            # Canonical JSON sorts keys, so "cache" leads the body.
            hit = ok and b'"cache":"hit"' in data[:32]
            with lock:
                samples.append((index, latency, ok, sent - started, hit))
                if ok and keep_bodies:
                    kept[index] = data.decode()
        finished[slot] = time.perf_counter()
        client.close()

    writes: List[Tuple[float, float, bool]] = []  # (late, latency, ok)
    writer_plan = plan.get("writer")

    def writer() -> None:
        client = Client(host, port)
        interval = writer_plan["interval"]
        for number, body in enumerate(writer_plan["bodies"]):
            due = started + number * interval
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            status, degraded, _ = client.post("/v1/ingest", body.encode())
            done = time.perf_counter()
            ok = phases["writes"].record(status, degraded)
            writes.append((sent - due, done - due, ok))
        client.close()

    write_thread = None
    if writer_plan is not None:
        write_thread = threading.Thread(target=writer, daemon=True)
        write_thread.start()
    run_clients(clients, reader)
    timed_seconds = max(finished) - started
    if write_thread is not None:
        write_thread.join()

    verify = send_each(host, port, [b.encode() for b in plan["verify"]],
                       phases["verify"], 1)

    result = {
        "timed_seconds": timed_seconds,
        "phases": {name: phase.as_dict() for name, phase in phases.items()},
        "samples": samples,
        "bodies": {str(index): body for index, body in kept.items()},
        "writes": writes,
        "verify": verify,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
