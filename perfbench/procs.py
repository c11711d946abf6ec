"""Booting, probing, measuring and stopping the system's own processes.

Every server is started the way an operator starts it -- ``python -m
repro serve ...`` in a new session -- and stopped with SIGTERM, falling
back to SIGKILL for the whole process group, until none is left.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BANNER = re.compile(
    r"^(?:serving|routing) on http://127\.0\.0\.1:(\d+) .*warmup ([0-9.]+)s",
    re.MULTILINE,
)
PROMETHEUS_LINE = re.compile(r"^wilson_([A-Za-z0-9_]+)(\{[^}]*\})? (\S+)$")


class BootError(RuntimeError):
    """A server did not come up or answered its probe with an error."""


def child_env(root: Path, workdir: Path) -> Dict[str, str]:
    """The environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # Keeps temporary files (e.g. multiprocessing's) inside the checkout.
    env["TMPDIR"] = str(workdir)
    # The workers' fault-injection knob would slow every shard answer.
    env.pop("WILSON_SERVE_TEST_DELAY_MS", None)
    return env


def repro_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def post(port: int, path: str, body: bytes,
         timeout: float = 60.0) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape(port: int) -> Dict[str, float]:
    """``GET /metrics`` as ``{name or name{labels}: value}``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    values: Dict[str, float] = {}
    for line in text.splitlines():
        match = PROMETHEUS_LINE.match(line)
        if match:
            values[match.group(1) + (match.group(2) or "")] = float(
                match.group(3)
            )
    return values


class Server:
    """One ``repro serve`` process tree, logged to a file."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str],
                 log_path: Path, cwd: Path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            list(argv), stdout=self._log, stderr=subprocess.STDOUT,
            env=env, cwd=cwd, start_new_session=True,
        )
        self.port: Optional[int] = None
        self.warmup_s: Optional[float] = None

    def wait_ready(self, timeout: float = 120.0) -> int:
        """Block until the ready banner names the bound port."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                self.warmup_s = float(match.group(2))
                return self.port
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise BootError(
            f"server did not become ready; log:\n"
            f"{self.log_path.read_text(errors='replace')[-2000:]}"
        )

    def pids(self) -> List[int]:
        """The server and every live descendant."""
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            for task in Path(f"/proc/{pid}/task").glob("*/children"):
                try:
                    frontier.extend(int(c) for c in task.read_text().split())
                except OSError:
                    pass
        return found

    def unique_rss_mib(self) -> float:
        """Summed private (unique) RSS of the whole process tree."""
        total_kib = 0
        for pid in self.pids():
            try:
                text = Path(f"/proc/{pid}/smaps_rollup").read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (a graceful drain), then SIGKILL whatever of the
        process group is left; return once none of it runs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        pgid = self.process.pid
        deadline = time.monotonic() + timeout
        while group_alive(pgid):
            if time.monotonic() > deadline:
                raise RuntimeError(f"process group {pgid} outlived SIGKILL")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        self._log.close()


def group_alive(pgid: int) -> bool:
    """Whether any non-zombie process still belongs to group *pgid*."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False
