"""Admission control for the serving tier: bound the work, shed the rest.

A timeline request is orders of magnitude heavier than an HTTP accept,
so an unbounded service melts under a burst long before the OS notices.
:class:`AdmissionController` enforces one invariant -- at most
``max_inflight`` timeline requests admitted (executing) at any
instant -- and turns everything beyond it into an
immediate, cheap ``429 Too Many Requests`` with a ``Retry-After`` hint,
which is the documented load-shedding contract (docs/serving.md):
saturation degrades into fast rejections, never into 5xx errors or
unbounded queue growth.

It also owns the graceful-drain state machine: after
:meth:`begin_drain` no new request is admitted (they get 503 +
``Retry-After``), while already-admitted requests run to completion;
:meth:`wait_idle` lets the shutdown path block until the last one
finishes.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Hashable, Optional, Sequence


class AdmissionController:
    """Bounded-concurrency gate with load shedding and graceful drain."""

    def __init__(
        self,
        max_inflight: int = 32,
        retry_after_seconds: float = 1.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if retry_after_seconds <= 0:
            raise ValueError(
                f"retry_after_seconds must be > 0, got {retry_after_seconds}"
            )
        self.max_inflight = max_inflight
        self.retry_after_seconds = retry_after_seconds
        self._inflight = 0
        self._admitted = 0
        self._shed = 0
        self._draining = False
        self._lock = threading.Lock()

    # -- admission -----------------------------------------------------------

    def try_admit(self) -> bool:
        """Admit one request, or refuse (full or draining).

        The caller owning a successful admission **must** pair it with
        exactly one :meth:`release`, normally via ``try/finally``.
        """
        with self._lock:
            if self._draining or self._inflight >= self.max_inflight:
                self._shed += 1
                return False
            self._inflight += 1
            self._admitted += 1
            return True

    def release(self) -> None:
        """Return one admission (request finished, however it ended)."""
        with self._lock:
            if self._inflight <= 0:
                raise RuntimeError("release() without matching try_admit()")
            self._inflight -= 1

    # -- drain ---------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; in-flight requests keep running."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_idle(self, timeout_seconds: float = 10.0) -> bool:
        """Await in-flight work completing; ``False`` on timeout.

        Polling (10 ms) instead of a condition variable keeps the
        controller usable from both sync tests and the event loop; drain
        happens once per process lifetime, so the poll cost is nil.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_seconds
        while True:
            with self._lock:
                if self._inflight == 0:
                    return True
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.01)

    # -- introspection -------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    def stats(self) -> Dict[str, int]:
        """Cumulative admitted/shed counts plus the live in-flight gauge."""
        with self._lock:
            return {
                "inflight": self._inflight,
                "admitted": self._admitted,
                "shed": self._shed,
                "draining": int(self._draining),
            }


class InflightTracker:
    """Thread-safe per-key in-flight counters (no admission verdicts).

    The load-accounting primitive under the replica selector
    (:mod:`repro.serve.health`): unlike :class:`AdmissionController`
    it never refuses work -- shedding stays the per-shard gate's job --
    it only keeps an exact concurrent-request count per key so
    power-of-two-choices can compare replica load cheaply.
    """

    def __init__(self, keys: Sequence[Hashable]) -> None:
        if not keys:
            raise ValueError("at least one key is required")
        self._counts: Dict[Hashable, int] = {key: 0 for key in keys}
        if len(self._counts) != len(keys):
            raise ValueError(f"duplicate keys in {keys!r}")
        self._lock = threading.Lock()

    def acquire(self, key: Hashable) -> None:
        """Count one request in flight on *key* (pair with release)."""
        with self._lock:
            self._counts[key] += 1

    def release(self, key: Hashable) -> None:
        """Return one in-flight count on *key*."""
        with self._lock:
            if self._counts[key] <= 0:
                raise RuntimeError(
                    f"release({key!r}) without matching acquire()"
                )
            self._counts[key] -= 1

    def get(self, key: Hashable) -> int:
        with self._lock:
            return self._counts[key]

    def snapshot(self) -> Dict[Hashable, int]:
        """A copy of every key's current in-flight count."""
        with self._lock:
            return dict(self._counts)


class ShardAdmission:
    """Per-shard admission gates for the scatter-gather router.

    One :class:`AdmissionController` per shard, so a slow or dead shard
    saturates only its own in-flight budget: the router keeps fanning
    out to healthy shards while requests queued on the sick one are
    bounded. Drain applies to all gates at once -- the router drains as
    a unit, not shard-by-shard.
    """

    def __init__(
        self,
        num_shards: int,
        max_inflight_per_shard: int = 32,
        retry_after_seconds: float = 1.0,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.retry_after_seconds = retry_after_seconds
        self._controllers: Dict[int, AdmissionController] = {
            shard_id: AdmissionController(
                max_inflight=max_inflight_per_shard,
                retry_after_seconds=retry_after_seconds,
            )
            for shard_id in range(num_shards)
        }

    def try_admit(self, shard_id: int) -> bool:
        """Admit one request to *shard_id*'s gate (pair with release)."""
        return self._controllers[shard_id].try_admit()

    def release(self, shard_id: int) -> None:
        """Return one admission on *shard_id*'s gate."""
        self._controllers[shard_id].release()

    def begin_drain(self) -> None:
        """Stop admitting on every shard gate."""
        for controller in self._controllers.values():
            controller.begin_drain()

    @property
    def draining(self) -> bool:
        return any(
            controller.draining
            for controller in self._controllers.values()
        )

    async def wait_idle(self, timeout_seconds: float = 10.0) -> bool:
        """Await all shard gates idling; ``False`` on timeout."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_seconds
        for controller in self._controllers.values():
            remaining = max(0.0, deadline - loop.time())
            if not await controller.wait_idle(remaining):
                return False
        return True

    def inflight(self, shard_id: Optional[int] = None) -> int:
        """In-flight count on one shard gate, or the sum over all."""
        if shard_id is not None:
            return self._controllers[shard_id].inflight
        return sum(
            controller.inflight
            for controller in self._controllers.values()
        )

    def stats(self) -> Dict[int, Dict[str, int]]:
        """Per-shard :meth:`AdmissionController.stats` keyed by shard id."""
        return {
            shard_id: controller.stats()
            for shard_id, controller in self._controllers.items()
        }
