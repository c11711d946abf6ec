"""Single-flight coalescing: the thundering-herd and its race windows.

Over real sockets: N identical concurrent cold requests produce
exactly one computation (one ``miss``, the rest served from the flight
or the cache). Then, with a scripted compute hook for deterministic
timing, the three races docs/architecture.md promises are closed -- on
both fronts, since both run the one request loop of
:class:`~repro.serve.app.HttpServerBase`:

* a **failing leader** never poisons its followers -- they retry
  independently and succeed;
* an **invalidation between leader start and finish** discards the
  leader's result for followers too (the store verdict is the flight's
  validity), so nobody serves a stale timeline. On the single server
  the invalidation is a seal sweep that moves the cache generation; on
  the router it is a shard-version bump;
* **drain while followers wait** resolves them with a clean 503 --
  no hang, no late work started on a draining front.
"""

import asyncio
import json
import threading

import pytest

from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    WIRE_SCHEMA,
    BackgroundServer,
    RouterConfig,
    ServeConfig,
    TimelineRouter,
    TimelineServer,
    canonical_json,
    export_slices,
)
from repro.serve.app import _Computed, _Request, _Response, error_response
from repro.tlsdata.synthetic import make_timeline17_like
from tests.test_serve_app import _request, _timeline_payload


@pytest.fixture(scope="module")
def instance():
    return make_timeline17_like(scale=0.02, seed=11).instances[0]


@pytest.fixture(scope="module")
def system(instance):
    system = RealTimeTimelineSystem()
    system.ingest(instance.corpus.articles)
    return system


@pytest.fixture(scope="module")
def topology(system, tmp_path_factory):
    return export_slices(
        system.engine.index, tmp_path_factory.mktemp("topology"), 2
    )


def _server(system):
    return TimelineServer(system, ServeConfig(port=0))


def _router(topology):
    # Never started and never fanned out to: the compute hook is
    # scripted, so the endpoints only have to parse.
    return TimelineRouter(
        topology,
        ["http://127.0.0.1:9"] * topology.num_shards,
        config=RouterConfig(port=0),
    )


class TestHerdCollapse:
    def test_identical_concurrent_misses_compute_once(
        self, system, instance
    ):
        config = ServeConfig(port=0)
        with BackgroundServer(TimelineServer(system, config)) as server:
            payload = _timeline_payload(instance)
            outcomes = []
            lock = threading.Lock()

            def fire():
                status, _, raw = _request(
                    server, "POST", "/v1/timeline", payload
                )
                with lock:
                    outcomes.append((status, raw))

            threads = [
                threading.Thread(target=fire) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert [status for status, _ in outcomes] == [200] * 8
            states = [
                json.loads(raw)["cache"] for _, raw in outcomes
            ]
            assert states.count("miss") == 1
            bodies = {
                json.dumps(
                    json.loads(raw)["result"], sort_keys=True
                )
                for _, raw in outcomes
            }
            assert len(bodies) == 1
            snapshot = server.metrics.snapshot()["counters"]
            assert snapshot.get("serve.coalesced_requests", 0) >= 1


class _ScriptedCompute:
    """Stands in for a front's compute hook: the test scripts each call.

    The first call blocks until :attr:`release` is set, so the test can
    line followers up behind it. ``"fail"`` answers with the failure
    the front's real compute gives -- the single server's 500
    ``degraded``, the router's 503 when no shard answers.
    """

    def __init__(self, front, script):
        self.front = front
        self.calls = 0
        self.entered = asyncio.Event()
        self.release = asyncio.Event()
        #: Outcomes consumed per call: "fail" or a result payload dict.
        self.script = list(script)

    async def __call__(self, query):
        self.calls += 1
        if self.calls == 1:
            self.entered.set()
            await self.release.wait()
        outcome = self.script.pop(0)
        if outcome != "fail":
            return _Computed(outcome, self.front._index_version())
        if isinstance(self.front, TimelineRouter):
            return error_response(
                503, "all shards unavailable; cannot merge"
            )
        return _Response(
            500,
            canonical_json(
                {
                    "schema": WIRE_SCHEMA,
                    "error": "degraded",
                    "detail": "scripted failure",
                }
            ),
        )


def _timeline_request(instance):
    start, end = instance.corpus.window
    body = json.dumps(
        {
            "keywords": list(instance.corpus.query),
            "start": start.isoformat(),
            "end": end.isoformat(),
            "num_dates": 5,
            "num_sentences": 1,
        }
    ).encode()
    return _Request(
        method="POST",
        path="/v1/timeline",
        query={},
        headers={"content-type": "application/json"},
        body=body,
        keep_alive=False,
    )


async def _race(front, instance, script, during_flight=None):
    """One leader (blocked in its scripted compute) plus two followers.

    Starts the leader, waits until it is inside the compute hook, starts
    the followers, lets them join the flight, runs *during_flight*, then
    releases the leader. Returns ``(compute, [leader, f1, f2])``
    responses, all resolved within a hard timeout (a hang is a fail,
    not a stuck suite).
    """
    compute = _ScriptedCompute(front, script)
    front._compute_timeline = compute
    prefix = front.metric_prefix

    leader = asyncio.create_task(
        front._handle_timeline(_timeline_request(instance))
    )
    await asyncio.wait_for(compute.entered.wait(), timeout=10)
    followers = [
        asyncio.create_task(
            front._handle_timeline(_timeline_request(instance))
        )
        for _ in range(2)
    ]
    # Let the followers reach their flight wait.
    for _ in range(10):
        await asyncio.sleep(0)
    counters = front.metrics.snapshot()["counters"]
    assert counters.get(f"{prefix}.coalesced_requests", 0) == 2
    if during_flight is not None:
        during_flight(front)
    compute.release.set()
    responses = await asyncio.wait_for(
        asyncio.gather(leader, *followers), timeout=10
    )
    return compute, responses


def _leader_failure(front, instance):
    """The failing-leader race; returns the leader's response."""

    async def test():
        fresh = {"timeline": {"x": 1}, "num_candidates": 1}
        compute, responses = await _race(
            front, instance, script=["fail", fresh, fresh]
        )
        leader, f1, f2 = responses
        for follower in (f1, f2):
            assert follower.status == 200
            envelope = json.loads(follower.body)
            assert envelope["result"] == fresh
        # One failed leader computation plus at least one
        # independent recomputation (a follower that recomputes
        # fast enough legitimately serves its sibling from the
        # cache) -- no daisy-chained second flight, no poisoned
        # wait.
        assert compute.calls in (2, 3)
        return leader

    return asyncio.run(test())


class TestLeaderFailure:
    def test_followers_retry_independently_after_a_failed_leader(
        self, system, instance
    ):
        leader = _leader_failure(_server(system), instance)
        assert leader.status == 500
        assert json.loads(leader.body)["error"] == "degraded"

    def test_router_followers_retry_independently_after_a_failed_leader(
        self, topology, instance
    ):
        leader = _leader_failure(_router(topology), instance)
        assert leader.status == 503


def _mid_flight_invalidation(front, instance, invalidate):
    async def test():
        stale = {"timeline": {"stale": True}, "num_candidates": 1}
        fresh = {"timeline": {"fresh": True}, "num_candidates": 1}
        compute, responses = await _race(
            front,
            instance,
            script=[stale, fresh, fresh],
            during_flight=invalidate,
        )
        leader_response, f1, f2 = responses
        # The leader still answers its own request with the result
        # it computed; the *flight* is what the invalidation voids.
        assert leader_response.status == 200
        stale_result = json.loads(leader_response.body)["result"]
        assert stale_result["timeline"] == {"stale": True}
        for follower in (f1, f2):
            assert follower.status == 200
            envelope = json.loads(follower.body)
            assert envelope["result"]["timeline"] == {"fresh": True}
        # One leader computation plus at least one independent
        # recomputation; the invalidated result was never cached.
        assert compute.calls in (2, 3)
        assert len(front.cache) <= 2

    asyncio.run(test())


class TestMidFlightInvalidation:
    def test_followers_recompute_after_invalidation(
        self, system, instance
    ):
        server = _server(system)
        # Ingest mode arms the generation guard (any non-None
        # sentinel: the server's key hook only checks ``is not None``).
        server.ingest = object()
        _mid_flight_invalidation(
            server,
            instance,
            lambda front: front.cache.invalidate_where(lambda key: True),
        )

    def test_router_followers_recompute_after_a_shard_version_bump(
        self, topology, instance
    ):
        def bump(router):
            router._shard_versions[0] += 1

        _mid_flight_invalidation(
            _router(topology), instance, bump
        )


def _drain_while_waiting(front, instance):
    """The drain race; returns the leader's response."""

    async def test():
        def drain(front):
            front.admission.begin_drain()

        compute, responses = await _race(
            front, instance, script=["fail"], during_flight=drain
        )
        leader, f1, f2 = responses
        for follower in (f1, f2):
            assert follower.status == 503
            envelope = json.loads(follower.body)
            assert envelope["error"] == "draining"
            assert dict(follower.extra_headers).get("Retry-After")
        # Followers never started late work on the draining front.
        assert compute.calls == 1
        return leader

    return asyncio.run(test())


class TestDrainWhileWaiting:
    def test_followers_get_a_clean_503_when_draining(
        self, system, instance
    ):
        leader = _drain_while_waiting(_server(system), instance)
        assert leader.status == 500

    def test_router_followers_get_a_clean_503_when_draining(
        self, topology, instance
    ):
        leader = _drain_while_waiting(_router(topology), instance)
        assert leader.status == 503
