"""Replica failover kill drills: availability without degradation.

Drives a real :class:`~repro.serve.TimelineRouter` over sockets against
in-process replica workers (each a :class:`~repro.serve.TimelineServer`
booted from the same topology slice) and pins the replicated-serving
contract of docs/serving.md:

* (a) a dead replica costs an in-flight retry on a sibling -- every
  response stays 200 with **no** ``X-Wilson-Degraded`` header;
* (b) a whole slice down (every replica dead) degrades exactly like the
  unreplicated tier: 200 + degraded header, never a 5xx;
* (c) a recovered replica is re-admitted after consecutive probe
  successes and serves traffic again;
* (d) routed bytes stay identical to single-index serving under every
  mix of live replicas that keeps each shard covered.
"""

import http.client
import itertools
import json
import socket

import pytest

from repro.core.pipeline import Wilson, WilsonConfig
from repro.obs.metrics import Metrics
from repro.search.engine import SearchEngine
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    DEAD,
    DEGRADED_HEADER,
    HEALTHY,
    BackgroundServer,
    HealthConfig,
    RouterConfig,
    ServeConfig,
    TimelineRouter,
    TimelineServer,
    canonical_json,
    export_slices,
)
from repro.tlsdata.synthetic import make_timeline17_like
from tests.conftest import wait_until

NUM_SHARDS = 2
REPLICAS = 2


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
        system.engine.index,
        tmp_path_factory.mktemp("topology"),
        NUM_SHARDS,
    )


def _shard_system(slice_path):
    wilson = Wilson(WilsonConfig())
    engine = SearchEngine.load_snapshot(slice_path, cache=wilson.cache)
    return RealTimeTimelineSystem(
        engine=engine, wilson=wilson, cache=wilson.cache
    )


def _replica_server(slice_path, port=0):
    return TimelineServer(
        _shard_system(slice_path),
        ServeConfig(port=port),
    )


@pytest.fixture(scope="module")
def replica_fleet(topology):
    """R live BackgroundServers per slice, grouped by shard id."""
    groups = []
    contexts = []
    for shard in topology.shards:
        group = []
        for _ in range(REPLICAS):
            context = BackgroundServer(_replica_server(shard.path))
            group.append(context.__enter__())
            contexts.append(context)
        groups.append(group)
    yield groups
    for context in contexts:
        context.__exit__(None, None, None)


@pytest.fixture()
def single_server(system):
    config = ServeConfig(port=0)
    with BackgroundServer(TimelineServer(system, config)) as running:
        yield running


def _free_port():
    """A port with nothing listening (for the dead-replica cases)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _router(topology, groups, **config_overrides):
    """A background router over explicit endpoint URL groups."""
    defaults = dict(port=0, shard_timeout_seconds=30.0)
    defaults.update(config_overrides)
    return BackgroundServer(
        TimelineRouter(
            topology,
            groups,
            config=RouterConfig(**defaults),
            metrics=Metrics(),
        )
    )


def _live_groups(replica_fleet):
    return [
        [f"http://127.0.0.1:{server.port}" for server in group]
        for group in replica_fleet
    ]


def _request(server, method, path, payload=None):
    conn = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=120
    )
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), raw
    finally:
        conn.close()


def _timeline_payload(instance, **overrides):
    start, end = instance.corpus.window
    payload = {
        "keywords": list(instance.corpus.query),
        "start": start.isoformat(),
        "end": end.isoformat(),
        "num_dates": 5,
        "num_sentences": 1,
    }
    payload.update(overrides)
    return payload


def _without_telemetry(raw):
    """Canonical bytes minus the timing-valued telemetry block and the
    cache marker (repeat requests legitimately flip miss -> hit)."""
    envelope = json.loads(raw)
    envelope["result"].pop("telemetry")
    envelope.pop("cache", None)
    return canonical_json(envelope)


class TestReplicaFailover:
    """Drill (a): one dead replica per slice is absorbed by siblings."""

    def test_dead_replica_never_degrades_the_response(
        self, topology, replica_fleet, single_server
    ):
        groups = _live_groups(replica_fleet)
        # Kill one replica per slice: point it at a closed port.
        for group in groups:
            group[0] = f"http://127.0.0.1:{_free_port()}"
        reference_status, _, reference_raw = _request(
            single_server, "GET", "/v1/search?q=government&limit=5"
        )
        assert reference_status == 200
        with _router(topology, groups, shard_retries=0) as router:
            saw_failover = False
            for _ in range(40):
                status, headers, raw = _request(
                    router, "GET", "/v1/search?q=government&limit=5"
                )
                assert status == 200
                assert DEGRADED_HEADER not in headers
                assert raw == reference_raw
                counters = router.metrics.snapshot()["counters"]
                if counters.get("replica.failovers", 0) >= 1:
                    saw_failover = True
                    break
            # P2C picks the dead replica first within a few requests
            # (probability 2^-40 of never sampling it).
            assert saw_failover
            text = _request(router, "GET", "/metrics")[2].decode("utf-8")
            assert "wilson_replica_failovers_total" in text

    def test_timeline_bytes_survive_a_replica_kill(
        self, topology, replica_fleet, single_server, instance
    ):
        groups = _live_groups(replica_fleet)
        groups[0][1] = f"http://127.0.0.1:{_free_port()}"
        payload = _timeline_payload(instance)
        _, _, reference_raw = _request(
            single_server, "POST", "/v1/timeline", payload
        )
        with _router(topology, groups, shard_retries=0) as router:
            for _ in range(10):
                status, headers, raw = _request(
                    router, "POST", "/v1/timeline", payload
                )
                assert status == 200
                assert DEGRADED_HEADER not in headers
                assert _without_telemetry(raw) == _without_telemetry(
                    reference_raw
                )


class TestSliceDeath:
    """Drill (b): every replica of a slice dead == the PR 6 contract."""

    def test_whole_slice_down_degrades_but_stays_200(
        self, topology, replica_fleet, instance
    ):
        groups = _live_groups(replica_fleet)
        groups[1] = [
            f"http://127.0.0.1:{_free_port()}" for _ in range(REPLICAS)
        ]
        with _router(
            topology, groups, shard_timeout_seconds=5.0, shard_retries=0
        ) as router:
            status, headers, raw = _request(
                router, "POST", "/v1/timeline", _timeline_payload(instance)
            )
            assert status == 200
            assert headers[DEGRADED_HEADER] == "1"
            envelope = json.loads(raw)
            assert envelope["degraded_shards"] == [1]
            # Degraded merges are never cached.
            _, _, raw = _request(
                router, "POST", "/v1/timeline", _timeline_payload(instance)
            )
            assert json.loads(raw)["cache"] == "miss"

    def test_every_slice_down_is_a_503(self, topology, instance):
        groups = [
            [f"http://127.0.0.1:{_free_port()}" for _ in range(REPLICAS)]
            for _ in range(NUM_SHARDS)
        ]
        with _router(
            topology, groups, shard_timeout_seconds=5.0, shard_retries=0
        ) as router:
            status, _, raw = _request(
                router, "POST", "/v1/timeline", _timeline_payload(instance)
            )
            assert status == 503
            assert json.loads(raw)["schema"] == "wilson.serve/v1"


class TestRecovery:
    """Drill (c): a recovered replica is re-admitted and serves again."""

    def test_replica_readmission_after_consecutive_probe_successes(
        self, topology, replica_fleet
    ):
        groups = _live_groups(replica_fleet)
        revival_port = _free_port()
        groups[0][1] = f"http://127.0.0.1:{revival_port}"
        dead_key = (0, 1)
        running = TimelineRouter(
            topology,
            groups,
            config=RouterConfig(
                port=0,
                shard_timeout_seconds=5.0,
                shard_retries=0,
                # Keep the background probe loop quiet enough that the
                # /healthz-driven re-admission below is what we observe.
                probe_interval_seconds=60.0,
            ),
            metrics=Metrics(),
            health_config=HealthConfig(
                dead_after=2, readmit_after=2, probe_backoff_seconds=0.01
            ),
        )
        with BackgroundServer(running) as router:
            # Each /healthz sweep probes every replica; two failing
            # probes (dead_after=2) declare the down replica dead.
            # (Traffic alone only reaches "suspect": once a replica
            # fails, the selector prefers its healthy sibling, so
            # active probing is what escalates and what re-admits.)
            status, _, raw = _request(router, "GET", "/healthz")
            assert json.loads(raw)["status"] == "impaired"
            assert running.health.state(dead_key) != HEALTHY
            _request(router, "GET", "/healthz")
            assert running.health.state(dead_key) == DEAD

            # Revive the worker on the very port the router knows.
            revived = BackgroundServer(
                _replica_server(topology.shards[0].path, port=revival_port)
            )
            with revived:
                replica = revived.server
                # Each /healthz sweep probes every replica and feeds the
                # state machine: readmit_after=2 consecutive successes.
                status, _, raw = _request(router, "GET", "/healthz")
                assert status == 200
                assert running.health.state(dead_key) == DEAD
                status, _, raw = _request(router, "GET", "/healthz")
                assert running.health.state(dead_key) == HEALTHY
                payload = json.loads(raw)
                assert payload["status"] == "ok"
                assert payload["replicas_healthy"] == payload["replicas"]

                # ... and it serves real traffic again.
                before = replica.metrics.snapshot()["counters"].get(
                    "serve.requests", 0
                )

                def replica_served():
                    _request(
                        router, "GET", "/v1/search?q=government&limit=3"
                    )
                    counters = replica.metrics.snapshot()["counters"]
                    return counters.get("serve.requests", 0) > before

                wait_until(
                    replica_served, message="revived replica serving"
                )

    def test_healthz_reports_impaired_while_a_replica_is_down(
        self, topology, replica_fleet
    ):
        groups = _live_groups(replica_fleet)
        groups[1][0] = f"http://127.0.0.1:{_free_port()}"
        with _router(
            topology, groups, shard_timeout_seconds=5.0
        ) as router:
            status, _, raw = _request(router, "GET", "/healthz")
            assert status == 200
            payload = json.loads(raw)
            assert payload["status"] == "impaired"
            assert payload["shards_healthy"] == NUM_SHARDS
            assert payload["replicas_healthy"] == NUM_SHARDS * REPLICAS - 1
            assert payload["replica_states"]["1/0"] != HEALTHY


class TestByteIdentityUnderReplicaMixes:
    """Drill (d): identical bytes under every covering mix of replicas."""

    @pytest.mark.parametrize(
        "alive",
        list(
            itertools.product(
                [(0,), (1,), (0, 1)], repeat=NUM_SHARDS
            )
        ),
        ids=lambda alive: "+".join(
            "".join(map(str, shard)) for shard in alive
        ),
    )
    def test_search_bytes_match_single_index(
        self, topology, replica_fleet, single_server, alive
    ):
        _, _, reference_raw = _request(
            single_server, "GET", "/v1/search?q=government&limit=10"
        )
        groups = _live_groups(replica_fleet)
        for shard_id, live in enumerate(alive):
            for replica_id in range(REPLICAS):
                if replica_id not in live:
                    groups[shard_id][replica_id] = (
                        f"http://127.0.0.1:{_free_port()}"
                    )
        with _router(topology, groups) as router:
            for _ in range(3):
                status, headers, raw = _request(
                    router, "GET", "/v1/search?q=government&limit=10"
                )
                assert status == 200
                assert DEGRADED_HEADER not in headers
                assert raw == reference_raw
