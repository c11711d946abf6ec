"""Hedged replica reads: tail latency absorbed without degradation.

One slice, two live replicas, one artificially slow (the per-request
test delay the CI hedging smoke also uses). The router must race the
slow primary against its healthy sibling after the adaptive delay and
serve the first response: every answer stays 200, byte-identical to
single-index serving, with ``replica.hedges`` / ``replica.hedge_wins``
accounting for the rescues -- and with ``--no-hedge`` semantics
(``hedge_enabled=False``) nothing ever hedges.
"""

import http.client
import json

import pytest

from repro.core.pipeline import Wilson, WilsonConfig
from repro.obs.metrics import Metrics
from repro.search.engine import SearchEngine
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    DEGRADED_HEADER,
    BackgroundServer,
    RouterConfig,
    ServeConfig,
    TimelineRouter,
    TimelineServer,
    export_slices,
)
from repro.tlsdata.synthetic import make_timeline17_like


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
        1,
    )


def _replica_server(slice_path, delay_seconds=0.0):
    wilson = Wilson(WilsonConfig())
    engine = SearchEngine.load_snapshot(slice_path, cache=wilson.cache)
    server = TimelineServer(
        RealTimeTimelineSystem(
            engine=engine, wilson=wilson, cache=wilson.cache
        ),
        ServeConfig(port=0),
    )
    # The WILSON_SERVE_TEST_DELAY_MS knob, set directly: both replicas
    # share this process's environment.
    server._test_delay_seconds = delay_seconds
    return server


@pytest.fixture(scope="module")
def uneven_fleet(topology):
    """Two live replicas of the single slice; replica 0 is slow."""
    slice_path = topology.shards[0].path
    contexts = [
        BackgroundServer(_replica_server(slice_path, delay_seconds=0.5)),
        BackgroundServer(_replica_server(slice_path)),
    ]
    servers = [context.__enter__() for context in contexts]
    yield servers
    for context in contexts:
        context.__exit__(None, None, None)


@pytest.fixture()
def single_server(system):
    config = ServeConfig(port=0)
    with BackgroundServer(TimelineServer(system, config)) as running:
        yield running


def _router(topology, fleet, **overrides):
    config = dict(
        port=0,
        shard_timeout_seconds=30.0,
        hedge_delay_floor_seconds=0.01,
        hedge_delay_max_seconds=0.05,
    )
    config.update(overrides)
    groups = [[f"http://127.0.0.1:{server.port}" for server in fleet]]
    return BackgroundServer(
        TimelineRouter(
            topology,
            groups,
            config=RouterConfig(**config),
            metrics=Metrics(),
        )
    )


def _get(server, path):
    conn = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=120
    )
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestHedgedReads:
    def test_hedges_win_and_responses_stay_exact(
        self, topology, uneven_fleet, single_server
    ):
        with _router(topology, uneven_fleet) as router:
            hedge_wins = 0
            for round_number in range(40):
                path = f"/v1/search?q=government&limit={round_number + 1}"
                reference_status, _, reference_raw = _get(
                    single_server, path
                )
                assert reference_status == 200
                status, headers, raw = _get(router, path)
                assert status == 200
                assert DEGRADED_HEADER not in headers
                assert raw == reference_raw
                counters = router.metrics.snapshot()["counters"]
                hedge_wins = counters.get("replica.hedge_wins", 0)
                if hedge_wins >= 3:
                    break
            assert hedge_wins >= 3
            counters = router.metrics.snapshot()["counters"]
            assert counters.get("replica.hedges", 0) >= hedge_wins
            # Hedging absorbed the slow replica: nothing failed over,
            # nothing degraded, no shard ever exhausted its budget.
            assert counters.get("router.shard_failures", 0) == 0
            assert counters.get("router.degraded", 0) == 0

    def test_no_hedge_config_never_hedges(self, topology, uneven_fleet):
        with _router(
            topology, uneven_fleet, hedge_enabled=False
        ) as router:
            for round_number in range(6):
                status, _, _ = _get(
                    router,
                    f"/v1/search?q=government&limit={round_number + 50}",
                )
                assert status == 200
            counters = router.metrics.snapshot()["counters"]
            assert counters.get("replica.hedges", 0) == 0
            assert counters.get("replica.hedge_wins", 0) == 0

    def test_timeline_requests_also_benefit(
        self, topology, uneven_fleet, instance
    ):
        start, end = instance.corpus.window
        payload = {
            "keywords": list(instance.corpus.query),
            "start": start.isoformat(),
            "end": end.isoformat(),
            "num_dates": 5,
            "num_sentences": 1,
        }
        with _router(topology, uneven_fleet) as router:
            conn = http.client.HTTPConnection(
                "127.0.0.1", router.port, timeout=120
            )
            try:
                conn.request(
                    "POST",
                    "/v1/timeline",
                    body=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                raw = response.read()
                assert response.status == 200
                assert json.loads(raw)["result"]["timeline"]
            finally:
                conn.close()
