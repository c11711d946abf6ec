"""The HTTP timeline service: equivalence, wire schema, shedding, drain.

Drives a real :class:`~repro.serve.TimelineServer` over actual sockets
(:class:`~repro.serve.BackgroundServer`) and pins the service contract:

* a timeline served over HTTP is **byte-identical** to the direct
  library call, on both the cold and the cache-hit path;
* the wire schema cannot drift silently (exact key sets);
* admission control sheds with 429 + ``Retry-After`` and drains with 503;
* a poisoned query degrades its own response, not a concurrent one;
* the ``serve.*`` telemetry stays inside the documented name registry.
"""

import http.client
import json

import pytest

from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    SERVE_METRIC_NAMES,
    WIRE_SCHEMA,
    BackgroundServer,
    ServeConfig,
    TimelineServer,
    canonical_json,
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


@pytest.fixture()
def server(system):
    config = ServeConfig(port=0)
    with BackgroundServer(TimelineServer(system, config)) as running:
        yield running


def _request(server, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
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


class TestByteEquivalence:
    def test_served_equals_direct_cold_and_warm(
        self, server, system, instance
    ):
        payload = _timeline_payload(instance)
        start, end = instance.corpus.window
        direct = system.generate_timeline(
            keywords=tuple(payload["keywords"]),
            start=start,
            end=end,
            num_dates=5,
            num_sentences=1,
        )
        expected = canonical_json(direct.timeline.to_dict())

        status, _, raw = _request(
            server, "POST", "/v1/timeline", payload
        )
        assert status == 200
        cold = json.loads(raw)
        assert cold["cache"] == "miss"
        assert canonical_json(cold["result"]["timeline"]) == expected
        assert cold["result"]["num_candidates"] == direct.num_candidates

        status, _, raw = _request(
            server, "POST", "/v1/timeline", payload
        )
        assert status == 200
        warm = json.loads(raw)
        assert warm["cache"] == "hit"
        assert canonical_json(warm["result"]["timeline"]) == expected

    def test_normalized_queries_share_the_cache_entry(
        self, server, instance
    ):
        payload = _timeline_payload(instance)
        _request(server, "POST", "/v1/timeline", payload)
        shouted = dict(
            payload, keywords=[k.upper() for k in payload["keywords"]]
        )
        status, _, raw = _request(server, "POST", "/v1/timeline", shouted)
        assert status == 200
        assert json.loads(raw)["cache"] == "hit"


class TestWireSchema:
    def test_timeline_envelope_is_stable(self, server, instance):
        status, headers, raw = _request(
            server, "POST", "/v1/timeline", _timeline_payload(instance)
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        envelope = json.loads(raw)
        assert set(envelope) == {
            "schema", "cache", "index_version", "result",
        }
        assert envelope["schema"] == WIRE_SCHEMA
        assert envelope["cache"] in ("hit", "miss")
        assert isinstance(envelope["index_version"], int)
        result = envelope["result"]
        assert set(result) == {"timeline", "num_candidates", "telemetry"}
        assert set(result["telemetry"]) == {
            "retrieval_seconds", "generation_seconds", "total_seconds",
        }
        for date, sentences in result["timeline"].items():
            assert date == date[:10]  # ISO YYYY-MM-DD keys
            assert isinstance(sentences, list)
            assert all(isinstance(s, str) for s in sentences)

    def test_response_to_dict_matches_cli_json(self, system, instance):
        # The CLI --json path and the HTTP layer serialise through the
        # same TimelineResponse.to_dict(); pin its shape once here.
        start, end = instance.corpus.window
        response = system.generate_timeline(
            instance.corpus.query, start, end, num_dates=4
        )
        payload = response.to_dict()
        assert set(payload) == {"timeline", "num_candidates", "telemetry"}
        assert payload["timeline"] == response.timeline.to_dict()

    def test_search_envelope_is_stable(self, server, instance):
        terms = "+".join(instance.corpus.query)
        status, _, raw = _request(
            server, "GET", f"/v1/search?q={terms}&limit=3"
        )
        assert status == 200
        envelope = json.loads(raw)
        assert set(envelope) == {"schema", "index_version", "count", "hits"}
        assert envelope["count"] == len(envelope["hits"]) <= 3
        for hit in envelope["hits"]:
            assert set(hit) == {
                "text", "date", "publication_date", "article_id",
                "is_reference", "score",
            }

    def test_healthz(self, server, system):
        status, _, raw = _request(server, "GET", "/healthz")
        assert status == 200
        health = json.loads(raw)
        assert health["status"] == "ok"
        assert health["indexed_sentences"] == (
            system.engine.num_indexed_sentences
        )
        assert health["index_version"] == system.index_version


class TestErrors:
    def test_unknown_route_404(self, server):
        status, _, raw = _request(server, "GET", "/nope")
        assert status == 404
        assert json.loads(raw)["schema"] == WIRE_SCHEMA

    def test_wrong_method_405(self, server):
        status, _, _ = _request(server, "GET", "/v1/timeline")
        assert status == 405
        status, _, _ = _request(server, "POST", "/v1/search")
        assert status == 405

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"keywords": []},
            {"keywords": ["ok"], "start": "not-a-date"},
            {"keywords": ["ok"], "num_dates": 0},
            {"keywords": ["ok"], "num_dates": "five"},
            {"keywords": ["ok"], "start": "2021-02-01", "end": "2021-01-01"},
            {"keywords": [42]},
        ],
    )
    def test_bad_timeline_requests_400(self, server, payload):
        status, _, raw = _request(server, "POST", "/v1/timeline", payload)
        assert status == 400
        assert "detail" in json.loads(raw)

    def test_invalid_json_body_400(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            conn.request("POST", "/v1/timeline", body=b"{nope")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_search_without_q_400(self, server):
        status, _, _ = _request(server, "GET", "/v1/search")
        assert status == 400

    def test_oversized_body_413(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            # Declare an over-limit body without sending it: the server
            # must answer 413 from the header alone and close.
            conn.putrequest("POST", "/v1/timeline")
            conn.putheader("Content-Length", str((1 << 20) + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["error"] == (
                "payload too large"
            )
        finally:
            conn.close()


class TestAdmissionOverHttp:
    def test_saturated_server_sheds_with_429(self, server, instance):
        # Fill the admission limit by hand: deterministic saturation
        # without racing real slow requests.
        admitted = 0
        while server.admission.try_admit():
            admitted += 1
        try:
            payload = _timeline_payload(instance, num_dates=3)
            status, headers, raw = _request(
                server, "POST", "/v1/timeline", payload
            )
            assert status == 429
            assert "Retry-After" in headers
            assert json.loads(raw)["error"] == "overloaded"
        finally:
            for _ in range(admitted):
                server.admission.release()

    def test_cache_hits_bypass_admission(self, server, instance):
        payload = _timeline_payload(instance, num_dates=4)
        status, _, _ = _request(server, "POST", "/v1/timeline", payload)
        assert status == 200
        admitted = 0
        while server.admission.try_admit():
            admitted += 1
        try:
            status, _, raw = _request(
                server, "POST", "/v1/timeline", payload
            )
            assert status == 200
            assert json.loads(raw)["cache"] == "hit"
        finally:
            for _ in range(admitted):
                server.admission.release()

    def test_draining_server_rejects_with_503(self, server, instance):
        server.admission.begin_drain()
        status, headers, raw = _request(
            server, "POST", "/v1/timeline",
            _timeline_payload(instance, num_dates=2),
        )
        assert status == 503
        assert "Retry-After" in headers
        assert json.loads(raw)["error"] == "draining"
        status, _, _ = _request(server, "GET", "/healthz")
        assert status == 503


class TestFaultIsolation:
    def test_poisoned_query_degrades_only_itself(self, system, instance):
        original = system._serve_query

        def poisoned(query):
            if "poison" in query.keywords:
                raise RuntimeError("poisoned query")
            return original(query)

        config = ServeConfig(port=0)
        system._serve_query = poisoned
        try:
            with BackgroundServer(TimelineServer(system, config)) as server:
                import threading

                results = {}

                def fire(name, payload):
                    results[name] = _request(
                        server, "POST", "/v1/timeline", payload
                    )

                good = _timeline_payload(instance, num_dates=3)
                bad = _timeline_payload(
                    instance, keywords=["poison"], num_dates=3
                )
                threads = [
                    threading.Thread(target=fire, args=("good", good)),
                    threading.Thread(target=fire, args=("bad", bad)),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

                good_status, _, good_raw = results["good"]
                bad_status, _, bad_raw = results["bad"]
                assert good_status == 200
                assert json.loads(good_raw)["result"]["timeline"]
                assert bad_status == 500
                assert json.loads(bad_raw)["error"] == "degraded"
                assert "poisoned" in json.loads(bad_raw)["detail"]
        finally:
            system._serve_query = original


class TestTelemetryRegistry:
    def test_emitted_serve_metrics_stay_in_the_registry(
        self, system, instance
    ):
        config = ServeConfig(port=0)
        with BackgroundServer(TimelineServer(system, config)) as server:
            _request(server, "POST", "/v1/timeline", {"keywords": []})
            _request(
                server, "POST", "/v1/timeline",
                _timeline_payload(instance, num_dates=3),
            )
            _request(
                server, "POST", "/v1/timeline",
                _timeline_payload(instance, num_dates=3),
            )
            terms = "+".join(instance.corpus.query)
            _request(server, "GET", f"/v1/search?q={terms}")
            _request(server, "GET", "/missing")
            status, _, raw = _request(server, "GET", "/metrics")
            assert status == 200
            snapshot = server.metrics.snapshot()

        emitted = set()
        for kind in ("counters", "gauges", "histograms"):
            emitted.update(
                name
                for name in snapshot[kind]
                if name.startswith("serve.")
            )
        assert emitted  # the exercise actually recorded serve metrics
        assert emitted <= set(SERVE_METRIC_NAMES), (
            "serve layer emitted metrics outside SERVE_METRIC_NAMES: "
            f"{sorted(emitted - set(SERVE_METRIC_NAMES))}"
        )
        # The load-bearing instruments all fired.
        for name in (
            "serve.requests",
            "serve.timeline_requests",
            "serve.cache_hits",
            "serve.cache_misses",
            "serve.bad_requests",
            "serve.not_found",
            "serve.search_requests",
        ):
            assert snapshot["counters"][name] >= 1, name
        assert snapshot["histograms"]["serve.request_seconds"]["count"] >= 5

        text = raw.decode("utf-8")
        assert "# TYPE wilson_serve_requests_total counter" in text
        assert 'wilson_serve_request_seconds{quantile="0.5"}' in text
        assert "wilson_serve_request_seconds_count" in text


class TestGracefulShutdown:
    def test_background_server_drains_cleanly(self, system, instance):
        config = ServeConfig(port=0)
        harness = BackgroundServer(TimelineServer(system, config))
        server = harness.__enter__()
        status, _, _ = _request(
            server, "POST", "/v1/timeline",
            _timeline_payload(instance, num_dates=3),
        )
        assert status == 200
        harness.__exit__(None, None, None)
        assert server.admission.draining
        assert server.admission.inflight == 0
