"""HTTP serving gateway (repro.server): batcher, gateway, HTTP round-trips.

The module-scoped server fixture boots a real :class:`ThreadingHTTPServer`
on an ephemeral port and every HTTP test talks to it through the stdlib
client — request framing, keep-alive, admission control and error mapping
are all exercised over an actual socket.
"""

import threading
import time

import numpy as np
import pytest

from repro.detection import BaseDetector
from repro.graphs import graph_fingerprint, random_multiplex
from repro.obs.metrics import counter, family, render
from repro.serve import DetectorService, ModelRegistry
from repro.server import (
    AdmissionError,
    Gateway,
    GatewayError,
    MicroBatcher,
    ProtocolError,
    ServerClient,
    ServerClientError,
    ServerThread,
    graph_from_payload,
    graph_payload,
)
from repro.stream import synthesize_stream


class CountingDetector(BaseDetector):
    """A detector that counts scoring passes (and can be slowed down)."""

    def __init__(self, num_nodes=24, delay=0.0):
        self.num_nodes = num_nodes
        self.delay = delay
        self.calls = 0
        self._call_lock = threading.Lock()
        self._scores = np.linspace(0.0, 1.0, num_nodes)
        self._relation_names = ["a", "b"]
        self._num_features = 4

    def score_graph(self, graph):
        with self._call_lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        rng = np.random.default_rng(graph.num_nodes)
        return rng.random(graph.num_nodes)


@pytest.fixture
def counting_service():
    return DetectorService(CountingDetector())


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_graph_payload_round_trip(self, tiny_multiplex):
        rebuilt = graph_from_payload(graph_payload(tiny_multiplex))
        assert graph_fingerprint(rebuilt) == graph_fingerprint(tiny_multiplex)

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"x": [[1.0, 2.0]]},
        {"x": [[1.0]], "relations": {}},
        {"x": "nope", "relations": {"a": []}},
        {"x": [1.0, 2.0], "relations": {"a": []}},
        {"x": [[1.0], [2.0]], "relations": {"a": [[0, 5]]}},  # out of range
        {"x": [[1.0], [2.0]], "relations": {"a": [[0]]}},     # bad shape
        # weighted triples / flat pair lists must NOT be silently
        # reinterpreted as a different set of (u, v) pairs
        {"x": [[1.0]] * 6, "relations": {"a": [[0, 1, 2], [3, 4, 5]]}},
        {"x": [[1.0]] * 4, "relations": {"a": [0, 1, 2, 3]}},
        {"x": [[1.0]] * 4, "relations": {"a": [[0.7, 2.9]]}},  # not ids
        {"x": [[1.0]] * 4, "relations": {"a": [[0, 1], [2]]}},  # ragged
    ])
    def test_malformed_graph_payloads(self, payload):
        with pytest.raises(ProtocolError):
            graph_from_payload(payload)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_attribute_names_row_and_column(self, bad):
        x = [[0.0, 1.0, 2.0] for _ in range(4)]
        x[2][1] = bad
        with pytest.raises(ProtocolError, match="row 2, column 1"):
            graph_from_payload({"x": x, "relations": {"a": [[0, 1]]}})

    def test_empty_edge_list_is_a_valid_relation(self):
        graph = graph_from_payload(
            {"x": [[1.0], [2.0]], "relations": {"a": [[0, 1]], "b": []}})
        assert graph["b"].num_edges == 0
        assert graph["a"].num_edges == 1

    def test_metrics_renderer(self):
        text = render([counter("hits_total", "Hits.", 3),
                       family("depth", "gauge", "Depth.",
                              [({"pool": "a"}, 1.5)])], prefix="t")
        assert "# TYPE t_hits_total counter" in text
        assert "t_hits_total 3" in text
        assert 't_depth{pool="a"} 1.5' in text
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Micro-batcher
# ---------------------------------------------------------------------------

class TestMicroBatcher:
    def test_coalesces_same_fingerprint(self, counting_service, rng):
        graph = random_multiplex(24, 2, 4, rng)
        batcher = MicroBatcher(counting_service, workers=2, linger_ms=25.0)
        futures = [batcher.submit(graph) for _ in range(10)]
        results = [f.result(timeout=10.0) for f in futures]
        batcher.close()
        assert all(np.array_equal(results[0], r) for r in results)
        # one scoring pass answered all ten requests
        assert counting_service.detector.calls == 1
        assert batcher.stats.batches >= 1
        assert batcher.stats.coalesced >= 1
        assert batcher.stats.completed == 10
        assert batcher.stats.largest_batch >= 2

    def test_distinct_fingerprints_get_distinct_batches(
            self, counting_service, rng):
        graphs = [random_multiplex(20 + i, 2, 4, rng) for i in range(3)]
        batcher = MicroBatcher(counting_service, workers=2, linger_ms=5.0)
        futures = [batcher.submit(g) for g in graphs]
        sizes = {f.result(timeout=10.0).size for f in futures}
        batcher.close()
        assert sizes == {20, 21, 22}
        assert batcher.stats.batches == 3

    def test_admission_queue_full_raises_429(self, rng):
        service = DetectorService(CountingDetector(delay=0.2))
        batcher = MicroBatcher(service, workers=1, max_queue=2,
                               linger_ms=0.0)
        graphs = [random_multiplex(10 + i, 2, 4, rng) for i in range(6)]
        admitted, rejected = [], []
        for graph in graphs:
            try:
                admitted.append(batcher.submit(graph))
            except AdmissionError as exc:
                rejected.append(exc)
        assert rejected and all(exc.status == 429 for exc in rejected)
        assert len(admitted) == 2
        for future in admitted:  # admitted work still completes
            assert future.result(timeout=10.0) is not None
        batcher.close()
        assert batcher.stats.rejected == len(rejected)

    def test_closed_batcher_rejects_with_503(self, counting_service, rng):
        batcher = MicroBatcher(counting_service)
        batcher.close()
        with pytest.raises(AdmissionError) as excinfo:
            batcher.submit(random_multiplex(10, 2, 4, rng))
        assert excinfo.value.status == 503

    def test_close_drains_admitted_work(self, rng):
        service = DetectorService(CountingDetector(delay=0.05))
        batcher = MicroBatcher(service, workers=1, linger_ms=0.0)
        futures = [batcher.submit(random_multiplex(10 + i, 2, 4, rng))
                   for i in range(3)]
        batcher.close(wait=True)
        for future in futures:
            assert future.result(timeout=1.0).size >= 10

    def test_scoring_failure_propagates_to_futures(self, rng):
        class BrokenDetector(CountingDetector):
            def score_graph(self, graph):
                raise RuntimeError("boom")

        batcher = MicroBatcher(DetectorService(BrokenDetector()),
                               linger_ms=0.0)
        future = batcher.submit(random_multiplex(10, 2, 4, rng))
        with pytest.raises(RuntimeError, match="boom"):
            future.result(timeout=10.0)
        batcher.close()
        assert batcher.stats.failed == 1

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0}, {"max_queue": 0}, {"linger_ms": -1.0},
    ])
    def test_rejects_bad_knobs(self, counting_service, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(counting_service, **kwargs)


# ---------------------------------------------------------------------------
# Thread-safety of the underlying service (the server's foundation)
# ---------------------------------------------------------------------------

class TestDetectorServiceConcurrency:
    def test_concurrent_same_graph_computes_once(self, rng):
        detector = CountingDetector(delay=0.02)
        service = DetectorService(detector)
        graph = random_multiplex(24, 2, 4, rng)
        fingerprint = graph_fingerprint(graph)
        results, errors = [], []
        barrier = threading.Barrier(8)

        def request():
            try:
                barrier.wait(timeout=5.0)
                results.append(service.scores(graph, fingerprint))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert len(results) == 8
        # dog-pile protection: one scoring pass, everyone shares it
        assert detector.calls == 1
        assert all(np.array_equal(results[0], r) for r in results)
        assert service.stats.misses == 1
        assert service.stats.hits == 7
        assert service.stats.requests == 8

    def test_concurrent_distinct_graphs(self, rng):
        detector = CountingDetector(delay=0.005)
        service = DetectorService(detector, cache_size=16)
        graphs = [random_multiplex(12 + i, 2, 4, rng) for i in range(6)]
        errors = []

        def request(graph):
            try:
                for _ in range(3):
                    service.scores(graph)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=request, args=(g,))
                   for g in graphs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert detector.calls == 6          # one pass per distinct graph
        assert service.stats.misses == 6
        assert service.stats.hits == 12

    def test_hot_swap_race_does_not_poison_cache(self, rng):
        """A pass started before replace_detector must not land in the
        new detector's cache."""
        first = CountingDetector(delay=0.05)
        second = CountingDetector()
        service = DetectorService(first)
        graph = random_multiplex(24, 2, 4, rng)
        fingerprint = graph_fingerprint(graph)

        started = threading.Event()

        class SignallingDetector(CountingDetector):
            def score_graph(self, inner_graph):
                started.set()
                return first.score_graph(inner_graph)

        service.detector = SignallingDetector(delay=0.05)
        worker = threading.Thread(
            target=lambda: service.scores(graph, fingerprint))
        worker.start()
        assert started.wait(timeout=5.0)
        service.replace_detector(second)
        worker.join(timeout=10.0)
        # the stale pass was discarded: the new detector's cache is empty
        assert len(service) == 0
        fresh = service.scores(graph, fingerprint)
        assert second.calls == 1
        assert fresh.size == graph.num_nodes

    def test_concurrent_registry_saves_and_deletes(self, fitted_umgad,
                                                   tiny_dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        errors = []

        def churn(index):
            name = f"model-{index % 3}"
            try:
                for _ in range(5):
                    registry.save(name, fitted_umgad,
                                  graph=tiny_dataset.graph, overwrite=True)
                    registry.names()
                    try:
                        registry.delete(name)
                    except KeyError:
                        pass  # another thread deleted it first
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors


# ---------------------------------------------------------------------------
# The HTTP server, end to end over a real socket
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def served(fitted_umgad, tiny_dataset, tmp_path_factory):
    """(server, client, registry) booted once for all read-only HTTP tests."""
    root = tmp_path_factory.mktemp("server-models")
    registry = ModelRegistry(root)
    registry.save("base", fitted_umgad, graph=tiny_dataset.graph)
    service = DetectorService(registry.path("base"), match_dtype=False)
    gateway = Gateway(service, registry=registry, active_model="base",
                      base_graph=tiny_dataset.graph, linger_ms=1.0,
                      window=30)
    with ServerThread(gateway) as server:
        client = ServerClient(port=server.port)
        yield server, client, registry
        client.close()


class TestHTTPEndpoints:
    def test_healthz(self, served):
        _server, client, _registry = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["detector"] == "UMGAD"
        assert health["uptime_seconds"] >= 0.0

    def test_score_round_trip_is_bitwise_identical(self, served,
                                                   fitted_umgad, rng):
        """The parity pin: HTTP-served scores == UMGAD.score_graph, bit
        for bit — JSON must not lose float precision anywhere."""
        _server, client, _registry = served
        graph = random_multiplex(28, 3, 16, rng)
        response = client.score(graph)
        served_scores = np.asarray(response["scores"])
        direct = fitted_umgad.score_graph(graph)
        assert served_scores.dtype == np.float64
        assert np.array_equal(served_scores, direct)
        assert response["fingerprint"] == graph_fingerprint(graph)
        assert response["num_nodes"] == 28

    def test_score_subset_top_k_and_threshold(self, served, rng):
        _server, client, _registry = served
        graph = random_multiplex(26, 3, 16, rng)
        response = client.score(graph, nodes=[0, 3, 5], top_k=4,
                                threshold=True)
        assert [row["node"] for row in response["scores"]] == [0, 3, 5]
        assert len(response["top"]) == 4
        top_scores = [row["score"] for row in response["top"]]
        assert top_scores == sorted(top_scores, reverse=True)
        assert "threshold" in response and "flagged" in response
        threshold = response["threshold"]["threshold"]
        full = np.asarray(client.score(graph)["scores"])
        assert response["flagged"] == np.flatnonzero(
            full >= threshold).tolist()

    def test_score_by_fingerprint_hits_cache(self, served, rng):
        _server, client, _registry = served
        graph = random_multiplex(22, 3, 16, rng)
        first = client.score(graph)
        second = client.score(fingerprint=first["fingerprint"])
        assert second["scores"] == first["scores"]

    def test_trained_fingerprint_needs_no_payload(self, served, fitted_umgad,
                                                  tiny_dataset):
        _server, client, _registry = served
        fingerprint = graph_fingerprint(tiny_dataset.graph)
        response = client.score(fingerprint=fingerprint)
        assert np.array_equal(np.asarray(response["scores"]),
                              fitted_umgad.decision_scores())

    def test_unknown_fingerprint_404(self, served):
        _server, client, _registry = served
        with pytest.raises(ServerClientError) as excinfo:
            client.score(fingerprint="0" * 64)
        assert excinfo.value.status == 404

    def test_malformed_payloads_400(self, served):
        _server, client, _registry = served
        cases = [
            {},                                           # neither key
            {"graph": {"x": [[1.0]], "relations": {}}},   # bad graph
            {"graph": {"x": [[1.0], [2.0]],
                       "relations": {"a": [[0, 1]]}},
             "nodes": [99]},                              # node out of range
            {"graph": {"x": [[1.0], [2.0]],
                       "relations": {"a": [[0, 1]]}},
             "top_k": 0},                                 # bad top_k
        ]
        for payload in cases:
            with pytest.raises(ServerClientError) as excinfo:
                client._request("POST", "/v1/score", payload)
            assert excinfo.value.status == 400, payload

    def test_schema_mismatch_graph_is_409(self, served, rng):
        """A well-formed graph the loaded model cannot answer (wrong
        feature width) is a 409 client error, not a 500."""
        _server, client, _registry = served
        wrong_features = random_multiplex(20, 3, 5, rng)
        with pytest.raises(ServerClientError) as excinfo:
            client.score(wrong_features)
        assert excinfo.value.status == 409
        assert "features" in excinfo.value.message

    def test_oversized_body_is_400_and_framing_survives(self, served):
        """An over-limit Content-Length is refused without reading the
        body, and the connection is closed so the unread bytes cannot
        masquerade as the next request; the client reconnects."""
        import http.client as http_client

        server, _client, _registry = served
        connection = http_client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10.0)
        connection.request(
            "POST", "/v1/score", body=b"x",
            headers={"Content-Type": "application/json",
                     "Content-Length": str(200 * 1024 * 1024)})
        response = connection.getresponse()
        assert response.status == 400
        assert response.headers.get("Connection") == "close"
        response.read()
        connection.close()
        # the server is still healthy for new connections
        with ServerClient(port=server.port) as fresh:
            assert fresh.health()["status"] == "ok"

    def test_unknown_routes_404(self, served):
        _server, client, _registry = served
        for method, path in [("GET", "/nope"), ("POST", "/v1/nope")]:
            with pytest.raises(ServerClientError) as excinfo:
                client._request(method, path, {} if method == "POST" else None)
            assert excinfo.value.status == 404

    def test_events_round_trip(self, served, tiny_dataset, rng):
        _server, client, _registry = served
        events, _truth = synthesize_stream(tiny_dataset.graph, 45, rng,
                                           burst_every=0)
        response = client.events(events[:45], flush=True)
        assert response["accepted"] == 45
        assert response["reports"], "45 events >= window 30: a report fired"
        report = response["reports"][0]
        assert report["num_nodes"] >= tiny_dataset.graph.num_nodes
        assert response["monitor"]["events_consumed"] >= 45
        assert response["monitor"]["buffered"] == 0  # flush drained it

    def test_events_bad_payloads_400(self, served):
        _server, client, _registry = served
        for payload in [{}, {"events": []}, {"events": [{"op": "bogus"}]}]:
            with pytest.raises(ServerClientError) as excinfo:
                client._request("POST", "/v1/events", payload)
            assert excinfo.value.status == 400

    def test_models_listing_and_activate(self, served, fitted_umgad,
                                         tiny_dataset):
        server, client, registry = served
        registry.save("candidate", fitted_umgad, graph=tiny_dataset.graph,
                      overwrite=True)
        listing = client.models()
        names = {model["name"] for model in listing["models"]}
        assert {"base", "candidate"} <= names
        response = client.activate("candidate")
        assert response["activated"] == "candidate"
        assert client.models()["active"] == "candidate"
        assert client.health()["active_model"] == "candidate"
        # and scoring still works after the hot swap
        fingerprint = graph_fingerprint(tiny_dataset.graph)
        assert client.score(fingerprint=fingerprint)["num_nodes"] == \
            tiny_dataset.graph.num_nodes

    def test_activate_unknown_model_404(self, served):
        _server, client, _registry = served
        with pytest.raises(ServerClientError) as excinfo:
            client.activate("missing")
        assert excinfo.value.status == 404

    def test_metrics_exposition(self, served):
        _server, client, _registry = served
        client.health()  # guarantee at least one counted request
        text = client.metrics()
        assert "# TYPE repro_server_requests_total counter" in text
        assert "repro_service_cache_hits_total" in text
        assert "repro_batcher_batches_total" in text
        assert 'endpoint="healthz",status="200"' in text
        # monitor metrics appear once events have flowed (earlier test)
        assert "repro_monitor_events_total" in text

    def test_keep_alive_connection_reuse(self, served):
        """Many requests over one connection: framing must stay intact."""
        server, _client, _registry = served
        with ServerClient(port=server.port) as client:
            for _ in range(5):
                assert client.health()["status"] == "ok"
                client.activate("base")
                assert "repro_server_uptime_seconds" in client.metrics()


class TestHerd:
    def test_http_herd_is_one_scoring_pass(self, rng):
        """Concurrent identical requests over HTTP share one scoring pass
        (batcher coalescing, then the service's dog-pile dedup and cache),
        and every response carries the same scores bit for bit."""
        detector = CountingDetector(delay=0.05)
        gateway = Gateway(DetectorService(detector), workers=2,
                          linger_ms=20.0)
        graph = random_multiplex(24, 2, 4, rng)
        herd = 12
        barrier = threading.Barrier(herd)
        responses = []
        lock = threading.Lock()
        with ServerThread(gateway) as server:
            def hit():
                with ServerClient(port=server.port, timeout=30.0) as client:
                    barrier.wait(timeout=10.0)
                    scores = client.score(graph)["scores"]
                with lock:
                    responses.append(scores)

            threads = [threading.Thread(target=hit) for _ in range(herd)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert len(responses) == herd, "a request hung or died"
        assert detector.calls == 1
        assert all(scores == responses[0] for scores in responses)


class TestOverloadAndShutdown:
    def test_overload_returns_429_and_recovers(self, rng):
        service = DetectorService(CountingDetector(delay=0.15))
        gateway = Gateway(service, workers=1, max_queue=2, linger_ms=0.0)
        graphs = [random_multiplex(10 + i, 2, 4, rng) for i in range(8)]
        statuses = []
        lock = threading.Lock()
        with ServerThread(gateway) as server:
            def hit(graph):
                with ServerClient(port=server.port, timeout=30.0) as client:
                    try:
                        client.score(graph)
                        status = 200
                    except ServerClientError as exc:
                        status = exc.status
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=hit, args=(g,))
                       for g in graphs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert len(statuses) == len(graphs), "a request hung or died"
            assert 429 in statuses, f"no overload rejection in {statuses}"
            assert statuses.count(200) >= 1
            assert set(statuses) <= {200, 429}
            # the server recovers: a fresh request succeeds afterwards
            with ServerClient(port=server.port) as client:
                health = client.health()
                assert health["status"] == "ok"
                assert health["queue_depth"] == 0
                assert client.score(graphs[0])["num_nodes"] == 10
                metrics = client.metrics()
        assert "repro_batcher_rejected_total" in metrics
        assert gateway.batcher.stats.rejected == statuses.count(429)

    def test_draining_gateway_returns_503(self, counting_service, rng):
        gateway = Gateway(counting_service, linger_ms=0.0)
        with ServerThread(gateway) as server:
            gateway.batcher.close()   # drain mode: admission refuses
            with ServerClient(port=server.port) as client:
                with pytest.raises(ServerClientError) as excinfo:
                    client.score(random_multiplex(10, 2, 4, rng))
                assert excinfo.value.status == 503
                # non-scoring endpoints still answer while draining
                assert client.health()["status"] == "ok"


class TestNonFiniteValues:
    def test_nan_attribute_is_400_and_never_cached(self, counting_service,
                                                   rng):
        payload = graph_payload(random_multiplex(12, 2, 4, rng))
        payload["x"][3][2] = float("nan")
        gateway = Gateway(counting_service, linger_ms=0.0)
        with ServerThread(gateway) as server, \
                ServerClient(port=server.port) as client:
            with pytest.raises(ServerClientError) as excinfo:
                client._request("POST", "/v1/score", {"graph": payload})
        assert excinfo.value.status == 400
        assert "row 3, column 2" in excinfo.value.message
        assert counting_service.detector.calls == 0
        assert counting_service.cache_info()["entries"] == 0

    @pytest.mark.parametrize("bad", [
        {"op": "update_attr", "node": 1, "x": [0.0, float("nan"), 0.0, 0.0]},
        {"op": "add_node", "x": [0.0, 0.0, 0.0, float("inf")]},
    ])
    def test_non_finite_event_is_400_before_monitor_and_wal(
            self, counting_service, tmp_path, bad):
        gateway = Gateway(counting_service, linger_ms=0.0, window=100,
                          wal_dir=tmp_path / "wal", wal_fsync=False)
        good = [{"op": "add_node", "x": [0.0, 0.0, 0.0, 0.0]},
                {"op": "add_node", "x": [1.0, 1.0, 1.0, 1.0]}]
        with ServerThread(gateway) as server, \
                ServerClient(port=server.port) as client:
            assert client.events(good)["accepted"] == 2
            monitor = gateway.monitor
            seq = monitor.wal.last_seq
            assert seq > 0
            # a valid event ahead of the bad one must not slip through
            with pytest.raises(ServerClientError) as excinfo:
                client.events([good[0], bad])
        assert excinfo.value.status == 400
        assert "bad event" in excinfo.value.message
        column = 1 if bad["op"] == "update_attr" else 3
        assert f"column {column}" in excinfo.value.message
        assert monitor.buffered == 2
        assert monitor.wal.last_seq == seq

    def test_nan_scores_are_a_valid_json_500(self, rng):
        import http.client as http_client
        import json

        class NaNDetector(CountingDetector):
            def score_graph(self, graph):
                return np.full(graph.num_nodes, np.nan)

        gateway = Gateway(DetectorService(NaNDetector()), linger_ms=0.0)
        body = json.dumps(
            {"graph": graph_payload(random_multiplex(10, 2, 4, rng))})
        with ServerThread(gateway) as server:
            connection = http_client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10.0)
            connection.request("POST", "/v1/score", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
            connection.close()
        assert response.status == 500

        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant} in body")

        assert "error" in json.loads(raw, parse_constant=reject)


class TestGatewayWithoutExtras:
    def test_no_registry_is_409(self, counting_service):
        gateway = Gateway(counting_service)
        with pytest.raises(GatewayError) as excinfo:
            gateway.list_models()
        assert excinfo.value.status == 409
        gateway.close()

    def test_events_without_schema_is_409(self, rng):
        class Schemaless(BaseDetector):
            def __init__(self):
                self._scores = np.ones(4)

        gateway = Gateway(DetectorService(Schemaless()))
        with pytest.raises(GatewayError) as excinfo:
            gateway.ingest_events({"events": [
                {"op": "add_edge", "rel": "a", "u": 0, "v": 1}]})
        assert excinfo.value.status == 409
        gateway.close()

    def test_events_schema_from_detector(self, counting_service):
        """No base graph: the builder bootstraps from the detector schema."""
        gateway = Gateway(counting_service, window=4)
        response = gateway.ingest_events({"events": [
            {"op": "add_node", "x": [0.0, 0.0, 0.0, 0.0]},
            {"op": "add_node", "x": [1.0, 1.0, 1.0, 1.0]},
            {"op": "add_edge", "rel": "a", "u": 0, "v": 1},
        ], "flush": True})
        assert response["accepted"] == 3
        assert response["monitor"]["num_nodes"] == 2
        gateway.close()


class TestServeCLI:
    def test_serve_requires_a_model_source(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["serve", "--registry", "/tmp/nowhere-models"]) == 1
        assert "serve needs --model" in capsys.readouterr().err
