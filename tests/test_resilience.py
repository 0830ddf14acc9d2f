"""Fault injection, graceful degradation, and crash recovery, end to end.

The acceptance criteria of the resilience work, asserted directly:

* SIGKILL mid-batch → restart from WAL + snapshot → the recovered
  fingerprint is bitwise-identical to an uninterrupted run;
* a fault in a batcher worker's bookkeeping fails that one group and
  the worker lives on to answer the next request;
* a poisoned request returns 500 while herd-mates score normally, and a
  streak of failures trips the per-fingerprint breaker into degraded
  stale-cache answers that heal through a half-open probe;
* deadlines propagate (`X-Repro-Deadline-Ms` → 504) and overload/timeout
  responses carry ``Retry-After``;
* a failed hot-swap leaves the old model active;
* with every resilience feature enabled but idle, responses are
  byte-identical to a plain run (no ``degraded`` key, same scores).
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import chaos
from repro.detection import BaseDetector
from repro.graphs import graph_fingerprint, random_multiplex
from repro.obs.hist import BATCH_SIZE_BOUNDS, Histogram
from repro.serve import DetectorService, ModelRegistry
from repro.server import (
    DEADLINE_HEADER,
    CircuitBreaker,
    DeadlineExceeded,
    Gateway,
    MicroBatcher,
    ServerClient,
    ServerClientError,
    ServerThread,
)
from repro.server import batcher as batcher_mod
from repro.server.protocol import graph_payload

_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _clean_chaos():
    chaos.reset()
    yield
    chaos.reset()


class _CheapDetector(BaseDetector):
    """score = ||x|| — deterministic, instant, scores any graph."""

    def fit(self, graph):
        self._graph = graph
        self._scores = np.linalg.norm(graph.x, axis=1)
        return self

    def score_graph(self, graph):
        return np.linalg.norm(graph.x, axis=1)


class _SlowDetector(_CheapDetector):
    def __init__(self, delay):
        self.delay = delay

    def score_graph(self, graph):
        time.sleep(self.delay)
        return super().score_graph(graph)


def _gateway(rng, **kwargs):
    graph = random_multiplex(24, 2, 4, rng)
    service = DetectorService(_CheapDetector().fit(graph))
    defaults = dict(linger_ms=1.0, request_timeout=10.0)
    defaults.update(kwargs)
    return Gateway(service, **defaults)


@pytest.fixture
def served(rng):
    """A resilience-tuned live server: fast breaker, short reset."""
    gateway = _gateway(rng, breaker_failures=2, breaker_reset_seconds=0.25)
    with ServerThread(gateway) as server:
        with ServerClient(port=server.port) as client:
            yield server, client, gateway
    gateway.close()


# ---------------------------------------------------------------------------
# Circuit breaker state machine (unit)
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        self.now = [0.0]
        defaults = dict(failure_threshold=3, reset_timeout=10.0,
                        clock=lambda: self.now[0])
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_trips_after_consecutive_failures(self):
        breaker = self._breaker()
        for _ in range(2):
            breaker.record_failure("k")
            assert breaker.allow("k")
        breaker.record_failure("k")
        assert breaker.state("k") == "open"
        assert not breaker.allow("k")
        assert breaker.snapshot()["trips"] == 1
        assert breaker.snapshot()["rejections"] == 1

    def test_success_resets_the_streak(self):
        breaker = self._breaker()
        breaker.record_failure("k")
        breaker.record_failure("k")
        breaker.record_success("k")
        breaker.record_failure("k")
        breaker.record_failure("k")
        assert breaker.state("k") == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure("k")
        assert not breaker.allow("k")
        self.now[0] = 10.1                  # reset timeout elapsed
        assert breaker.allow("k")           # the probe
        assert breaker.state("k") == "half_open"
        assert not breaker.allow("k")       # herd held back during probe
        breaker.record_success("k")
        assert breaker.state("k") == "closed"
        assert breaker.allow("k")

    def test_failed_probe_reopens_with_fresh_timer(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure("k")
        self.now[0] = 10.1
        assert breaker.allow("k")
        breaker.record_failure("k")         # probe failed
        assert breaker.state("k") == "open"
        self.now[0] = 15.0                  # timer restarted at 10.1
        assert not breaker.allow("k")
        self.now[0] = 20.3
        assert breaker.allow("k")

    def test_keys_are_independent(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure("bad")
        assert not breaker.allow("bad")
        assert breaker.allow("good")

    def test_lru_bound(self):
        breaker = self._breaker(max_keys=4)
        for i in range(10):
            breaker.record_failure(f"k{i}")
        assert breaker.snapshot()["keys"] <= 4


# ---------------------------------------------------------------------------
# Batcher: faults outside the pass, deadlines, stuck shutdown
# ---------------------------------------------------------------------------

class TestBatcherResilience:
    def _batcher(self, rng, service=None, **kwargs):
        graph = random_multiplex(24, 2, 4, rng)
        if service is None:
            service = DetectorService(_CheapDetector().fit(graph))
        defaults = dict(workers=1, linger_ms=1.0)
        defaults.update(kwargs)
        return graph, MicroBatcher(service, **defaults)

    def test_bookkeeping_fault_fails_the_group_and_worker_lives(
            self, rng, monkeypatch):
        """A fault outside the scoring pass fails its group once; the
        same worker thread answers the next request."""
        class _FaultyHistogram(Histogram):
            __slots__ = ("faults",)

            def observe(self, value):
                if self.faults:
                    self.faults -= 1
                    raise RuntimeError("bookkeeping fault")
                super().observe(value)

        graph, batcher = self._batcher(rng)
        threads = list(batcher._threads)
        faulty = _FaultyHistogram(BATCH_SIZE_BOUNDS)
        faulty.faults = 1
        monkeypatch.setattr(batcher, "batch_sizes", faulty)
        try:
            with pytest.raises(RuntimeError, match="bookkeeping fault"):
                batcher.submit(graph).result(timeout=10.0)
            assert batcher.queue_depth == 0
            assert batcher.stats.failed == 1
            assert batcher._threads == threads
            assert all(thread.is_alive() for thread in threads)
            scores = batcher.submit(graph).result(timeout=10.0)
            assert scores.size == graph.num_nodes
            assert batcher.stats.completed == 1
        finally:
            report = batcher.close()
        assert report["leaked_workers"] == []

    def test_expired_deadline_is_rejected_at_admission(self, rng):
        graph, batcher = self._batcher(rng)
        try:
            with pytest.raises(DeadlineExceeded):
                batcher.submit(graph, deadline=time.monotonic() - 1.0)
        finally:
            batcher.close()

    def test_queued_request_expires_before_scoring(self, rng):
        graph, batcher = self._batcher(
            rng, service=DetectorService(_SlowDetector(0.3).fit(
                random_multiplex(24, 2, 4, rng))),
            workers=1, linger_ms=1.0)
        try:
            # occupy the only worker, then queue a request whose deadline
            # lapses while it waits
            first = batcher.submit(graph)
            doomed = batcher.submit(
                random_multiplex(12, 2, 4, rng),
                deadline=time.monotonic() + 0.05)
            assert first.result(timeout=10.0).size == graph.num_nodes
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10.0)
            assert batcher.stats.expired == 1
        finally:
            batcher.close()

    def test_close_reports_stuck_worker(self, rng, monkeypatch):
        monkeypatch.setattr(batcher_mod, "_JOIN_TIMEOUT", 0.2)
        release = threading.Event()

        class _Blocking:
            def is_warm(self, fingerprint):
                return True

            def scores(self, graph, fingerprint=None):
                release.wait(timeout=30.0)
                return np.zeros(graph.num_nodes)

        graph = random_multiplex(12, 2, 4, rng)
        batcher = MicroBatcher(_Blocking(), workers=1, linger_ms=1.0)
        future = batcher.submit(graph)
        deadline = time.monotonic() + 5.0
        while batcher.queue_depth and time.monotonic() < deadline:
            time.sleep(0.01)
        batcher.close()                    # join times out: worker is stuck
        assert batcher.stats.leaked_workers == 1
        release.set()                      # unstick; the thread drains out
        assert future.result(timeout=10.0).size == graph.num_nodes


# ---------------------------------------------------------------------------
# HTTP: poisoned requests, breaker degradation, deadlines, Retry-After
# ---------------------------------------------------------------------------

class TestPoisonAndDegradation:
    def test_poisoned_request_fails_alone(self, served, rng):
        """A request whose scoring keeps failing gets a 500; herd-mates
        sharing the server score normally before, during, and after."""
        _server, client, _gateway = served
        healthy = random_multiplex(20, 2, 4, rng)
        poisoned = random_multiplex(21, 2, 4, rng)
        chaos.configure("service.score", mode="error", count=None,
                        key=graph_fingerprint(poisoned))
        assert client.score(healthy)["num_nodes"] == 20
        with pytest.raises(ServerClientError) as err:
            client.score(poisoned)
        assert err.value.status == 500
        assert client.score(healthy)["num_nodes"] == 20

    def test_breaker_opens_then_serves_stale_then_heals(self, served, rng):
        _server, client, gateway = served
        graph = random_multiplex(20, 2, 4, rng)
        fingerprint = graph_fingerprint(graph)

        # 1. a healthy pass caches known-good scores (the stale answer)
        good = client.score(graph)
        assert "degraded" not in good

        # 2. poison this fingerprint; flush the service cache so scoring
        #    actually re-runs (and fails) instead of hitting the cache
        chaos.configure("service.score", mode="error", count=None,
                        key=fingerprint)
        gateway.service.clear_cache()
        for _ in range(2):                  # breaker_failures=2
            gateway.service.clear_cache()
            with pytest.raises(ServerClientError) as err:
                client.score(graph)
            assert err.value.status == 500

        # 3. breaker open: answered from the stale cache, marked degraded
        degraded = client.score(graph)
        assert degraded["degraded"] is True
        assert degraded["scores"] == good["scores"]
        assert gateway.breaker.state(fingerprint) == "open"

        # 4. fault cleared + reset timeout elapsed: the half-open probe
        #    succeeds and the breaker closes again
        chaos.reset()
        time.sleep(0.3)
        healed = client.score(graph)
        assert "degraded" not in healed
        assert healed["scores"] == good["scores"]
        assert gateway.breaker.state(fingerprint) == "closed"

    def test_open_breaker_without_stale_scores_is_503(self, served, rng):
        _server, client, gateway = served
        graph = random_multiplex(22, 2, 4, rng)
        fingerprint = graph_fingerprint(graph)
        chaos.configure("service.score", mode="error", count=None,
                        key=fingerprint)
        for _ in range(2):
            gateway.service.clear_cache()
            with pytest.raises(ServerClientError):
                client.score(graph)
        with pytest.raises(ServerClientError) as err:
            client.score(graph)
        assert err.value.status == 503
        assert "circuit open" in str(err.value)
        # 503s advertise when to come back
        assert client.last_headers.get("Retry-After") == "1"

    def test_degradation_is_visible_in_health_and_metrics(self, served,
                                                          rng):
        _server, client, gateway = served
        graph = random_multiplex(23, 2, 4, rng)
        chaos.configure("service.score", mode="error", count=None,
                        key=graph_fingerprint(graph))
        for _ in range(2):
            gateway.service.clear_cache()
            with pytest.raises(ServerClientError):
                client.score(graph)
        health = client.healthz(deep=True)
        assert health["components"]["breaker"]["open"] == 1
        metrics = client.metrics()
        assert "repro_breaker_trips_total 1" in metrics
        assert "repro_chaos_triggers_total" in metrics

    def test_deadline_header_expires_request_with_504(self, served, rng):
        server, _client, _gateway = served
        graph = random_multiplex(20, 2, 4, rng)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10.0)
        try:
            body = json.dumps({"graph": graph_payload(graph)})
            conn.request("POST", "/v1/score", body=body,
                         headers={"Content-Type": "application/json",
                                  DEADLINE_HEADER: "0.0001"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 504
            assert "deadline" in payload["error"]
        finally:
            conn.close()

    def test_malformed_deadline_header_is_ignored(self, served, rng):
        server, _client, _gateway = served
        graph = random_multiplex(20, 2, 4, rng)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10.0)
        try:
            body = json.dumps({"graph": graph_payload(graph)})
            conn.request("POST", "/v1/score", body=body,
                         headers={"Content-Type": "application/json",
                                  DEADLINE_HEADER: "not-a-number"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert payload["num_nodes"] == 20
        finally:
            conn.close()

    def test_scoring_timeout_503_carries_retry_after(self, rng):
        fitted = random_multiplex(16, 2, 4, rng)
        # score a graph the detector was NOT fitted on: the fitted
        # graph's scores are warm in the service cache and would answer
        # instantly instead of timing out
        graph = random_multiplex(18, 2, 4, rng)
        service = DetectorService(_SlowDetector(0.5).fit(fitted))
        gateway = Gateway(service, linger_ms=1.0, request_timeout=0.05)
        try:
            with ServerThread(gateway) as server:
                conn = http.client.HTTPConnection("127.0.0.1",
                                                  server.port,
                                                  timeout=10.0)
                try:
                    body = json.dumps({"graph": graph_payload(graph)})
                    conn.request(
                        "POST", "/v1/score", body=body,
                        headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    assert response.status == 503
                    assert response.headers.get("Retry-After") == "1"
                finally:
                    conn.close()
        finally:
            gateway.close()


# ---------------------------------------------------------------------------
# Failed hot-swap leaves the old model active
# ---------------------------------------------------------------------------

class TestFailedHotSwap:
    def test_failed_activate_keeps_old_model(self, fitted_umgad,
                                             tiny_dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.save("base", fitted_umgad, graph=tiny_dataset.graph)
        registry.save("next", fitted_umgad, graph=tiny_dataset.graph)
        service = DetectorService(registry.path("base"), match_dtype=False)
        gateway = Gateway(service, registry=registry, active_model="base",
                          linger_ms=1.0)
        try:
            with ServerThread(gateway) as server:
                with ServerClient(port=server.port) as client:
                    chaos.configure("checkpoint.load", mode="ioerror",
                                    count=1)
                    with pytest.raises(ServerClientError) as err:
                        client.activate("next")
                    assert err.value.status == 409
                    # the swap never happened: old model still active and
                    # still answering
                    assert gateway.active_model == "base"
                    assert client.health()["active_model"] == "base"
                    response = client.score(tiny_dataset.graph)
                    assert response["num_nodes"] == \
                        tiny_dataset.graph.num_nodes
                    # fault cleared: the same activate now succeeds
                    assert client.activate("next")["activated"] == "next"
                    assert gateway.active_model == "next"
        finally:
            gateway.close()


# ---------------------------------------------------------------------------
# Client-side resilience over a live socket
# ---------------------------------------------------------------------------

class TestClientResilience:
    def test_dead_keepalive_reconnects_idempotent_request(self, served,
                                                          rng):
        _server, client, _gateway = served
        graph = random_multiplex(20, 2, 4, rng)
        client.health()                       # establish the keep-alive
        chaos.configure("http.reset", mode="reset", count=1, key="score")
        response = client.score(graph)        # transparently resent
        assert response["num_nodes"] == 20
        assert client.reconnects == 1
        assert client.retries_taken == 0

    def test_non_idempotent_request_surfaces_the_reset(self, served):
        _server, client, _gateway = served
        client.health()
        chaos.configure("http.reset", mode="reset", count=1, key="events")
        with pytest.raises((http.client.HTTPException, OSError)):
            client.events([{"op": "add_edge", "relation": "r0",
                            "src": 0, "dst": 1}])
        assert client.reconnects == 0

    def test_fresh_connection_reset_is_retried_with_backoff(self, served,
                                                            rng):
        server, _default_client, _gateway = served
        graph = random_multiplex(20, 2, 4, rng)
        with ServerClient(port=server.port, retries=2,
                          backoff_base=0.01) as client:
            # no keep-alive yet: the reconnect budget doesn't apply, so
            # this burns a counted retry instead
            chaos.configure("http.reset", mode="reset", count=1,
                            key="score")
            response = client.score(graph)
            assert response["num_nodes"] == 20
            assert client.retries_taken == 1

    def test_zero_retry_client_surfaces_errors(self, served, rng):
        server, _default_client, _gateway = served
        graph = random_multiplex(20, 2, 4, rng)
        with ServerClient(port=server.port) as client:
            assert client.retries == 0
            chaos.configure("http.reset", mode="reset", count=1,
                            key="score")
            with pytest.raises((http.client.HTTPException, OSError)):
                client.score(graph)

    def test_retry_after_header_raises_the_delay(self, served):
        _server, client, _gateway = served
        assert client._retry_delay(0, "0.5") >= 0.5
        # bounded: a hostile header cannot park the client for minutes
        assert client._retry_delay(0, "9999") <= 30.0
        # malformed values fall back to the computed backoff
        assert client._retry_delay(0, "soon") < 0.5


# ---------------------------------------------------------------------------
# Idle parity: resilience features enabled, nothing injected
# ---------------------------------------------------------------------------

class TestIdleParity:
    def test_scores_bitwise_identical_with_features_idle(self, served,
                                                         rng):
        _server, client, gateway = served
        graph = random_multiplex(26, 2, 4, rng)
        expected = gateway.service.detector.score_graph(graph)
        response = client.score(graph)
        assert "degraded" not in response
        np.testing.assert_array_equal(
            np.asarray(response["scores"]), expected)
        assert not chaos.active()
        snapshot = gateway.breaker.snapshot()
        assert snapshot["trips"] == 0
        assert snapshot["rejections"] == 0


# ---------------------------------------------------------------------------
# SIGKILL mid-batch → recover → bitwise-identical state (the tentpole)
# ---------------------------------------------------------------------------

_CRASH_SCRIPT = textwrap.dedent("""\
    import os, signal, sys
    import numpy as np

    from repro.detection import BaseDetector
    from repro.graphs import random_multiplex
    from repro.serve import DetectorService
    from repro.stream import (IncrementalGraphBuilder, StreamMonitor,
                              WriteAheadLog, synthesize_stream)

    class NormDetector(BaseDetector):
        def fit(self, graph):
            self._graph = graph
            self._scores = np.linalg.norm(graph.x, axis=1)
            return self

        def score_graph(self, graph):
            return np.linalg.norm(graph.x, axis=1)

    wal_dir, kill_at = sys.argv[1], int(sys.argv[2])
    graph = random_multiplex(40, 2, 4, np.random.default_rng(0),
                             avg_degree=3.0)
    events, _ = synthesize_stream(graph, 200, np.random.default_rng(7))
    monitor = StreamMonitor(
        DetectorService(NormDetector().fit(graph)),
        IncrementalGraphBuilder.from_graph(graph),
        window=20, top_k=5, snapshot_every=3,
        wal=WriteAheadLog(wal_dir))
    monitor.ingest(events[:kill_at])
    # no close(), no checkpoint(): die the hard way, mid-batch
    os.kill(os.getpid(), signal.SIGKILL)
""")


class TestSigkillRecovery:
    def test_recovered_state_matches_uninterrupted_run(self, tmp_path):
        from repro.stream import (IncrementalGraphBuilder, StreamMonitor,
                                  WriteAheadLog, open_monitor,
                                  synthesize_stream, verify_parity)

        kill_at = 73        # 3 scored windows + 13 buffered: mid-batch
        script = tmp_path / "crashy.py"
        script.write_text(_CRASH_SCRIPT)
        wal_dir = tmp_path / "wal"
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.run(
            [sys.executable, str(script), str(wal_dir), str(kill_at)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        # the same deterministic world, never crashed
        graph = random_multiplex(40, 2, 4, np.random.default_rng(0),
                                 avg_degree=3.0)
        events, _ = synthesize_stream(graph, 200,
                                      np.random.default_rng(7))
        reference = StreamMonitor(
            DetectorService(_CheapDetector().fit(graph)),
            IncrementalGraphBuilder.from_graph(graph),
            window=20, top_k=5)
        reference.ingest(events)

        wal = WriteAheadLog(wal_dir)
        resumed = open_monitor(
            DetectorService(_CheapDetector().fit(graph)), wal=wal,
            window=20, top_k=5, snapshot_every=3)
        assert resumed.recovered
        # every accepted event survived the SIGKILL: scored or pending
        skip = resumed.events_consumed + resumed.buffered
        assert skip == kill_at
        resumed.ingest(events[skip:])
        assert resumed.builder.fingerprint() == \
            reference.builder.fingerprint()
        assert resumed.windows_scored == reference.windows_scored
        assert resumed.events_consumed == reference.events_consumed
        assert verify_parity(resumed.builder)
        wal.close()
