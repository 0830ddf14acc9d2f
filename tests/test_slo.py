"""SLO tracking, runtime telemetry, and SLO-aware health (PR 7).

Covers the three layers the observability loop closes through:

* :mod:`repro.server.slo` — rolling/tumbling window math, burn
  detection, the ok/degraded/failing rollup;
* :mod:`repro.obs.runtime` — process probes, read fresh by every
  scrape with no sampler thread;
* the gateway/HTTP surface — ``/healthz?deep=1`` component health, 503
  on sustained burn, the new ``slo_*``/runtime/cache metric families,
  and the client's ``healthz(deep=True)`` / ``metrics_parsed()``.
"""

import threading

import numpy as np
import pytest

from repro.detection import BaseDetector
from repro.graphs import random_multiplex
from repro.obs import assert_valid_exposition
from repro.obs.promlint import parse_families
from repro.obs.runtime import capture_sample, peak_rss_bytes, rss_bytes
from repro.serve import DetectorService
from repro.server import (
    Gateway,
    MicroBatcher,
    ServerClient,
    ServerThread,
    SLOObjective,
    SLOTracker,
)
from repro.server.gateway import SLO_ENDPOINTS
from repro.server.slo import nearest_rank


class FlatDetector(BaseDetector):
    """Deterministic detector for gateway plumbing tests."""

    def __init__(self, num_nodes=16):
        self._scores = np.linspace(0.0, 1.0, num_nodes)
        self._relation_names = ["a"]
        self._num_features = 4

    def score_graph(self, graph):
        return np.linspace(0.0, 1.0, graph.num_nodes)


def _gateway(**overrides):
    defaults = dict(linger_ms=0.0,
                    slo_window=4, slo_p99_seconds=0.5,
                    slo_error_ratio=0.25, slo_sustain=2)
    defaults.update(overrides)
    return Gateway(DetectorService(FlatDetector()), **defaults)


# ---------------------------------------------------------------------------
# nearest_rank + SLOTracker
# ---------------------------------------------------------------------------

class TestNearestRank:
    def test_known_quantiles(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert nearest_rank(values, 0.50) == 0.3
        assert nearest_rank(values, 0.99) == 0.5
        assert nearest_rank(values, 0.0) == 0.1
        assert nearest_rank([7.0], 0.99) == 7.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)


class TestSLOTracker:
    def test_window_completion_and_summary(self):
        tracker = SLOTracker(window=4, objective=SLOObjective(
            p99_seconds=1.0, error_ratio=0.5))
        assert tracker.observe("score", 0.1) is None
        assert tracker.observe("score", 0.2) is None
        assert tracker.observe("score", 0.3, error=True) is None
        summary = tracker.observe("score", 0.4)
        assert summary is not None
        assert summary.index == 1
        assert summary.samples == 4
        assert summary.p50_seconds == 0.2     # nearest rank of 4 values
        assert summary.p99_seconds == 0.4
        assert summary.error_ratio == 0.25
        assert summary.compliant
        assert tracker.status() == "ok"

    def test_burn_needs_sustained_violation(self):
        tracker = SLOTracker(window=2, sustain=2,
                             objective=SLOObjective(p99_seconds=0.1))
        tracker.observe("score", 1.0)
        tracker.observe("score", 1.0)          # window 1: violating
        assert tracker.status() == "degraded"  # one bad window ≠ failing
        assert not tracker.endpoint_status("score").burning
        tracker.observe("score", 1.0)
        tracker.observe("score", 1.0)          # window 2: violating
        assert tracker.endpoint_status("score").burning
        assert tracker.status() == "failing"

    def test_recovery_clears_burn(self):
        tracker = SLOTracker(window=2, sustain=2, min_samples=2,
                             objective=SLOObjective(p99_seconds=0.1))
        for _ in range(4):
            tracker.observe("score", 1.0)
        assert tracker.status() == "failing"
        for _ in range(4):
            tracker.observe("score", 0.01)     # two clean windows
        assert tracker.status() == "ok"
        status = tracker.endpoint_status("score")
        assert status.windows == 4 and status.burn_windows == 2

    def test_error_ratio_burns_independently_of_latency(self):
        tracker = SLOTracker(window=4, sustain=1, objective=SLOObjective(
            p99_seconds=10.0, error_ratio=0.25))
        for _ in range(3):
            tracker.observe("score", 0.01, error=True)
        summary = tracker.observe("score", 0.01, error=False)
        assert summary.error_ratio == 0.75
        assert not summary.compliant
        assert tracker.status() == "failing"   # sustain=1

    def test_min_samples_gates_live_judgement(self):
        tracker = SLOTracker(window=100, min_samples=20,
                             objective=SLOObjective(p99_seconds=0.1))
        for _ in range(5):
            tracker.observe("score", 9.9)      # violating but unjudged
        status = tracker.endpoint_status("score")
        assert not status.judged and status.compliant
        assert tracker.status() == "ok"
        for _ in range(15):
            tracker.observe("score", 9.9)
        status = tracker.endpoint_status("score")
        assert status.judged and not status.compliant
        assert tracker.status() == "degraded"

    def test_snapshot_shape(self):
        tracker = SLOTracker(window=2)
        for _ in range(4):
            tracker.observe("score", 0.01)
        tracker.observe("events", 0.02)
        snap = tracker.snapshot()
        assert snap["status"] == "ok"
        assert snap["window"] == 2 and snap["sustain"] == 2
        assert set(snap["endpoints"]) == {"score", "events"}
        assert len(snap["windows"]) == 2
        assert snap["objective"] == {"p99_seconds": 2.5,
                                     "error_ratio": 0.02}

    def test_windows_merged_across_endpoints_with_limit(self):
        tracker = SLOTracker(window=1, history=4)
        for endpoint in ("score", "events", "score"):
            tracker.observe(endpoint, 0.01)
        merged = tracker.windows()
        assert [w.endpoint for w in merged].count("score") == 2
        assert len(tracker.windows(limit=2)) == 2

    def test_constructor_validation(self):
        for kwargs in ({"window": 0}, {"sustain": 0}, {"history": 0}):
            with pytest.raises(ValueError):
                SLOTracker(**kwargs)

    def test_thread_safety_smoke(self):
        tracker = SLOTracker(window=10)

        def hammer():
            for _ in range(200):
                tracker.observe("score", 0.01)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        status = tracker.endpoint_status("score")
        assert status.windows == 80            # 800 observations / 10


# ---------------------------------------------------------------------------
# Runtime telemetry
# ---------------------------------------------------------------------------

class TestRuntime:
    def test_process_probes(self):
        rss = rss_bytes()
        assert rss is not None and rss > 1_000_000   # a numpy process
        peak = peak_rss_bytes()
        assert peak is not None and peak >= rss // 2

    def test_capture_sample_fields(self):
        sample = capture_sample()
        payload = sample.to_dict()
        assert payload["rss_bytes"] > 0
        assert payload["threads"] >= 1
        assert payload["open_fds"] >= 3       # stdin/stdout/stderr at least
        assert len(payload["gc"]) == 3
        assert all("collections" in gen for gen in payload["gc"])

    def test_gateway_starts_no_sampler_thread(self):
        before = set(threading.enumerate())
        gateway = _gateway()
        try:
            started = {thread.name for thread in threading.enumerate()
                       if thread not in before}
            assert "repro-runtime-sampler" not in started
            # the batcher's two workers, nothing else
            assert started == {"repro-batcher-0", "repro-batcher-1"}
        finally:
            gateway.close()

    def test_scrape_reads_threads_fresh(self):
        gateway = _gateway()
        release = threading.Event()
        extra = threading.Thread(target=release.wait, daemon=True)

        def scraped_threads():
            families = parse_families(gateway.metrics_text())
            return families["repro_process_threads"]["samples"][0]["value"]

        try:
            before = scraped_threads()
            extra.start()
            assert scraped_threads() == before + 1
        finally:
            release.set()
            extra.join(timeout=5.0)
            gateway.close()
        assert not extra.is_alive()


# ---------------------------------------------------------------------------
# Gateway + HTTP surface
# ---------------------------------------------------------------------------

class TestGatewaySLO:
    def test_record_feeds_only_slo_endpoints(self):
        gateway = _gateway()
        try:
            gateway.record("score", 200, seconds=0.01)
            gateway.record("metrics", 200, seconds=0.01)
            gateway.record("healthz", 200, seconds=0.01)
            assert set(gateway.slo.statuses()) == {"score"}
            assert "metrics" not in SLO_ENDPOINTS
        finally:
            gateway.close()

    def test_4xx_does_not_burn_5xx_does(self):
        gateway = _gateway(slo_window=4, slo_sustain=1,
                           slo_error_ratio=0.25)
        try:
            for _ in range(4):
                gateway.record("score", 429, seconds=0.01)
            assert gateway.slo.last_window("score").compliant
            for _ in range(4):
                gateway.record("score", 500, seconds=0.01)
            assert not gateway.slo.last_window("score").compliant
            assert gateway.health()["status"] == "failing"
        finally:
            gateway.close()

    def test_deep_health_components(self):
        gateway = _gateway()
        try:
            shallow = gateway.health()
            assert "components" not in shallow
            deep = gateway.health(deep=True)
            comps = deep["components"]
            assert set(comps) == {"service", "batcher", "runtime", "slo",
                                  "breaker"}
            assert comps["batcher"]["workers"] == 2
            assert comps["batcher"]["utilization"] >= 0.0
            assert comps["runtime"]["rss_bytes"] > 0
            assert comps["slo"]["status"] == "ok"
            assert comps["service"]["cache_capacity"] > 0
        finally:
            gateway.close()

    def test_healthz_503_on_sustained_burn_over_http(self):
        gateway = _gateway(slo_window=3, slo_p99_seconds=0.05,
                           slo_sustain=2)
        with ServerThread(gateway) as server:
            with ServerClient(port=server.port) as client:
                assert client.healthz()["status"] == "ok"
                assert client.last_status == 200
                # drive two violating tumbling windows through record()
                for _ in range(6):
                    gateway.record("score", 200, seconds=1.0)
                payload = client.healthz(deep=True)
                assert client.last_status == 503
                assert payload["status"] == "failing"
                slo = payload["components"]["slo"]
                assert slo["endpoints"]["score"]["burning"]
                assert not slo["windows"][-1]["compliant"]
                # shallow healthz reports the same failing status
                assert client.healthz()["status"] == "failing"
                assert client.last_status == 503

    def test_metrics_families_and_parsed_client(self):
        gateway = _gateway(slo_window=2)
        rng = np.random.default_rng(0)
        with ServerThread(gateway) as server:
            with ServerClient(port=server.port) as client:
                client.score(random_multiplex(12, 1, 4, rng))
                client.score(random_multiplex(13, 1, 4, rng))
                text = client.metrics()
                assert_valid_exposition(text)
                families = client.metrics_parsed()
                assert families["repro_process_resident_memory_bytes"][
                    "type"] == "gauge"
                assert families["repro_slo_windows_total"][
                    "type"] == "counter"
                slo_samples = families["repro_slo_window_samples"]["samples"]
                assert any(s["labels"] == {"endpoint": "score"}
                           for s in slo_samples)
                util = families["repro_batcher_utilization_ratio"][
                    "samples"][0]["value"]
                assert 0.0 <= util <= 1.0
                entries = families["repro_service_cache_entries"][
                    "samples"][0]["value"]
                assert entries == 2.0

    def test_batcher_busy_seconds_accumulate(self):
        service = DetectorService(FlatDetector())
        batcher = MicroBatcher(service, workers=1, linger_ms=0.0)
        try:
            assert batcher.collect().health["workers"] == 1
            assert batcher.busy_seconds == 0.0
            rng = np.random.default_rng(1)
            graph = random_multiplex(10, 1, 4, rng)
            from repro.graphs import graph_fingerprint
            batcher.submit(graph, graph_fingerprint(graph)).result(
                timeout=10.0)
            assert batcher.busy_seconds > 0.0
        finally:
            batcher.close()

    def test_cache_info_accounting(self):
        service = DetectorService(FlatDetector(), cache_size=4)
        rng = np.random.default_rng(2)
        empty = service.cache_info()
        assert empty["entries"] == 0 and empty["bytes"] == 0
        graph = random_multiplex(20, 1, 4, rng)
        scores = service.scores(graph)
        info = service.cache_info()
        assert info["entries"] == 1
        # The LRU pins the scores, not the graph they came from.
        assert info["bytes"] == scores.nbytes
        assert info["capacity"] == 4 and info["inflight"] == 0
        service.top_k(graph, 3)  # builds the cached ranking
        ranking_bytes = scores.size * np.dtype(np.intp).itemsize
        assert service.cache_info()["bytes"] == scores.nbytes + ranking_bytes
