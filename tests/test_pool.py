"""Process-pool execution tier: shm lifecycle, parity, crash rescue.

The contracts under test (ISSUE PR 10):

* :class:`repro.pool.SharedCheckpoint` — publish/attach round-trips every
  payload array zero-copy and read-only; close/unlink leave nothing in
  ``/dev/shm``.
* :class:`repro.pool.SharedModelStore` — a hot swap retires the old
  generation but keeps its segments **attachable until the last in-flight
  reference drains**; the drain unlinks them.
* :func:`repro.pool.reclaim_stale_segments` — startup unlinks segments
  whose embedded owner pid is dead, and leaves live owners' segments
  alone.
* :class:`repro.pool.ProcessPool` — bitwise parity with the thread tier,
  SIGKILLed workers are respawned with zero requests lost and zero
  leaked segments, shutdown reports what did not die cleanly.
* Gateway integration — ``exec_tier="process"`` end to end: HTTP parity,
  ``pool_*`` metrics, deep health, activate hot-swap, automatic thread
  fallback when shm is unavailable.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import UMGAD, UMGADConfig
from repro.graphs import random_multiplex
from repro.graphs.io import graph_fingerprint
from repro.pool import (
    PoolUnavailable,
    ProcessPool,
    SharedCheckpoint,
    SharedMemoryError,
    SharedModelStore,
    list_segments,
    reclaim_stale_segments,
    segment_name,
    shm_available,
)
from repro.serve.checkpoint import checkpoint_payload
from repro.serve.service import DetectorService
from repro.server.batcher import MicroBatcher

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable")


def _tiny_payload():
    header = {"detector": "Fake", "checksum": "n/a"}
    payload = {
        "array::a": np.arange(12, dtype=np.float64).reshape(3, 4),
        "array::b": np.array([True, False, True]),
        "array::empty": np.empty((0, 2), dtype=np.int64),
    }
    return header, payload


# ---------------------------------------------------------------------------
# SharedCheckpoint
# ---------------------------------------------------------------------------

class TestSharedCheckpoint:
    def test_publish_attach_roundtrip(self):
        header, payload = _tiny_payload()
        published = SharedCheckpoint.publish(header, payload, generation=1)
        try:
            attached = SharedCheckpoint.attach(published.manifest)
            try:
                for name, value in payload.items():
                    np.testing.assert_array_equal(attached.arrays()[name],
                                                  value)
                assert attached.generation == 1
                assert attached.header["detector"] == "Fake"
                assert attached.num_segments == len(payload)
            finally:
                attached.close()
        finally:
            published.unlink()

    def test_views_are_read_only(self):
        header, payload = _tiny_payload()
        published = SharedCheckpoint.publish(header, payload, generation=1)
        try:
            attached = SharedCheckpoint.attach(published.manifest)
            try:
                with pytest.raises(ValueError):
                    attached.arrays()["array::a"][0, 0] = 99.0
                with pytest.raises(ValueError):
                    published.arrays()["array::a"][0, 0] = 99.0
            finally:
                attached.close()
        finally:
            published.unlink()

    def test_attach_is_zero_copy(self):
        """Attached views alias the shm buffer — no private copy."""
        header, payload = _tiny_payload()
        published = SharedCheckpoint.publish(header, payload, generation=1)
        try:
            attached = SharedCheckpoint.attach(published.manifest)
            try:
                view = attached.arrays()["array::a"]
                assert view.base is not None  # borrows the segment buffer
            finally:
                attached.close()
        finally:
            published.unlink()

    def test_unlink_removes_segments(self):
        header, payload = _tiny_payload()
        published = SharedCheckpoint.publish(header, payload, generation=7)
        names = [entry["segment"]
                 for entry in published.manifest["arrays"].values()]
        assert all(name in list_segments() for name in names)
        published.unlink()
        remaining = list_segments()
        assert not any(name in remaining for name in names)

    def test_only_owner_unlinks(self):
        header, payload = _tiny_payload()
        published = SharedCheckpoint.publish(header, payload, generation=1)
        try:
            attached = SharedCheckpoint.attach(published.manifest)
            with pytest.raises(SharedMemoryError):
                attached.unlink()
            attached.close()
        finally:
            published.unlink()

    def test_attach_missing_segment_fails(self):
        manifest = {
            "prefix": "repro-pool", "pid": os.getpid(), "generation": 1,
            "header": {},
            "arrays": {"x": {"segment": segment_name(os.getpid(), 999, 0),
                             "dtype": "float64", "shape": [2]}},
        }
        with pytest.raises(SharedMemoryError):
            SharedCheckpoint.attach(manifest)

    def test_arrays_after_close_fail(self):
        header, payload = _tiny_payload()
        published = SharedCheckpoint.publish(header, payload, generation=1)
        manifest = published.manifest
        attached = SharedCheckpoint.attach(manifest)
        attached.close()
        with pytest.raises(SharedMemoryError):
            attached.arrays()
        published.unlink()


# ---------------------------------------------------------------------------
# SharedModelStore: hot-swap generation refcounting
# ---------------------------------------------------------------------------

class TestSharedModelStore:
    def test_hot_swap_keeps_old_generation_until_drained(self):
        """A mid-flight batch pins the old generation across a swap."""
        store = SharedModelStore()
        try:
            header, payload = _tiny_payload()
            store.publish(header, payload)
            old_manifest = store.manifest()
            held = store.acquire()          # an in-flight batch
            assert held == 1

            header2, payload2 = _tiny_payload()
            store.publish(header2, payload2)
            assert store.current_generation == 2
            # Old generation retired but still attachable: its segments
            # must stay readable until the in-flight reference drains.
            assert store.generations_live == 2
            attached = SharedCheckpoint.attach(old_manifest)
            np.testing.assert_array_equal(
                attached.arrays()["array::a"], payload["array::a"])
            attached.close()

            store.release(held)             # the batch drains
            assert store.generations_live == 1
            with pytest.raises(SharedMemoryError):
                SharedCheckpoint.attach(old_manifest)
        finally:
            store.close()

    def test_swap_with_no_refs_unlinks_immediately(self):
        store = SharedModelStore()
        try:
            header, payload = _tiny_payload()
            store.publish(header, payload)
            old_manifest = store.manifest()
            store.publish(*_tiny_payload())
            assert store.generations_live == 1
            with pytest.raises(SharedMemoryError):
                SharedCheckpoint.attach(old_manifest)
        finally:
            store.close()

    def test_acquire_dead_generation_fails(self):
        store = SharedModelStore()
        try:
            store.publish(*_tiny_payload())
            with pytest.raises(SharedMemoryError):
                store.acquire(42)
        finally:
            store.close()

    def test_close_unlinks_everything(self):
        store = SharedModelStore()
        store.publish(*_tiny_payload())
        names = [entry["segment"]
                 for entry in store.manifest()["arrays"].values()]
        store.close()
        remaining = list_segments()
        assert not any(name in remaining for name in names)

    def test_stats_shape(self):
        store = SharedModelStore()
        try:
            store.publish(*_tiny_payload())
            stats = store.stats()
            assert stats["generation"] == 1
            assert stats["generations_live"] == 1
            assert stats["segments"] == 3
            assert stats["bytes"] > 0
            assert stats["refs"] == 0
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Stale-segment reclamation at startup
# ---------------------------------------------------------------------------

class TestReclaimStaleSegments:
    def _dead_pid(self):
        """A pid that is certainly not running (freshly exited child)."""
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        return pid

    def test_dead_owner_segments_reclaimed(self):
        from multiprocessing import shared_memory
        dead = self._dead_pid()
        name = segment_name(dead, 1, 0)
        segment = shared_memory.SharedMemory(name=name, create=True, size=16)
        segment.close()
        assert name in list_segments()
        reclaimed = reclaim_stale_segments()
        assert name in reclaimed
        assert name not in list_segments()

    def test_live_owner_segments_kept(self):
        header, payload = _tiny_payload()
        published = SharedCheckpoint.publish(header, payload, generation=1)
        try:
            assert reclaim_stale_segments() == []
            names = [entry["segment"]
                     for entry in published.manifest["arrays"].values()]
            assert all(name in list_segments() for name in names)
        finally:
            published.unlink()


# ---------------------------------------------------------------------------
# ProcessPool
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pool_model(tiny_dataset):
    cfg = UMGADConfig(epochs=4, mask_repeats=1, hidden_dim=16, seed=0)
    return UMGAD(cfg).fit(tiny_dataset.graph)


@pytest.fixture()
def pool(pool_model):
    pool = ProcessPool(pool_model, workers=2)
    yield pool
    pool.close()


class TestProcessPool:
    def test_bitwise_parity_with_thread_tier(self, pool, pool_model,
                                             tiny_dataset):
        # A worker runs score_graph for every graph it is sent, the
        # trained one too; stored scores are the leader service's answer.
        rng = np.random.default_rng(3)
        fresh = random_multiplex(40, 3, 16, rng, avg_degree=4.0)
        for graph in (tiny_dataset.graph, fresh):
            fingerprint = graph_fingerprint(graph)
            expected = pool_model.score_graph(graph)
            got = pool.score(graph, fingerprint)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)  # bitwise

    def test_sigkill_worker_respawns_and_serves(self, pool, pool_model,
                                                tiny_dataset):
        graph = tiny_dataset.graph
        fingerprint = graph_fingerprint(graph)
        expected = pool.score(graph, fingerprint)
        before = {info["worker"]: info["pid"]
                  for info in pool.worker_infos()}
        for info in pool.worker_infos():
            os.kill(info["pid"], signal.SIGKILL)
        # The dispatch path (or the watchdog) must respawn and answer.
        got = pool.score(graph, fingerprint)
        np.testing.assert_array_equal(got, expected)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            infos = pool.worker_infos()
            if all(info["alive"] for info in infos):
                break
            time.sleep(0.05)
        infos = {info["worker"]: info for info in pool.worker_infos()}
        assert all(info["alive"] for info in infos.values())
        assert all(infos[wid]["pid"] != pid for wid, pid in before.items())
        assert pool.stats()["worker_deaths"] >= 2

    def test_sigkill_leaks_no_segments(self, pool_model, tiny_dataset):
        pool = ProcessPool(pool_model, workers=2)
        mine = f"-{os.getpid()}-"
        try:
            os.kill(pool.worker_infos()[0]["pid"], signal.SIGKILL)
            time.sleep(0.1)
        finally:
            report = pool.close()
        assert report["leaked_segments"] == []
        assert not any(mine in name for name in list_segments())

    def test_hot_swap_changes_scores(self, pool, tiny_dataset):
        graph = tiny_dataset.graph
        fingerprint = graph_fingerprint(graph)
        baseline = pool.score(graph, fingerprint)
        replacement = UMGAD(UMGADConfig(epochs=2, mask_repeats=1,
                                        hidden_dim=16, seed=9)
                            ).fit(graph)
        generation = pool.publish_detector(replacement)
        assert generation == 2
        assert all(info["generation"] == 2
                   for info in pool.worker_infos())
        swapped = pool.score(graph, fingerprint)
        np.testing.assert_array_equal(swapped, replacement.score_graph(graph))
        assert not np.array_equal(swapped, baseline)

    def test_worker_error_rebuilt_typed(self, pool):
        # A graph whose feature width disagrees with the model must come
        # back as the same exception type the thread tier raises.
        rng = np.random.default_rng(0)
        bad = random_multiplex(10, 3, 4, rng, avg_degree=2.0)
        with pytest.raises(ValueError):
            pool.score(bad, graph_fingerprint(bad))
        # and the pool still serves afterwards
        assert pool.stats()["workers_alive"] == 2

    def test_close_reports_and_is_idempotent(self, pool_model):
        pool = ProcessPool(pool_model, workers=1)
        report = pool.close()
        assert report["workers_stopped"] == 1
        assert report["workers_killed"] == 0
        assert report["leaked_segments"] == []
        again = pool.close()
        assert again["workers_stopped"] == 0
        with pytest.raises(PoolUnavailable):
            pool.score(None, "x")

    def test_dispatch_chaos_point(self, pool, tiny_dataset):
        from repro import chaos
        graph = tiny_dataset.graph
        fingerprint = graph_fingerprint(graph)
        chaos.configure("pool.dispatch", "error", count=1, key=fingerprint)
        try:
            with pytest.raises(chaos.ChaosError):
                pool.score(graph, fingerprint)
            # one-shot fault: the next dispatch succeeds
            assert pool.score(graph, fingerprint) is not None
        finally:
            chaos.reset()


# ---------------------------------------------------------------------------
# Batcher → service → executor dispatch + close report
# ---------------------------------------------------------------------------

class TestBatcherExecutor:
    def test_cold_groups_dispatch_to_executor(self, pool_model,
                                              tiny_dataset):
        class Recorder:
            def __init__(self, detector):
                self.detector = detector
                self.calls = []

            def score(self, graph, fingerprint):
                self.calls.append(fingerprint)
                return self.detector.score_graph(graph)

        recorder = Recorder(pool_model)
        service = DetectorService(pool_model, cache_size=8,
                                  executor=recorder)
        batcher = MicroBatcher(service, workers=1)
        try:
            rng = np.random.default_rng(5)
            graph = random_multiplex(40, 3, 16, rng, avg_degree=4.0)
            fingerprint = graph_fingerprint(graph)
            scores = batcher.submit(graph, fingerprint).result(timeout=60)
            assert recorder.calls == [fingerprint]
            assert service.stats.misses == 1
            # the service cached the executor's result: a warm re-submit
            # answers in-process without another dispatch
            again = batcher.submit(graph, fingerprint).result(timeout=60)
            assert recorder.calls == [fingerprint]
            assert again is scores
            # the trained graph is answered from stored scores, never
            # dispatched
            trained = batcher.submit(tiny_dataset.graph).result(timeout=60)
            np.testing.assert_array_equal(trained,
                                          pool_model.decision_scores())
            assert recorder.calls == [fingerprint]
        finally:
            batcher.close()

    def test_close_returns_report(self, pool_model):
        service = DetectorService(pool_model, cache_size=2)
        batcher = MicroBatcher(service, workers=2)
        report = batcher.close()
        assert report == {"workers_joined": 2, "leaked_workers": [],
                          "pending_at_close": 0}
        assert batcher.close() == report  # idempotent, same report


# ---------------------------------------------------------------------------
# Gateway integration (HTTP end to end)
# ---------------------------------------------------------------------------

class TestGatewayProcessTier:
    @pytest.fixture()
    def gateway(self, pool_model):
        from repro.server import Gateway
        service = DetectorService(pool_model, cache_size=8)
        gateway = Gateway(service, exec_tier="process", worker_procs=2,
                          sample_interval=60.0)
        yield gateway
        gateway.close()

    def test_http_score_parity_and_telemetry(self, gateway, pool_model,
                                             tiny_dataset):
        from repro.server.app import ServerThread
        from repro.server.client import ServerClient

        assert gateway.exec_tier == "process"
        reference = DetectorService(pool_model, cache_size=8)
        rng = np.random.default_rng(11)
        graph = random_multiplex(40, 3, 16, rng, avg_degree=4.0)
        expected = reference.scores(graph, graph_fingerprint(graph))
        # a concurrent herd of distinct graphs: each request is its own
        # pass on a worker, and each matches the thread tier bitwise
        herd = [random_multiplex(30 + i, 3, 16, rng, avg_degree=4.0)
                for i in range(4)]
        herd_expected = [reference.scores(g, graph_fingerprint(g))
                         for g in herd]
        herd_scores = [None] * len(herd)
        with ServerThread(gateway) as server:
            client = ServerClient(port=server.port)
            response = client.score(graph=graph)
            np.testing.assert_allclose(np.asarray(response["scores"]),
                                       expected, rtol=0, atol=0)

            def hit(index):
                with ServerClient(port=server.port) as own:
                    herd_scores[index] = np.asarray(
                        own.score(graph=herd[index])["scores"])

            threads = [threading.Thread(target=hit, args=(i,))
                       for i in range(len(herd))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            for got, want in zip(herd_scores, herd_expected):
                np.testing.assert_array_equal(got, want)
            dispatches = gateway.pool.stats()["dispatches"]
            assert dispatches >= 1 + len(herd)
            # the trained graph is the leader's stored scores, bitwise,
            # and never reaches a worker
            trained = client.score(graph=tiny_dataset.graph)
            assert np.array_equal(np.asarray(trained["scores"]),
                                  pool_model.decision_scores())
            assert gateway.pool.stats()["dispatches"] == dispatches
            # every worker pass was a service miss
            assert gateway.service.stats.misses == 1 + len(herd) + 1
            health = client.healthz(deep=True)
            assert health["exec_tier"] == "process"
            pool_health = health["components"]["pool"]
            assert pool_health["workers_alive"] == 2
            assert pool_health["shm_bytes"] > 0
            metrics = client.metrics()
            for family in ("repro_pool_workers_alive",
                           "repro_pool_dispatches_total",
                           "repro_pool_shm_bytes",
                           "repro_pool_worker_resident_memory_bytes"):
                assert family in metrics
            report = server.stop()
        assert report["pool"]["leaked_segments"] == []
        assert report["batcher"]["leaked_workers"] == []

    def test_activate_bumps_pool_generation(self, pool_model, tiny_dataset,
                                            tmp_path):
        from repro.serve.registry import ModelRegistry
        from repro.server import Gateway

        registry = ModelRegistry(tmp_path)
        registry.save("first", pool_model)
        replacement = UMGAD(UMGADConfig(epochs=2, mask_repeats=1,
                                        hidden_dim=16, seed=9)
                            ).fit(tiny_dataset.graph)
        registry.save("second", replacement)
        service = DetectorService(pool_model, cache_size=8)
        gateway = Gateway(service, registry=registry, active_model="first",
                          exec_tier="process", worker_procs=1,
                          sample_interval=60.0)
        try:
            publish = gateway.pool.publish_detector
            served_at_publish = []

            def watched_publish(detector, *args, **kwargs):
                served_at_publish.append(gateway.service.detector)
                return publish(detector, *args, **kwargs)

            gateway.pool.publish_detector = watched_publish
            response = gateway.activate("second")
            assert response["pool_generation"] == 2
            # the pool swapped while the service still served the old
            # model: no pass can start on the old weights after the
            # service's generation bump
            assert len(served_at_publish) == 1
            assert served_at_publish[0] is pool_model
            assert gateway.service.detector is not pool_model
            graph = tiny_dataset.graph
            fingerprint = graph_fingerprint(graph)
            got = gateway.pool.score(graph, fingerprint)
            np.testing.assert_array_equal(got, replacement.score_graph(graph))
        finally:
            gateway.close()

    def test_fallback_to_threads_when_shm_unavailable(self, pool_model,
                                                      monkeypatch):
        import repro.pool.executor as executor_module
        from repro.server import Gateway

        monkeypatch.setattr(executor_module, "shm_available", lambda: False)
        service = DetectorService(pool_model, cache_size=8)
        gateway = Gateway(service, exec_tier="process", worker_procs=2,
                          sample_interval=60.0)
        try:
            assert gateway.exec_tier == "thread"
            assert gateway.pool is None
            assert "shared memory" in gateway.pool_fallback_reason
            health = gateway.health(deep=True)
            assert health["exec_tier"] == "thread"
            assert health["components"]["pool"]["fallback"] == "thread"
        finally:
            gateway.close()

    def test_invalid_exec_tier_rejected(self, pool_model):
        from repro.server import Gateway
        service = DetectorService(pool_model, cache_size=8)
        with pytest.raises(ValueError):
            Gateway(service, exec_tier="fiber")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestServeCliFlags:
    def _parse(self, *argv):
        from repro.cli import _build_parser
        return _build_parser().parse_args(list(argv))

    def test_worker_threads_flag(self):
        args = self._parse("serve", "--model", "m.npz",
                           "--worker-threads", "5")
        assert args.workers == 5

    def test_workers_alias_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self._parse("serve", "--model", "m.npz", "--workers", "3")
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_exec_tier_and_procs(self):
        args = self._parse("serve", "--model", "m.npz",
                           "--exec-tier", "process", "--worker-procs", "4")
        assert args.exec_tier == "process"
        assert args.worker_procs == 4

    def test_defaults(self):
        args = self._parse("serve", "--model", "m.npz")
        assert args.exec_tier == "thread"
        assert args.worker_procs == 2
        assert args.workers == 2

    def test_help_lists_tier_flags(self):
        from repro.cli import _build_parser
        parser = _build_parser()
        serve = parser._subparsers._group_actions[0].choices["serve"]
        help_text = " ".join(serve.format_help().split())
        assert "--worker-threads" in help_text
        assert "--workers " not in help_text
        assert "--exec-tier" in help_text
