"""Process-pool execution tier: parity, crash rescue, hot swap, fallback.

The contracts under test:

* :class:`repro.pool.ProcessPool` — bitwise parity with the thread tier,
  SIGKILLed workers are respawned (from the newest checkpoint) by the
  dispatch that finds them dead with zero requests lost, a batch goes to
  an idle worker, a hot swap restarts every worker on the new model,
  shutdown reports what did not die cleanly.
* Gateway integration — ``exec_tier="process"`` end to end: HTTP parity,
  ``pool_*`` metrics, deep health, crash rescue under a live server,
  activate hot-swap, automatic thread fallback when the workers cannot
  be started, no thread beyond the batcher's.
"""

import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro.core import UMGAD, UMGADConfig
from repro.graphs import random_multiplex
from repro.graphs.io import graph_fingerprint
from repro.pool import PoolUnavailable, ProcessPool
from repro.serve.service import DetectorService
from repro.server.batcher import MicroBatcher


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
        # the dispatch that picks a dead worker respawns it and answers
        got = pool.score(graph, fingerprint)
        np.testing.assert_array_equal(got, expected)
        assert pool.stats()["worker_deaths"] == 1
        # with worker 0 busy, the next dispatch picks dead worker 1,
        # revives it and is answered there
        busy = pool._workers[0].lock
        busy.acquire()
        try:
            got = pool.score(graph, fingerprint)
        finally:
            busy.release()
        np.testing.assert_array_equal(got, expected)
        infos = {info["worker"]: info for info in pool.worker_infos()}
        assert all(info["alive"] for info in infos.values())
        assert all(infos[wid]["pid"] != pid for wid, pid in before.items())
        assert infos[1]["requests"] == 1
        assert pool.stats()["worker_deaths"] == 2

    def test_sigkilled_worker_respawns_on_new_generation(self, pool,
                                                         tiny_dataset):
        graph = tiny_dataset.graph
        replacement = UMGAD(UMGADConfig(epochs=2, mask_repeats=1,
                                        hidden_dim=16, seed=9)
                            ).fit(graph)
        assert pool.publish_detector(replacement) == 2
        for info in pool.worker_infos():
            os.kill(info["pid"], signal.SIGKILL)
        # whichever worker answers was respawned after the swap: it must
        # run the new detector, not the one the pool started with
        got = pool.score(graph, graph_fingerprint(graph))
        np.testing.assert_array_equal(got, replacement.score_graph(graph))

    def test_worker_memory_leaves_out_shared_pages(self, pool):
        # A forked worker still shares most of its resident pages with the
        # leader; the per-worker memory is only what it does not share.
        for info in pool.worker_infos():
            if info["private_bytes"] is None:
                pytest.skip("/proc/<pid>/smaps_rollup is unreadable here")
            with open(f"/proc/{info['pid']}/statm", "rb") as handle:
                resident = int(handle.read().split()[1]) * os.sysconf(
                    "SC_PAGE_SIZE")
            assert 0 < info["private_bytes"] < resident

    def test_busy_worker_is_skipped(self, pool, pool_model):
        graph = random_multiplex(40, 3, 16, np.random.default_rng(21),
                                 avg_degree=4.0)
        fingerprint = graph_fingerprint(graph)
        results = []
        busy = pool._workers[0].lock
        busy.acquire()
        try:
            thread = threading.Thread(
                target=lambda: results.append(pool.score(graph, fingerprint)))
            thread.start()
            thread.join(timeout=30.0)
            answered = not thread.is_alive()
        finally:
            busy.release()
            thread.join(timeout=60.0)
        assert answered, "batch waited on the busy worker"
        np.testing.assert_array_equal(results[0],
                                      pool_model.score_graph(graph))
        assert [info["requests"] for info in pool.worker_infos()] == [0, 1]

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

    def test_hot_swap_restarts_every_worker(self, pool, tiny_dataset):
        before = {info["worker"]: info["pid"]
                  for info in pool.worker_infos()}
        stats = pool.stats()
        replacement = UMGAD(UMGADConfig(epochs=2, mask_repeats=1,
                                        hidden_dim=16, seed=9)
                            ).fit(tiny_dataset.graph)
        assert pool.publish_detector(replacement) == 2
        infos = pool.worker_infos()
        assert all(info["alive"] and info["generation"] == 2
                   for info in infos)
        assert all(info["pid"] != before[info["worker"]] for info in infos)
        # a swap restart is not a death
        assert pool.stats()["worker_deaths"] == stats["worker_deaths"]
        assert [info["respawns"] for info in infos] == [0, 0]

    def test_failed_swap_restart_is_respawned_by_next_dispatch(
            self, pool, tiny_dataset, monkeypatch):
        import repro.pool.executor as executor_module

        graph = tiny_dataset.graph
        replacement = UMGAD(UMGADConfig(epochs=2, mask_repeats=1,
                                        hidden_dim=16, seed=9)
                            ).fit(graph)
        real_main = executor_module.worker_main
        # every worker dies before its "ready" handshake on the new model
        monkeypatch.setattr(executor_module, "worker_main",
                            lambda *args: os._exit(1))
        with pytest.raises(PoolUnavailable, match="hot swap incomplete"):
            pool.publish_detector(replacement)
        assert pool.stats()["workers_alive"] == 0
        monkeypatch.setattr(executor_module, "worker_main", real_main)
        got = pool.score(graph, graph_fingerprint(graph))
        np.testing.assert_array_equal(got, replacement.score_graph(graph))
        assert pool.worker_infos()[0]["generation"] == 2

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
        gateway = Gateway(service, exec_tier="process", worker_procs=2)
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
            assert pool_health["generation"] == 1
            metrics = client.metrics()
            for family in ("repro_pool_workers_alive",
                           "repro_pool_dispatches_total",
                           "repro_pool_generation",
                           "repro_pool_worker_private_memory_bytes"):
                assert family in metrics
            report = server.stop()
        assert report["pool"]["workers_killed"] == 0
        assert report["batcher"]["leaked_workers"] == []

    def test_killed_workers_rescued_under_live_server(self, gateway,
                                                      pool_model):
        from repro.server.app import ServerThread
        from repro.server.client import ServerClient

        rng = np.random.default_rng(13)
        fresh = [random_multiplex(40 + i, 3, 16, rng, avg_degree=4.0)
                 for i in range(3)]
        with ServerThread(gateway) as server:
            client = ServerClient(port=server.port)
            client.score(graph=fresh[0])
            for info in gateway.pool.worker_infos():
                os.kill(info["pid"], signal.SIGKILL)
            for graph in fresh[1:]:
                got = np.asarray(client.score(graph=graph)["scores"])
                np.testing.assert_array_equal(
                    got, pool_model.score_graph(graph))
            assert gateway.pool.stats()["worker_deaths"] >= 1
            assert "repro_pool_worker_deaths_total" in client.metrics()
            client.close()
            report = server.stop()
        assert report["pool"]["workers_killed"] == 0
        left = [child.name for child in multiprocessing.active_children()
                if child.name.startswith("repro-pool-worker-")]
        assert left == []

    def test_gateway_starts_only_batcher_threads(self, pool_model):
        from repro.server import Gateway

        before = set(threading.enumerate())
        service = DetectorService(pool_model, cache_size=8)
        gateway = Gateway(service, exec_tier="process", worker_procs=2)
        try:
            assert gateway.exec_tier == "process"
            started = {thread.name for thread in threading.enumerate()
                       if thread not in before}
            assert started == {"repro-batcher-0", "repro-batcher-1"}
        finally:
            gateway.close()

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
                          exec_tier="process", worker_procs=1)
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

    def test_fallback_to_threads_when_spawn_fails(self, pool_model,
                                                  monkeypatch):
        import repro.pool.executor as executor_module
        from repro.server import Gateway

        # a worker that dies before its "ready" handshake
        monkeypatch.setattr(executor_module, "worker_main",
                            lambda *args: os._exit(1))
        service = DetectorService(pool_model, cache_size=8)
        gateway = Gateway(service, exec_tier="process", worker_procs=2)
        try:
            assert gateway.exec_tier == "thread"
            assert gateway.pool is None
            assert service.executor is None
            assert "worker 0" in gateway.pool_fallback_reason
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
