"""Model persistence + serving subsystem (repro.serve)."""

import dataclasses
import gc
import json
import threading
import weakref

import numpy as np
import pytest

import repro.core.threshold as threshold_mod
from repro.baselines import BASELINE_REGISTRY, make_baseline
from repro.cli import main as cli_main
from repro.core import UMGAD, UMGADConfig
from repro.graphs import graph_fingerprint, random_multiplex, save_multiplex
from repro.serve import (
    FORMAT_VERSION,
    CheckpointError,
    DetectorService,
    ModelRegistry,
    NonFiniteScoresError,
    ServiceError,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.serve.checkpoint import _HEADER_KEY


class _StandInExecutor:
    """A process-tier executor that scores in this process with the
    detector it currently holds, counting calls. With ``hold`` set, each
    call waits for ``release`` after taking its detector, so a test can
    swap the model under a pass that is still in flight."""

    def __init__(self, detector, hold=False):
        self.detector = detector
        self.calls = []
        self.entered = threading.Event()
        self.release = threading.Event()
        if not hold:
            self.release.set()

    def score(self, graph, fingerprint):
        detector = self.detector
        self.calls.append(fingerprint)
        self.entered.set()
        assert self.release.wait(timeout=60)
        return detector.score_graph(graph)


@pytest.fixture(scope="module")
def checkpoint(fitted_umgad, tiny_dataset, tmp_path_factory):
    """A saved UMGAD checkpoint shared across read-only tests."""
    path = tmp_path_factory.mktemp("ckpt") / "umgad.npz"
    save_checkpoint(path, fitted_umgad, graph=tiny_dataset.graph)
    return path


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = UMGADConfig(epochs=7, mask_ratio=0.3, mode="att", seed=5)
        assert UMGADConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_tolerated_unless_strict(self):
        payload = UMGADConfig().to_dict()
        payload["future_knob"] = 42
        assert UMGADConfig.from_dict(payload) == UMGADConfig()
        with pytest.raises(ValueError, match="future_knob"):
            UMGADConfig.from_dict(payload, strict=True)


class TestUMGADRoundTrip:
    def test_scores_bitwise_identical(self, fitted_umgad, checkpoint):
        loaded = load_checkpoint(checkpoint)
        assert isinstance(loaded, UMGAD)
        np.testing.assert_array_equal(loaded.decision_scores(),
                                      fitted_umgad.decision_scores())

    def test_threshold_and_importance_survive(self, fitted_umgad, checkpoint):
        loaded = load_checkpoint(checkpoint)
        orig, restored = fitted_umgad.threshold(), loaded.threshold()
        assert restored.threshold == orig.threshold
        assert restored.num_anomalies == orig.num_anomalies
        assert loaded.relation_importance == fitted_umgad.relation_importance
        assert loaded.config == fitted_umgad.config

    def test_state_dict_round_trip(self, fitted_umgad, checkpoint):
        loaded = load_checkpoint(checkpoint)
        for name, value in fitted_umgad.state_dict().items():
            np.testing.assert_array_equal(loaded.state_dict()[name], value)

    def test_score_graph_matches_across_load(self, fitted_umgad, checkpoint,
                                             tiny_dataset):
        loaded = load_checkpoint(checkpoint)
        a = fitted_umgad.score_graph(tiny_dataset.graph)
        b = loaded.score_graph(tiny_dataset.graph)
        np.testing.assert_array_equal(a, b)
        # deterministic across repeated calls too
        np.testing.assert_array_equal(b, loaded.score_graph(tiny_dataset.graph))

    def test_score_graph_validates_shape(self, fitted_umgad, rng):
        with pytest.raises(ValueError, match="features"):
            fitted_umgad.score_graph(random_multiplex(30, 3, 8, rng))
        with pytest.raises(ValueError, match="relations"):
            fitted_umgad.score_graph(random_multiplex(30, 2, 16, rng))

    def test_unfitted_model_refuses_save(self, tmp_path):
        with pytest.raises(CheckpointError, match="fit"):
            save_checkpoint(tmp_path / "x.npz", UMGAD())

    def test_detector_save_method(self, fitted_umgad, tmp_path):
        path = fitted_umgad.save(tmp_path / "via_method.npz")
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.decision_scores(),
                                      fitted_umgad.decision_scores())


class TestBaselineRoundTrips:
    @pytest.mark.parametrize("name", sorted(BASELINE_REGISTRY))
    def test_every_baseline_round_trips(self, name, tiny_dataset, tmp_path):
        det = make_baseline(name, seed=0, epochs=2).fit(tiny_dataset.graph)
        path = save_checkpoint(tmp_path / "b.npz", det,
                               graph=tiny_dataset.graph)
        loaded = load_checkpoint(path)
        assert type(loaded).__name__ == type(det).__name__
        np.testing.assert_array_equal(loaded.decision_scores(),
                                      det.decision_scores())
        assert loaded.threshold().threshold == det.threshold().threshold
        np.testing.assert_array_equal(loaded.predict(), det.predict())


class TestCheckpointErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_non_checkpoint_npz(self, tiny_multiplex, tmp_path):
        path = tmp_path / "graph.npz"
        save_multiplex(path, tiny_multiplex)
        with pytest.raises(CheckpointError, match="not a detector checkpoint"):
            load_checkpoint(path)

    def test_corrupted_payload(self, checkpoint, tmp_path):
        with np.load(checkpoint, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        scores_key = "array::_scores"
        payload[scores_key] = payload[scores_key] + 1.0  # silent tamper
        tampered = tmp_path / "tampered.npz"
        np.savez_compressed(tampered, **payload)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(tampered)

    def test_truncated_file(self, checkpoint, tmp_path):
        """A partial write/download (lost zip central directory)."""
        raw = checkpoint.read_bytes()
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="unreadable|corrupted"):
            load_checkpoint(truncated)
        with pytest.raises(CheckpointError):
            read_header(truncated)

    def test_single_bit_flip(self, checkpoint, tmp_path):
        """One flipped bit anywhere must yield a typed error, never a
        numpy traceback — whichever layer (zip CRC, zlib stream, or the
        payload checksum) catches it first."""
        raw = bytearray(checkpoint.read_bytes())
        flips = [len(raw) // 4, len(raw) // 2, (3 * len(raw)) // 4]
        for offset in flips:
            corrupted = bytearray(raw)
            corrupted[offset] ^= 0x10
            path = tmp_path / f"bitflip-{offset}.npz"
            path.write_bytes(bytes(corrupted))
            try:
                load_checkpoint(path)
            except CheckpointError:
                continue  # the required clean, typed failure
            except Exception as exc:  # pragma: no cover - the regression
                pytest.fail(f"bit flip at {offset} leaked "
                            f"{type(exc).__name__}: {exc}")
            # A flip inside zip metadata padding can go unnoticed — fine,
            # as long as nothing untyped escaped.

    def test_payload_entry_corruption_behind_valid_header(self, checkpoint,
                                                          tmp_path):
        """Header parses, but a payload array's compressed bytes are
        damaged: the error must still be CheckpointError."""
        import zipfile as zipfile_mod

        damaged = tmp_path / "damaged.npz"
        with zipfile_mod.ZipFile(checkpoint) as src, \
                zipfile_mod.ZipFile(damaged, "w",
                                    zipfile_mod.ZIP_DEFLATED) as dst:
            for item in src.infolist():
                data = src.read(item.filename)
                if item.filename.startswith("param::"):
                    data = data[:-8]  # drop the array's trailing bytes
                dst.writestr(item, data)
        with pytest.raises(CheckpointError):
            load_checkpoint(damaged)

    def test_missing_scores_entry(self, checkpoint, tmp_path):
        """A checkpoint stripped of its stored scores is incomplete."""
        with np.load(checkpoint, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files
                       if name != "array::_scores"}
        header = json.loads(str(payload[_HEADER_KEY]))
        from repro.serve.checkpoint import _payload_checksum

        arrays = {k: v for k, v in payload.items() if k != _HEADER_KEY}
        header["checksum"] = _payload_checksum(arrays)
        payload[_HEADER_KEY] = np.array(json.dumps(header))
        stripped = tmp_path / "stripped.npz"
        np.savez_compressed(stripped, **payload)
        with pytest.raises(CheckpointError, match="no stored scores"):
            load_checkpoint(stripped)

    def test_missing_scores_entry_baseline(self, tiny_dataset, tmp_path):
        """The incompleteness guard covers baselines, not just UMGAD."""
        from repro.serve.checkpoint import _payload_checksum

        det = make_baseline("Radar", seed=0).fit(tiny_dataset.graph)
        path = save_checkpoint(tmp_path / "radar.npz", det,
                               graph=tiny_dataset.graph)
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files
                       if name != "array::_scores"}
        header = json.loads(str(payload[_HEADER_KEY]))
        arrays = {k: v for k, v in payload.items() if k != _HEADER_KEY}
        header["checksum"] = _payload_checksum(arrays)
        payload[_HEADER_KEY] = np.array(json.dumps(header))
        stripped = tmp_path / "radar-stripped.npz"
        np.savez_compressed(stripped, **payload)
        with pytest.raises(CheckpointError, match="no stored scores"):
            load_checkpoint(stripped)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, checkpoint, tmp_path, bad):
        """A NaN/inf weight with a matching checksum is still refused,
        and the error names the parameter."""
        from repro.serve.checkpoint import _payload_checksum

        with np.load(checkpoint, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        name = next(key for key in sorted(payload)
                    if key.startswith("param::")
                    and payload[key].dtype.kind == "f")
        weight = payload[name].copy()
        weight.flat[weight.size // 2] = bad
        payload[name] = weight
        header = json.loads(str(payload[_HEADER_KEY]))
        arrays = {k: v for k, v in payload.items() if k != _HEADER_KEY}
        header["checksum"] = _payload_checksum(arrays)
        payload[_HEADER_KEY] = np.array(json.dumps(header))
        poisoned = tmp_path / "poisoned.npz"
        np.savez_compressed(poisoned, **payload)
        param = name[len("param::"):]
        with pytest.raises(CheckpointError,
                           match=rf"parameter '{param}' holds non-finite"):
            load_checkpoint(poisoned)

    def test_version_mismatch(self, checkpoint, tmp_path):
        with np.load(checkpoint, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        header = json.loads(str(payload[_HEADER_KEY]))
        header["format_version"] = FORMAT_VERSION + 1
        payload[_HEADER_KEY] = np.array(json.dumps(header))
        future = tmp_path / "future.npz"
        np.savez_compressed(future, **payload)
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(future)

    def test_read_header_metadata(self, checkpoint, tiny_dataset):
        header = read_header(checkpoint)
        assert header["detector"] == "UMGAD"
        assert header["format_version"] == FORMAT_VERSION
        assert header["graph_fingerprint"] == \
            graph_fingerprint(tiny_dataset.graph)


class TestThresholdDeduplication:
    def test_predict_reuses_cached_threshold(self, fitted_umgad, monkeypatch):
        calls = {"n": 0}
        real = threshold_mod.select_threshold

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(threshold_mod, "select_threshold", counting)
        fitted_umgad._threshold_cache = None
        first = fitted_umgad.threshold()
        fitted_umgad.predict()
        fitted_umgad.predict()
        assert fitted_umgad.threshold() is first
        assert calls["n"] == 1

    def test_window_change_invalidates(self, fitted_umgad):
        fitted_umgad._threshold_cache = None
        default = fitted_umgad.threshold()
        windowed = fitted_umgad.threshold(window=7)
        assert windowed.window == 7
        assert windowed is not default


class TestDetectorService:
    def test_cache_hits_and_bitwise_scores(self, checkpoint, fitted_umgad,
                                           tiny_dataset):
        service = DetectorService(checkpoint, cache_size=4)
        # the training graph is warm before any request: its stored fit
        # scores answer the first one without a scoring pass
        assert service.is_warm(graph_fingerprint(tiny_dataset.graph))
        first = service.scores(tiny_dataset.graph)
        second = service.scores(tiny_dataset.graph)
        assert first is second  # same cached array, no recompute
        np.testing.assert_array_equal(first, fitted_umgad.decision_scores())
        assert service.stats.hits == 1 and service.stats.misses == 1
        assert 0.0 < service.stats.hit_rate <= 1.0

    def test_serves_unseen_graph_via_score_graph(self, checkpoint,
                                                 fitted_umgad, rng):
        other = random_multiplex(30, 3, 16, rng)
        service = DetectorService(checkpoint)
        assert not service.is_warm(graph_fingerprint(other))
        np.testing.assert_array_equal(service.scores(other),
                                      fitted_umgad.score_graph(other))
        assert service.stats.misses == 1
        assert service.is_warm(graph_fingerprint(other))

    def test_lru_eviction(self, checkpoint, tiny_dataset, rng):
        service = DetectorService(checkpoint, cache_size=1)
        service.scores(tiny_dataset.graph)
        service.scores(random_multiplex(30, 3, 16, rng))
        assert len(service) == 1
        assert service.stats.evictions == 1
        # original graph was evicted: next request is a miss again
        service.scores(tiny_dataset.graph)
        assert service.stats.misses == 3

    def test_node_topk_predict_and_threshold(self, checkpoint, tiny_dataset,
                                             fitted_umgad):
        service = DetectorService(checkpoint)
        graph = tiny_dataset.graph
        scores = fitted_umgad.decision_scores()
        best = int(np.argmax(scores))
        top = service.top_k(graph, 5)
        assert top[0][0] == best
        assert service.score_node(graph, best) == float(scores[best])
        assert service.threshold(graph).threshold == \
            fitted_umgad.threshold().threshold
        np.testing.assert_array_equal(service.predict(graph),
                                      fitted_umgad.predict())
        with pytest.raises(IndexError):
            service.score_node(graph, graph.num_nodes + 1)

    def test_explain(self, checkpoint, tiny_dataset):
        service = DetectorService(checkpoint)
        node, score = service.top_k(tiny_dataset.graph, 1)[0]
        explanation = service.explain(tiny_dataset.graph, node)
        assert explanation.node == node
        assert explanation.score == pytest.approx(score)

    def test_baseline_service_limits(self, tiny_dataset, tmp_path, rng):
        det = make_baseline("Radar", seed=0).fit(tiny_dataset.graph)
        path = save_checkpoint(tmp_path / "radar.npz", det,
                               graph=tiny_dataset.graph)
        service = DetectorService(path)
        np.testing.assert_array_equal(service.scores(tiny_dataset.graph),
                                      det.decision_scores())
        with pytest.raises(ServiceError, match="fitted on"):
            service.scores(random_multiplex(30, 3, 16, rng))
        with pytest.raises(ServiceError, match="UMGAD"):
            service.explain(tiny_dataset.graph, 0)

    def test_in_memory_detector(self, fitted_umgad, tiny_dataset):
        service = DetectorService(fitted_umgad)
        np.testing.assert_array_equal(service.scores(tiny_dataset.graph),
                                      fitted_umgad.decision_scores())
        assert service.stats.misses == 1

    def test_rejects_bad_cache_size(self, fitted_umgad):
        with pytest.raises(ValueError, match="cache_size"):
            DetectorService(fitted_umgad, cache_size=0)

    def test_stats_to_dict(self, fitted_umgad, tiny_dataset):
        service = DetectorService(fitted_umgad)
        service.scores(tiny_dataset.graph)
        service.scores(tiny_dataset.graph)
        payload = service.stats.to_dict()
        assert payload == {"hits": 1, "misses": 1, "evictions": 0,
                           "requests": 2, "hit_rate": 0.5,
                           "refits": 0, "refit_epochs": 0,
                           "refit_seconds": 0.0}
        json.dumps(payload)

    def test_precomputed_fingerprint_skips_rehash(self, fitted_umgad,
                                                  tiny_dataset, monkeypatch):
        import repro.serve.service as service_mod

        service = DetectorService(fitted_umgad)
        fingerprint = graph_fingerprint(tiny_dataset.graph)
        first = service.scores(tiny_dataset.graph, fingerprint=fingerprint)

        def boom(_graph):  # the whole point: no rehash when the key is known
            raise AssertionError("graph_fingerprint should not be called")

        monkeypatch.setattr(service_mod, "graph_fingerprint", boom)
        second = service.scores(tiny_dataset.graph, fingerprint=fingerprint)
        assert first is second
        assert service.stats.hits == 1

    def test_replace_detector_clears_cache(self, fitted_umgad, tiny_dataset,
                                           rng):
        other_graph = random_multiplex(30, 3, 16, rng)
        replacement = UMGAD(UMGADConfig(epochs=2, mask_repeats=1,
                                        hidden_dim=8, seed=1))
        replacement.fit(other_graph)

        service = DetectorService(fitted_umgad)
        service.scores(tiny_dataset.graph)
        assert len(service) == 1
        service.replace_detector(replacement)
        assert len(service) == 0
        assert service.trained_fingerprint == graph_fingerprint(other_graph)
        np.testing.assert_array_equal(service.scores(other_graph),
                                      replacement.decision_scores())
        with pytest.raises(TypeError, match="BaseDetector"):
            service.replace_detector("not a detector")

    def test_swap_mid_executor_pass_serves_new_model(self, fitted_umgad,
                                                     rng):
        graph = random_multiplex(30, 3, 16, rng)
        replacement = UMGAD(UMGADConfig(epochs=2, mask_repeats=1,
                                        hidden_dim=8, seed=1))
        replacement.fit(random_multiplex(30, 3, 16, rng))
        executor = _StandInExecutor(fitted_umgad, hold=True)
        service = DetectorService(fitted_umgad, executor=executor)
        stale = []
        thread = threading.Thread(
            target=lambda: stale.append(service.scores(graph)))
        thread.start()
        assert executor.entered.wait(timeout=60)
        executor.detector = replacement      # the pool swaps first
        service.replace_detector(replacement)
        executor.release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        # the in-flight pass answers its caller with the old model...
        np.testing.assert_array_equal(stale[0],
                                      fitted_umgad.score_graph(graph))
        # ...but is not cached as the new model's: the next request runs
        # a new pass on the new model
        np.testing.assert_array_equal(service.scores(graph),
                                      replacement.score_graph(graph))
        assert len(executor.calls) == 2
        assert service.stats.misses == 2 and service.stats.hits == 0

    def test_executor_herd_is_one_pass(self, fitted_umgad, rng):
        graph = random_multiplex(30, 3, 16, rng)
        executor = _StandInExecutor(fitted_umgad, hold=True)
        service = DetectorService(fitted_umgad, executor=executor)
        results = [None] * 6

        def ask(index):
            results[index] = service.scores(graph)

        threads = [threading.Thread(target=ask, args=(i,))
                   for i in range(len(results))]
        threads[0].start()
        assert executor.entered.wait(timeout=60)
        for thread in threads[1:]:
            thread.start()
        executor.release.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert executor.calls == [graph_fingerprint(graph)]
        assert service.stats.misses == 1
        assert service.stats.hits == len(results) - 1
        assert all(scores is results[0] for scores in results)

    def test_non_finite_scores_are_never_cached(self, fitted_umgad, rng):
        class _NonFinite:
            def score_graph(self, graph):
                scores = np.zeros(graph.num_nodes)
                scores[[3, 5]] = (np.nan, np.inf)
                return scores

        graph = random_multiplex(30, 3, 16, rng)
        executor = _StandInExecutor(_NonFinite())
        service = DetectorService(fitted_umgad, executor=executor)
        for _ in range(2):
            with pytest.raises(NonFiniteScoresError,
                               match=r"2 non-finite score\(s\) of 30, "
                                     r"first at node 3"):
                service.scores(graph)
        # each request ran its own pass: nothing was cached
        assert len(executor.calls) == 2
        assert service.stats.misses == 2 and service.stats.hits == 0
        assert len(service) == 0
        assert not service.is_warm(graph_fingerprint(graph))


class TestServiceCacheFootprint:
    """The LRU pins scores, not the graphs they were computed from."""

    @staticmethod
    def _graph(seed=5):
        return random_multiplex(30, 3, 16, np.random.default_rng(seed))

    def test_scored_graph_freed_after_miss(self, fitted_umgad):
        # both tiers: an in-process pass and an executor pass
        for executor in (None, _StandInExecutor(fitted_umgad)):
            service = DetectorService(fitted_umgad, executor=executor)
            graph = self._graph()
            ref = weakref.ref(graph)
            fingerprint = graph_fingerprint(graph)
            scores = service.scores(graph, fingerprint)
            del graph
            gc.collect()
            assert ref() is None
            assert len(service) == 1
            assert service.cached_scores(fingerprint) is scores

    def test_caller_relations_keep_operator_caches(self, fitted_umgad):
        service = DetectorService(fitted_umgad)
        graph = self._graph()
        service.scores(graph)
        for _name, relation in graph:
            assert relation.cache_info()["entries"] > 0

    def test_cache_hit_answers_match_fresh_service(self, checkpoint):
        warm = DetectorService(checkpoint)
        warm.scores(self._graph())
        graph = self._graph()  # same content, a new object: a cache hit
        top = warm.top_k(graph, 5)
        threshold = warm.threshold(graph)
        flags = warm.predict(graph)
        explanation = warm.explain(graph, top[0][0])
        assert warm.stats.misses == 1 and warm.stats.hits == 4

        fresh = DetectorService(checkpoint)
        other = self._graph()
        assert np.array_equal(top, fresh.top_k(other, 5))
        assert np.array_equal(threshold.threshold,
                              fresh.threshold(other).threshold)
        assert np.array_equal(flags, fresh.predict(other))
        assert dataclasses.asdict(explanation) == \
            dataclasses.asdict(fresh.explain(other, top[0][0]))


class TestModelRegistry:
    def test_save_load_list_delete(self, fitted_umgad, tiny_dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.save("retail-v1", fitted_umgad, graph=tiny_dataset.graph)
        assert "retail-v1" in registry and len(registry) == 1
        loaded = registry.load("retail-v1")
        np.testing.assert_array_equal(loaded.decision_scores(),
                                      fitted_umgad.decision_scores())
        info = registry.describe("retail-v1")
        assert info.detector == "UMGAD"
        assert info.num_nodes == tiny_dataset.graph.num_nodes
        assert "UMGAD" in info.describe()
        assert [i.name for i in registry.list_models()] == ["retail-v1"]
        registry.delete("retail-v1")
        assert len(registry) == 0

    def test_overwrite_protection(self, fitted_umgad, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.save("m", fitted_umgad)
        with pytest.raises(FileExistsError, match="overwrite"):
            registry.save("m", fitted_umgad)
        registry.save("m", fitted_umgad, overwrite=True)

    def test_invalid_names_and_missing_models(self, fitted_umgad, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        with pytest.raises(ValueError, match="invalid model name"):
            registry.save("../escape", fitted_umgad)
        with pytest.raises(KeyError, match="no model"):
            registry.load("ghost")
        with pytest.raises(KeyError, match="no model"):
            registry.service("ghost")
        with pytest.raises(KeyError, match="no model"):
            registry.delete("ghost")

    def test_service_from_registry(self, fitted_umgad, tiny_dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.save("m", fitted_umgad, graph=tiny_dataset.graph)
        service = registry.service("m", cache_size=2)
        assert service.scores(tiny_dataset.graph).size == \
            tiny_dataset.graph.num_nodes


class TestServeCLI:
    def test_save_then_score_round_trip(self, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert cli_main(["save", "--dataset", "retail", "--scale", "0.12",
                         "--epochs", "2", "--out", str(model)]) == 0
        assert "saved checkpoint" in capsys.readouterr().out
        assert cli_main(["score", "--model", str(model), "--dataset",
                         "retail", "--scale", "0.12", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "threshold" in out and "top-3 nodes" in out

    def test_detect_save_flag_and_json(self, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert cli_main(["detect", "--dataset", "retail", "--scale", "0.12",
                         "--epochs", "2", "--save", str(model),
                         "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checkpoint"] == str(model)
        assert len(payload["scores"]) == payload["num_nodes"]
        assert payload["threshold"]["num_anomalies"] == len(payload["flagged"])
        assert model.exists()

    def test_score_json_and_node_lookup(self, tmp_path, capsys):
        model = tmp_path / "model.npz"
        cli_main(["save", "--dataset", "retail", "--scale", "0.12",
                  "--epochs", "2", "--out", str(model)])
        capsys.readouterr()
        assert cli_main(["score", "--model", str(model), "--dataset",
                         "retail", "--scale", "0.12",
                         "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"scores", "threshold", "flagged", "top",
                                "relation_importance"}
        assert cli_main(["score", "--model", str(model), "--dataset",
                         "retail", "--scale", "0.12", "--node", "0",
                         "--output", "json"]) == 0
        node_payload = json.loads(capsys.readouterr().out)
        assert node_payload["node"] == 0
        assert node_payload["score"] == payload["scores"][0]

    def test_score_explain(self, tmp_path, capsys):
        model = tmp_path / "model.npz"
        cli_main(["save", "--dataset", "retail", "--scale", "0.12",
                  "--epochs", "2", "--out", str(model)])
        capsys.readouterr()
        assert cli_main(["score", "--model", str(model), "--dataset",
                         "retail", "--scale", "0.12", "--explain", "2"]) == 0
        assert "structure[" in capsys.readouterr().out
        # --explain carries into json output and --node lookups too
        assert cli_main(["score", "--model", str(model), "--dataset",
                         "retail", "--scale", "0.12", "--explain", "2",
                         "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["explanations"]) == 2
        assert payload["explanations"][0]["node"] == payload["top"][0]["node"]
        assert cli_main(["score", "--model", str(model), "--dataset",
                         "retail", "--scale", "0.12", "--node", "0",
                         "--explain", "1", "--output", "json"]) == 0
        node_payload = json.loads(capsys.readouterr().out)
        assert node_payload["explanation"]["node"] == 0

    def test_score_errors_are_clean(self, tmp_path, capsys):
        assert cli_main(["score", "--model", str(tmp_path / "ghost.npz"),
                         "--dataset", "retail", "--scale", "0.12"]) == 1
        assert "no such checkpoint" in capsys.readouterr().err
