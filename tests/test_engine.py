"""Tests for the unified training engine (repro.engine).

The load-bearing guarantees:

* ``FullGraphBatches`` training is loss-history-identical to the
  pre-engine training loops (fixtures recorded from the seed code) for
  UMGAD and one baseline per family;
* ``SubgraphBatches`` is deterministic per seed and actually trains on
  node-induced sub-multiplexes;
* callbacks (early stopping, grad clip, LR schedule) behave like the
  historical inline implementations they replaced;
* serving refits report engine telemetry.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.autograd import get_default_dtype, set_default_dtype
from repro.autograd.tensor import Tensor
from repro.baselines import make_baseline
from repro.core import UMGAD, UMGADConfig
from repro.datasets import load_dataset
from repro.engine import (
    EarlyStopping,
    FullGraphBatches,
    GradClip,
    GraphBatch,
    LRSchedule,
    SubgraphBatches,
    Trainer,
    TrainState,
    make_batch_strategy,
)
from repro.graphs import random_multiplex
from repro.graphs.sampling import induced_multiplex
from repro.nn import Adam, Linear, Module

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "engine_parity.json"


@pytest.fixture(scope="module")
def parity():
    return json.loads(FIXTURES.read_text())


@pytest.fixture(scope="module")
def parity_dataset(parity):
    spec = parity["dataset"]
    return load_dataset(spec["name"], scale=spec["scale"],
                        num_features=spec["num_features"], seed=spec["seed"])


# ---------------------------------------------------------------------------
# Full-batch parity with the pre-engine loops
# ---------------------------------------------------------------------------

class TestFullBatchParity:
    def test_umgad_loss_history_matches_seed_loop(self, parity, parity_dataset):
        model = UMGAD(UMGADConfig(epochs=6, seed=0)).fit(parity_dataset.graph)
        assert model.loss_history == pytest.approx(parity["UMGAD"], rel=1e-12)
        assert model.train_state is not None
        assert model.train_state.epochs_run == 6
        assert model.train_state.stop_reason == "completed"

    @pytest.mark.parametrize("method", ["DOMINANT", "CoLA", "ComGA", "AnomMAN"])
    def test_baseline_loss_history_matches_seed_loop(self, method, parity,
                                                     parity_dataset):
        detector = make_baseline(method, seed=0, epochs=6)
        detector.fit(parity_dataset.graph)
        assert detector.loss_history == pytest.approx(parity[method], rel=1e-12)
        # engine telemetry travels with every baseline, so serving refits
        # can report epochs/seconds for baselines too
        assert detector.train_state.epochs_run == len(detector.loss_history)
        assert detector.train_state.total_seconds > 0.0

    def test_multi_stage_baseline_merges_train_states(self, parity_dataset):
        detector = make_baseline("ADA-GAD", seed=0, epochs=6)
        detector.fit(parity_dataset.graph)
        state = detector.train_state
        # pre (epochs//3 floored at 5) + stage1 (epochs) + stage2 (epochs//2
        # floored at 5) epochs, all telemetry concatenated
        assert state.epochs_run == len(detector.loss_history) == 5 + 6 + 5
        assert len(state.epoch_seconds) == state.epochs_run

    def test_baseline_refit_reports_telemetry(self, rng):
        from repro.serve import DetectorService

        graph = random_multiplex(40, 2, 6, rng, avg_degree=3.0)
        service = DetectorService(
            make_baseline("DOMINANT", seed=0, epochs=3).fit(graph))
        service.replace_detector(
            make_baseline("DOMINANT", seed=1, epochs=5).fit(graph))
        assert service.stats.refit_epochs == 5
        assert service.stats.refit_seconds > 0.0


# ---------------------------------------------------------------------------
# Subgraph minibatches
# ---------------------------------------------------------------------------

class TestSubgraphBatches:
    def _graph(self, seed=3):
        return random_multiplex(80, 3, 8, np.random.default_rng(seed),
                                avg_degree=4.0)

    def test_batches_are_induced_submultiplexes(self):
        graph = self._graph()
        strategy = SubgraphBatches(batch_size=24, batches_per_epoch=3, seed=0)
        batches = list(strategy.batches(graph, epoch=0))
        assert len(batches) == 3
        for batch in batches:
            assert not batch.is_full
            assert 2 <= batch.num_nodes <= 24
            assert batch.graph.num_relations == graph.num_relations
            # relabeled edges stay within the block, and attribute rows
            # match the original nodes they were sliced from
            for _name, rel in batch.graph:
                if rel.num_edges:
                    assert rel.edges.max() < batch.num_nodes
            np.testing.assert_array_equal(batch.graph.x,
                                          graph.x[batch.nodes])

    def test_deterministic_per_seed_and_epoch(self):
        graph = self._graph()
        a = SubgraphBatches(batch_size=20, seed=7)
        b = SubgraphBatches(batch_size=20, seed=7)
        for epoch in range(3):
            nodes_a = [bt.nodes for bt in a.batches(graph, epoch)]
            nodes_b = [bt.nodes for bt in b.batches(graph, epoch)]
            for x, y in zip(nodes_a, nodes_b):
                np.testing.assert_array_equal(x, y)
        # different epochs sample different blocks
        first = next(iter(a.batches(graph, 0))).nodes
        second = next(iter(a.batches(graph, 1))).nodes
        assert not (first.size == second.size
                    and np.array_equal(first, second))

    def test_umgad_subgraph_training_is_reproducible(self, parity_dataset):
        cfg = dict(epochs=3, seed=0, batch="subgraph", batch_size=48,
                   batches_per_epoch=2)
        m1 = UMGAD(UMGADConfig(**cfg)).fit(parity_dataset.graph)
        m2 = UMGAD(UMGADConfig(**cfg)).fit(parity_dataset.graph)
        assert m1.loss_history == m2.loss_history
        assert len(m1.loss_history) == 3
        assert m1.train_state.batch_counts == [2, 2, 2]
        # scoring still covers the FULL graph
        assert m1.decision_scores().shape == (parity_dataset.graph.num_nodes,)
        np.testing.assert_allclose(m1.decision_scores(), m2.decision_scores())

    def test_induced_multiplex_keeps_only_internal_edges(self):
        graph = self._graph()
        nodes = np.arange(0, 30)
        sub = induced_multiplex(graph, nodes)
        assert sub.num_nodes == 30
        for name, rel in sub:
            original = graph[name]
            member = np.zeros(graph.num_nodes, dtype=bool)
            member[nodes] = True
            expected = original.edges[member[original.edges[:, 0]]
                                      & member[original.edges[:, 1]]]
            np.testing.assert_array_equal(rel.edges, expected)

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            SubgraphBatches(batch_size=1)
        with pytest.raises(ValueError):
            SubgraphBatches(batches_per_epoch=0)
        with pytest.raises(ValueError):
            make_batch_strategy("bogus")
        assert isinstance(make_batch_strategy("full"), FullGraphBatches)
        assert isinstance(make_batch_strategy("subgraph"), SubgraphBatches)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UMGADConfig(batch="bogus")
        with pytest.raises(ValueError):
            UMGADConfig(batch_size=1)
        with pytest.raises(ValueError):
            UMGADConfig(batches_per_epoch=0)


# ---------------------------------------------------------------------------
# Trainer mechanics + callbacks
# ---------------------------------------------------------------------------

class _Quadratic(Module):
    """Minimise ||w||^2 — a transparent objective for loop mechanics."""

    def __init__(self, n=4):
        super().__init__()
        from repro.nn import Parameter

        self.w = Parameter(np.arange(1.0, n + 1.0), name="w")


class TestTrainer:
    def _trainer(self, model, lr=0.1, **kwargs):
        return Trainer(model, Adam(model.parameters(), lr=lr), **kwargs)

    def test_zero_arg_loss_fn_and_history(self):
        model = _Quadratic()
        state = self._trainer(model).fit(
            None, lambda: (model.w * model.w).sum(), epochs=5)
        assert len(state.loss_history) == 5
        assert state.loss_history[-1] < state.loss_history[0]
        assert state.batch_counts == [1] * 5
        assert state.stop_reason == "completed"

    def test_batch_aware_loss_fn_receives_batches(self, rng):
        graph = random_multiplex(30, 2, 4, rng, avg_degree=3.0)
        model = _Quadratic()
        seen = []

        def loss_fn(batch):
            seen.append(batch)
            return (model.w * model.w).sum()

        state = self._trainer(model).fit(graph, loss_fn, epochs=2)
        assert state.epochs_run == 2
        assert all(isinstance(b, GraphBatch) for b in seen)
        assert all(b.graph is graph and b.is_full for b in seen)

    def test_minibatch_requires_graph(self):
        model = _Quadratic()
        trainer = self._trainer(model,
                                batch_strategy=SubgraphBatches(batch_size=4))
        with pytest.raises(ValueError, match="graph"):
            trainer.fit(None, lambda b: (model.w * model.w).sum(), epochs=1)

    def test_minibatch_rejects_zero_arg_loss_fn(self, rng):
        # A zero-arg closure captured the full graph: running it under a
        # subgraph strategy would silently train full-batch.
        graph = random_multiplex(30, 2, 4, rng, avg_degree=3.0)
        model = _Quadratic()
        trainer = self._trainer(model,
                                batch_strategy=SubgraphBatches(batch_size=8))
        with pytest.raises(ValueError, match="batch-aware"):
            trainer.fit(graph, lambda: (model.w * model.w).sum(), epochs=1)

    def test_loss_components_recorded(self):
        model = _Quadratic()

        def loss_fn():
            loss = (model.w * model.w).sum()
            return loss, {"l2": float(loss.data)}

        state = self._trainer(model).fit(None, loss_fn, epochs=3)
        assert len(state.loss_components) == 3
        assert state.loss_components[0]["l2"] == pytest.approx(
            state.loss_history[0])

    def test_early_stopping_matches_historical_rule(self):
        model = _Quadratic()
        # Constant loss: epoch 0 "improves" from inf, then `patience`
        # stale epochs trigger the stop — 1 + patience epochs total, the
        # same schedule the historical UMGAD.fit loop produced.
        state = self._trainer(model, callbacks=[
            EarlyStopping(patience=3, min_delta=1e-3)
        ]).fit(None, lambda: Tensor(1.0), epochs=50)
        assert state.epochs_run == 4
        assert state.stop
        assert "early stop" in state.stop_reason

    def test_grad_clip_bounds_update(self):
        model = _Quadratic()
        huge = 1e6

        def loss_fn():
            return (model.w * model.w).sum() * huge

        before = model.w.data.copy()
        self._trainer(model, lr=0.1, callbacks=[GradClip(1.0)]).fit(
            None, loss_fn, epochs=1)
        # Adam normalises step size anyway; check the clip actually ran by
        # observing the gradient left on the parameter
        assert float(np.sqrt((model.w.grad ** 2).sum())) <= 1.0 + 1e-9
        assert not np.array_equal(before, model.w.data)

    def test_lr_schedule_sets_optimizer_lr(self):
        model = _Quadratic()
        optimizer = Adam(model.parameters(), lr=0.5)
        trainer = Trainer(model, optimizer, callbacks=[
            LRSchedule(lambda epoch, base: base * (0.1 ** epoch))
        ])
        trainer.fit(None, lambda: (model.w * model.w).sum(), epochs=3)
        assert optimizer.lr == pytest.approx(0.5 * 0.01)

    def test_state_to_dict_is_jsonable(self):
        model = _Quadratic()
        state = self._trainer(model).fit(
            None, lambda: (model.w * model.w).sum(), epochs=2)
        payload = json.loads(json.dumps(state.to_dict()))
        assert payload["epochs_run"] == 2
        assert payload["batches"] == 2
        assert payload["total_seconds"] >= 0.0


# ---------------------------------------------------------------------------
# Engine telemetry in serving refits
# ---------------------------------------------------------------------------

class TestServingRefitTelemetry:
    def test_replace_detector_reports_engine_epochs(self, rng):
        from repro.serve import DetectorService

        graph = random_multiplex(40, 2, 6, rng, avg_degree=3.0)
        first = UMGAD(UMGADConfig(epochs=3, seed=0)).fit(graph)
        service = DetectorService(first)
        refit = UMGAD(UMGADConfig(epochs=4, seed=1)).fit(graph)
        service.replace_detector(refit)
        assert service.stats.refits == 1
        assert service.stats.refit_epochs == 4
        assert service.stats.refit_seconds > 0.0
        payload = service.stats.to_dict()
        assert payload["refits"] == 1
        assert payload["refit_epochs"] == 4

    def test_stream_refit_alert_carries_epochs(self, rng):
        from repro.serve import DetectorService
        from repro.stream import IncrementalGraphBuilder, StreamMonitor
        from repro.stream.events import UpdateAttr
        from repro.stream.monitor import RefitAlert, alert_dict

        graph = random_multiplex(50, 2, 4, rng, avg_degree=3.0)
        base = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(graph)
        service = DetectorService(base)
        builder = IncrementalGraphBuilder.from_graph(graph)

        def refit(snapshot):
            return UMGAD(UMGADConfig(epochs=2, seed=0)).fit(snapshot)

        monitor = StreamMonitor(service, builder, window=50, refit=refit,
                                refit_cooldown=1)
        quiet = [UpdateAttr(i, graph.x[i]) for i in range(50)]
        shift = [UpdateAttr(i, graph.x[i] + 10.0) for i in range(50)]
        reports = monitor.ingest(quiet + shift)
        refit_alerts = [a for r in reports for a in r.alerts
                        if isinstance(a, RefitAlert)]
        assert refit_alerts
        assert refit_alerts[0].epochs == 2
        assert refit_alerts[0].seconds > 0.0
        assert alert_dict(refit_alerts[0])["kind"] == "refit"


# ---------------------------------------------------------------------------
# dtype plumbing (--dtype satellite)
# ---------------------------------------------------------------------------

class TestDtype:
    @pytest.fixture(autouse=True)
    def _restore_dtype(self):
        saved = get_default_dtype()
        yield
        set_default_dtype(saved)

    def test_float32_flows_through_training(self):
        set_default_dtype("float32")
        graph = random_multiplex(30, 2, 6, np.random.default_rng(0),
                                 avg_degree=3.0)
        assert graph.x.dtype == np.float32
        model = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(graph)
        assert all(v.dtype == np.float32
                   for v in model.state_dict().values())

    def test_checkpoint_roundtrip_preserves_dtype(self, tmp_path):
        set_default_dtype("float32")
        graph = random_multiplex(30, 2, 6, np.random.default_rng(0),
                                 avg_degree=3.0)
        model = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(graph)
        path = model.save(tmp_path / "f32.npz", graph=graph)

        from repro.serve.checkpoint import load_checkpoint, read_header

        loaded = load_checkpoint(path)
        assert all(v.dtype == np.float32
                   for v in loaded.state_dict().values())
        np.testing.assert_array_equal(loaded.decision_scores(),
                                      model.decision_scores())
        # the header records the TRAINING precision (scores are float64 —
        # the scoring pipeline upcasts), so serving commands can default
        # to the right --dtype without opening the payload
        assert read_header(path)["dtype"] == "float32"

    def test_loading_checkpoint_adopts_training_precision(self, tmp_path):
        set_default_dtype("float32")
        graph = random_multiplex(30, 2, 6, np.random.default_rng(0),
                                 avg_degree=3.0)
        model = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(graph)
        path = model.save(tmp_path / "f32.npz", graph=graph)

        from repro.serve import DetectorService

        # A fresh float64 process serving this checkpoint would build
        # float64 graphs whose fingerprints never match the trained graph;
        # loading adopts the recorded precision so the stored-scores fast
        # path stays alive.
        set_default_dtype("float64")
        service = DetectorService(path)
        assert get_default_dtype() == np.float32
        rebuilt = graph.with_features(np.asarray(graph.x))
        assert service.trained_fingerprint is not None
        np.testing.assert_array_equal(service.scores(rebuilt),
                                      model.decision_scores())

        # opt-out leaves the process default untouched
        set_default_dtype("float64")
        DetectorService(path, match_dtype=False)
        assert get_default_dtype() == np.float64


# ---------------------------------------------------------------------------
# spmm CSR hot-path contract
# ---------------------------------------------------------------------------

class TestSpmmCsrContract:
    def test_debug_mode_rejects_non_csr(self, monkeypatch):
        import scipy.sparse as sp

        from repro.autograd import sparse as sparse_mod

        monkeypatch.setattr(sparse_mod, "DEBUG_ASSERT_CSR", True)
        coo = sp.coo_matrix(np.eye(3))
        with pytest.raises(TypeError, match="CSR"):
            sparse_mod.spmm(coo, Tensor(np.ones((3, 2))))
        # CSR passes
        out = sparse_mod.spmm(coo.tocsr(), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.ones((3, 2)))

    def test_propagators_are_csr_with_cached_transpose(self, tiny_relation):
        prop = tiny_relation.sym_propagator()
        assert prop.format == "csr"
        assert prop._spmm_transpose is prop
        adj = tiny_relation.adjacency()
        assert adj._spmm_transpose is adj

    def test_symmetric_backward_matches_explicit_transpose(self, tiny_relation):
        from repro.autograd import spmm

        prop = tiny_relation.sym_propagator()
        x = Tensor(np.random.default_rng(0).normal(
            size=(tiny_relation.num_nodes, 3)), requires_grad=True)
        out = spmm(prop, x)
        out.backward(np.ones_like(out.data))
        expected = prop.T.tocsr() @ np.ones_like(out.data)
        np.testing.assert_allclose(x.grad, expected)
