"""Grad-mode semantics and grad-free kernel parity.

The load-bearing guarantees of the inference engine:

* ``no_grad()`` / ``enable_grad()`` nest, restore on exceptions, work as
  decorators, and actually stop the tape (no parents, no closures, no
  ``requires_grad`` propagation);
* ``backward()`` raises cleanly on tape-free tensors;
* every grad-free kernel — bincount segment ops, the CSR GAT attention
  kernel, block-diagonal batched masked scoring — is **bitwise
  identical** to the recording path it replaces, and the sampled
  structure scorer is bitwise identical to the one-shot legacy estimator
  kept here as ``_reference_structure_errors``.
"""

import numpy as np
import pytest

from repro import autograd
from repro.autograd import (
    Tensor,
    enable_grad,
    is_grad_enabled,
    no_grad,
    ops,
    set_grad_enabled,
    spmm,
    tensor,
)
from repro.core.gmae import GMAE
from repro.core.scoring import (
    LOGIT_SCALE,
    structure_errors,
    structure_errors_sampled,
)
from repro.graphs import random_multiplex
from repro.graphs.graph import RelationGraph
from repro.nn import GATConv, Module, Parameter


@pytest.fixture(autouse=True)
def _grad_mode_reset():
    # Every test starts and ends with gradients enabled.
    assert is_grad_enabled()
    yield
    set_grad_enabled(True)


def _graph(rng, n=60, avg_degree=4.0, name="rel"):
    m = int(n * avg_degree / 2)
    edges = rng.integers(0, n, size=(m, 2))
    return RelationGraph(n, edges, name=name)


# ---------------------------------------------------------------------------
# Mode semantics
# ---------------------------------------------------------------------------

class TestGradModeSemantics:
    def test_default_enabled(self):
        assert is_grad_enabled()

    def test_no_grad_disables_and_restores(self):
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nesting(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
            with enable_grad():
                assert is_grad_enabled()
                with no_grad():
                    assert not is_grad_enabled()
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_exception_safety(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()
        set_grad_enabled(False)
        with pytest.raises(ValueError):
            with enable_grad():
                raise ValueError("boom")
        assert not is_grad_enabled()
        set_grad_enabled(True)

    def test_decorator_form(self):
        @no_grad()
        def scorer():
            return is_grad_enabled()

        @enable_grad()
        def refit():
            return is_grad_enabled()

        assert scorer() is False
        with no_grad():
            assert refit() is True
        assert is_grad_enabled()

    def test_set_grad_enabled_returns_previous(self):
        assert set_grad_enabled(False) is True
        assert set_grad_enabled(True) is False

    def test_context_manager_reusable(self):
        ctx = no_grad()
        with ctx:
            with ctx:  # re-entrant on the same object
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestPerThreadGradMode:
    """The mode belongs to the calling thread: one thread's ``no_grad()``
    neither leaks into nor is undone by another thread."""

    def test_threads_do_not_see_each_others_mode(self):
        import threading

        entered, release = threading.Event(), threading.Event()
        seen = []

        def scorer():
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                seen.append(is_grad_enabled())

        thread = threading.Thread(target=scorer)
        thread.start()
        assert entered.wait(timeout=10)
        assert is_grad_enabled()          # the other thread's no_grad()
        with no_grad():                   # and ours, exited first,
            pass                          # leaves the other one's on
        release.set()
        thread.join(timeout=10)
        assert seen == [False]

    def test_new_thread_starts_enabled_copied_context_inherits(self):
        import contextvars
        import threading

        seen = {}
        with no_grad():
            fresh = threading.Thread(
                target=lambda: seen.setdefault("fresh", is_grad_enabled()))
            copied = threading.Thread(
                target=contextvars.copy_context().run,
                args=(lambda: seen.setdefault("copied", is_grad_enabled()),))
            for thread in (fresh, copied):
                thread.start()
                thread.join(timeout=10)
        assert seen == {"fresh": True, "copied": False}

    def test_concurrent_scoring_and_fit_match_serial_runs(self):
        """Six threads score one model while a seventh fits another, with
        the interpreter switching threads every microsecond: every pass
        equals a serial pass bit for bit and the fit's losses equal a
        solo fit's."""
        import sys
        import threading

        from repro.core import UMGAD, UMGADConfig

        rng = np.random.default_rng(3)
        train = random_multiplex(50, 2, 8, rng, avg_degree=4.0)
        fresh = random_multiplex(40, 2, 8, rng, avg_degree=4.0)
        config = UMGADConfig(epochs=3, mask_repeats=1, hidden_dim=8, seed=1)
        scorer = UMGAD(config).fit(train)
        serial = scorer.score_graph(fresh).tobytes()
        solo_losses = list(UMGAD(config).fit(train).loss_history)

        passes, losses, errors = [], [], []

        def score():
            try:
                for _ in range(3):
                    passes.append(scorer.score_graph(fresh).tobytes())
            except Exception as exc:   # surfaced by the assert below
                errors.append(exc)

        def fit():
            try:
                with enable_grad():
                    losses.extend(UMGAD(config).fit(train).loss_history)
            except Exception as exc:
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=score) for _ in range(6)]
            threads.append(threading.Thread(target=fit))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(passes) == 18
        assert all(run == serial for run in passes)
        assert losses == solo_losses


# ---------------------------------------------------------------------------
# Ops honor the mode
# ---------------------------------------------------------------------------

class TestOpsHonorMode:
    def test_no_parents_no_closures_no_requires_grad(self):
        a = tensor(np.random.default_rng(0).normal(size=(4, 3)),
                   requires_grad=True)
        b = tensor(np.random.default_rng(1).normal(size=(3, 2)),
                   requires_grad=True)
        with no_grad():
            out = ops.matmul(a, b)
            summed = ops.sum(ops.relu(out))
        for t in (out, summed):
            assert not t.requires_grad
            assert t._parents == ()
            assert t._backward is None

    def test_values_identical_under_both_modes(self):
        rng = np.random.default_rng(3)
        a = tensor(rng.normal(size=(5, 4)), requires_grad=True)
        recorded = ops.softmax(ops.tanh(a))
        with no_grad():
            free = ops.softmax(ops.tanh(a))
        assert np.array_equal(recorded.data, free.data)

    def test_spmm_honors_mode(self):
        import scipy.sparse as sp

        mat = sp.random(6, 6, density=0.4, random_state=0, format="csr")
        dense = tensor(np.random.default_rng(0).normal(size=(6, 2)),
                       requires_grad=True)
        with no_grad():
            out = spmm(mat, dense)
        assert not out.requires_grad and out._backward is None
        assert np.array_equal(out.data, spmm(mat, dense).data)

    def test_parameter_stays_leaf_with_grad_flag(self):
        p = Parameter(np.ones((2, 2)))
        with no_grad():
            out = ops.mul(p, 2.0)
        assert p.requires_grad          # the leaf itself is untouched
        assert not out.requires_grad

    def test_reenabled_after_context(self):
        p = Parameter(np.ones(3))
        with no_grad():
            pass
        loss = ops.sum(ops.mul(p, p))
        loss.backward()
        assert np.allclose(p.grad, 2.0 * np.ones(3))


# ---------------------------------------------------------------------------
# backward() on tape-free tensors
# ---------------------------------------------------------------------------

class TestBackwardErrors:
    def test_no_grad_result_raises(self):
        p = Parameter(np.ones(3))
        with no_grad():
            out = ops.sum(ops.mul(p, p))
        with pytest.raises(RuntimeError, match="no_grad|tape"):
            out.backward()

    def test_constant_raises(self):
        with pytest.raises(RuntimeError, match="does not require grad"):
            Tensor(1.5).backward()

    def test_detached_raises(self):
        p = Parameter(np.ones(3))
        out = ops.sum(ops.mul(p, p)).detach()
        with pytest.raises(RuntimeError):
            out.backward()

    def test_leaf_parameter_still_accumulates(self):
        p = Parameter(np.asarray(2.0))
        p.backward()
        assert p.grad == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Grad-free kernels are bitwise-identical
# ---------------------------------------------------------------------------

class TestSegmentKernelParity:
    @pytest.mark.parametrize("shape", [(500,), (500, 1), (500, 7),
                                       (500, 2, 5)])
    def test_segment_add_data_matches_add_at(self, shape):
        rng = np.random.default_rng(5)
        values = rng.normal(size=shape)
        ids = rng.integers(0, 40, size=shape[0])
        expected = np.zeros((40,) + shape[1:])
        np.add.at(expected, ids, values)
        assert np.array_equal(
            ops.segment_add_data(values, ids, 40), expected)

    def test_segment_add_data_float32_fallback(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(300, 3)).astype(np.float32)
        ids = rng.integers(0, 20, size=300)
        expected = np.zeros((20, 3), dtype=np.float32)
        np.add.at(expected, ids, values)
        out = ops.segment_add_data(values, ids, 20)
        assert out.dtype == np.float32
        assert np.array_equal(out, expected)

    def test_segment_ops_same_bits_under_no_grad(self):
        rng = np.random.default_rng(7)
        values = tensor(rng.normal(size=(400, 4)), requires_grad=True)
        scores = tensor(rng.normal(size=(400, 2)), requires_grad=True)
        ids = rng.integers(0, 37, size=400)
        recorded_sum = ops.segment_sum(values, ids, 37)
        recorded_soft = ops.segment_softmax(scores, ids, 37)
        with no_grad():
            free_sum = ops.segment_sum(values, ids, 37)
            free_soft = ops.segment_softmax(scores, ids, 37)
        assert np.array_equal(recorded_sum.data, free_sum.data)
        assert np.array_equal(recorded_soft.data, free_soft.data)


class TestGATInferenceKernelParity:
    @pytest.mark.parametrize("heads,concat", [(1, False), (2, True),
                                              (3, False)])
    def test_inference_forward_matches_recording(self, heads, concat):
        rng = np.random.default_rng(11)
        graph = _graph(rng, n=50)
        layer = GATConv(8, 6, rng, heads=heads, concat_heads=concat)
        x = tensor(rng.normal(size=(50, 8)))
        src, dst = graph.directed_pairs()
        recorded = layer(x, src, dst, num_nodes=50)
        with no_grad():
            fast = layer.inference_forward(
                x, graph.gat_scatter(1, layer.add_self_loops))
            dispatched = layer(x, src, dst, num_nodes=50,
                               scatter=graph.gat_scatter(
                                   1, layer.add_self_loops))
        assert np.array_equal(recorded.data, fast.data)
        assert np.array_equal(recorded.data, dispatched.data)

    @pytest.mark.parametrize("heads,concat", [(1, False), (2, True)])
    def test_float32_inference_stays_float32(self, heads, concat):
        """float32 in, float32 out: leaky-ReLU and softmax run in the
        input dtype (the recording path promotes its attention to
        float64, so the kernel matches it only to float32 resolution)."""
        rng = np.random.default_rng(14)
        graph = _graph(rng, n=50)
        layer = GATConv(8, 6, rng, heads=heads, concat_heads=concat)
        wide = rng.normal(size=(50, 8))
        with no_grad():
            reference = layer.inference_forward(
                wide, graph.gat_scatter(1, layer.add_self_loops)).data
            for param in layer.parameters():
                param.data = param.data.astype(np.float32)
            narrow = layer.inference_forward(
                wide.astype(np.float32),
                graph.gat_scatter(1, layer.add_self_loops)).data
        assert narrow.dtype == np.float32
        np.testing.assert_allclose(narrow, reference, rtol=1e-5, atol=1e-6)

    def test_scatter_ignored_while_recording(self):
        rng = np.random.default_rng(12)
        graph = _graph(rng, n=30)
        layer = GATConv(5, 4, rng)
        x = tensor(rng.normal(size=(30, 5)), requires_grad=True)
        src, dst = graph.directed_pairs()
        out = layer(x, src, dst, num_nodes=30,
                    scatter=graph.gat_scatter(1, True))
        assert out.requires_grad      # recording path was used

    def test_block_propagator_tiles_base(self):
        rng = np.random.default_rng(13)
        graph = _graph(rng, n=25)
        base = graph.sym_propagator()
        block = graph.block_propagator(3)
        assert block.shape == (75, 75)
        dense = rng.normal(size=(25, 4))
        stacked = np.tile(dense, (3, 1))
        wide = block @ stacked
        narrow = base @ dense
        for j in range(3):
            assert np.array_equal(wide[j * 25:(j + 1) * 25], narrow)
        assert graph.block_propagator(3) is block      # cached
        assert graph.block_propagator(1) is base

    def test_gat_scatter_cached_and_consistent(self):
        rng = np.random.default_rng(14)
        graph = _graph(rng, n=20)
        s1 = graph.gat_scatter(2, True)
        assert graph.gat_scatter(2, True) is s1
        assert s1.num_nodes == 40
        # CSR over destinations of the recording edge order: both
        # directions of every edge per copy, then every copy's self-loop,
        # stably sorted by destination
        src, dst = _recording_edges(graph, 2, True)
        assert src.size == 2 * (2 * graph.num_edges) + 40
        perm = np.argsort(dst, kind="stable")
        assert np.array_equal(s1.indices, src[perm])
        assert np.array_equal(s1.dst_sorted, dst[perm])
        assert np.array_equal(np.diff(s1.indptr),
                              np.bincount(dst, minlength=40))
        assert s1.indptr[-1] == src.size


def _recording_edges(graph, copies, add_self_loops):
    """Directed (src, dst) of ``copies`` stacked graph copies in the order
    ``copies`` sequential recording GAT forwards would scatter them."""
    n = graph.num_nodes
    src1, dst1 = graph.directed_pairs()
    offsets = np.arange(copies, dtype=np.int64) * n
    src = (src1[None, :] + offsets[:, None]).reshape(-1)
    dst = (dst1[None, :] + offsets[:, None]).reshape(-1)
    if add_self_loops:
        loops = np.arange(copies * n, dtype=np.int64)
        src = np.concatenate([src, loops])
        dst = np.concatenate([dst, loops])
    return src, dst


def _isolated_graph(rng):
    # nodes 30..39 carry no edge
    edges = rng.integers(0, 30, size=(45, 2))
    return RelationGraph(40, edges)


class TestTiledOperators:
    """Stacked operators tiled from the single-copy ones equal the
    reference constructions array for array, dtypes included."""

    GRAPHS = {
        "random": lambda rng: _graph(rng, n=35),
        "edgeless": lambda rng: RelationGraph(
            25, np.empty((0, 2), dtype=np.int64)),
        "isolated": _isolated_graph,
    }

    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    @pytest.mark.parametrize("copies", [2, 3, 5])
    @pytest.mark.parametrize("loops", [True, False])
    def test_block_propagator_equals_block_diag(self, kind, copies, loops):
        import scipy.sparse as sp

        graph = self.GRAPHS[kind](np.random.default_rng(15))
        tiled = graph.block_propagator(copies, loops)
        ref = sp.block_diag([graph.sym_propagator(loops)] * copies,
                            format="csr")
        assert tiled.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(tiled, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert tiled.has_sorted_indices == ref.has_sorted_indices

    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    @pytest.mark.parametrize("copies", [2, 3, 5])
    @pytest.mark.parametrize("loops", [True, False])
    def test_gat_scatter_equals_stable_argsort(self, kind, copies, loops):
        graph = self.GRAPHS[kind](np.random.default_rng(16))
        scatter = graph.gat_scatter(copies, loops)
        src, dst = _recording_edges(graph, copies, loops)
        total = copies * graph.num_nodes
        perm = np.argsort(dst, kind="stable")
        indptr = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=total), out=indptr[1:])
        assert scatter.num_nodes == total
        for got, want in ((scatter.indptr, indptr),
                          (scatter.indices, src[perm]),
                          (scatter.dst_sorted, dst[perm])):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestImputeGroupedParity:
    def _model_bank(self, rng, kind, layers=1, decoder_propagation=1):
        return GMAE(10, 6, rng, encoder=kind, encoder_layers=layers,
                    decoder_propagation=decoder_propagation)

    @pytest.mark.parametrize("kind,layers,dec_prop", [
        ("gat", 1, 1), ("gat", 2, 1), ("sgc", 1, 1), ("sgc", 2, 2),
    ])
    def test_matches_sequential_masked_forwards(self, kind, layers, dec_prop):
        rng = np.random.default_rng(21)
        graph = _graph(rng, n=48)
        gmae = self._model_bank(rng, kind, layers, dec_prop)
        x = tensor(rng.normal(size=(48, 10)))
        perm = rng.permutation(48)
        groups = [g for g in np.array_split(perm, 3) if g.size]

        with no_grad():
            expected = np.zeros((48, 10))
            for group in groups:
                rec = gmae.forward(x, graph, masked_nodes=group).data
                expected[group] = rec[group]
            batched = gmae.impute_grouped(x, graph, groups)
        assert np.array_equal(batched, expected)

    @pytest.mark.parametrize("kind,layers,dec_prop", [
        ("gat", 1, 1), ("gat", 2, 1), ("sgc", 1, 1), ("sgc", 2, 3),
    ])
    def test_shared_workspace_matches_sequential(self, kind, layers,
                                                 dec_prop):
        # one workspace across the calls of a pass: every call still
        # matches its sequential forwards, and no result aliases a buffer
        # a later call overwrites
        rng = np.random.default_rng(24)
        graph = _graph(rng, n=40)
        banks = [self._model_bank(rng, kind, layers, dec_prop)
                 for _ in range(2)]
        x = tensor(rng.normal(size=(40, 10)))
        groups = [g for g in np.array_split(rng.permutation(40), 3)
                  if g.size]
        workspace = {}
        with no_grad():
            expected = []
            for gmae in banks:
                rows = np.zeros((40, 10))
                for group in groups:
                    rec = gmae.forward(x, graph, masked_nodes=group).data
                    rows[group] = rec[group]
                expected.append(rows)
            first = [gmae.impute_grouped(x, graph, groups, workspace)
                     for gmae in banks]
            buffers = len(workspace)
            again = banks[0].impute_grouped(x, graph, groups, workspace)
        assert buffers and len(workspace) == buffers
        for got, want in zip(first + [again], expected + expected[:1]):
            assert np.array_equal(got, want)

    def test_multi_head_gat_matches_sequential(self):
        rng = np.random.default_rng(23)
        graph = _graph(rng, n=36)
        gmae = GMAE(10, 6, rng, encoder="gat", gat_heads=2)
        x = tensor(rng.normal(size=(36, 10)))
        groups = [g for g in np.array_split(rng.permutation(36), 4) if g.size]
        with no_grad():
            expected = np.zeros((36, 10))
            for group in groups:
                rec = gmae.forward(x, graph, masked_nodes=group).data
                expected[group] = rec[group]
            batched = gmae.impute_grouped(x, graph, groups)
        assert np.array_equal(batched, expected)

    def test_requires_no_grad(self):
        rng = np.random.default_rng(22)
        graph = _graph(rng, n=20)
        gmae = self._model_bank(rng, "sgc")
        x = tensor(rng.normal(size=(20, 10)))
        with pytest.raises(RuntimeError, match="no_grad"):
            gmae.impute_grouped(x, graph, [np.arange(10)])


def _reference_structure_errors(decoded, graph, rng, negatives_per_node=20):
    """The legacy one-shot sampled estimator: ``(E, f)`` and ``(n, q, f)``
    gathers, ``einsum`` contractions, ``np.add.at`` scatter and a clamped
    sigmoid. It draws the same negatives as the production kernel."""
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    n = graph.num_nodes
    z = decoded / (np.linalg.norm(decoded, axis=1, keepdims=True) + 1e-12)
    adj = graph.adjacency()
    pos_err = np.zeros(n, dtype=np.float64)
    deg = np.zeros(n, dtype=np.float64)
    if graph.num_edges:
        src, dst = graph.directed_pairs()
        logits = LOGIT_SCALE * np.einsum("ij,ij->i", z[src], z[dst])
        np.add.at(pos_err, src, np.abs(sigmoid(logits) - 1.0))
        np.add.at(deg, src, 1.0)
    neg_idx = rng.integers(0, n, size=(n, negatives_per_node))
    neg_pred = sigmoid(LOGIT_SCALE * np.einsum("ij,ikj->ik", z, z[neg_idx]))
    # sampled pairs that happen to be true edges contribute |p - 1|
    rows = np.repeat(np.arange(n), negatives_per_node)
    is_edge = np.asarray(adj[rows, neg_idx.ravel()]).ravel().reshape(
        n, negatives_per_node)
    neg_err = np.abs(neg_pred - is_edge).sum(axis=1)
    return (pos_err + neg_err) / (deg + negatives_per_node)


class TestStructureScorerParity:
    """``structure_errors_sampled`` against the legacy estimator
    (:func:`_reference_structure_errors`), bit for bit."""

    def test_fast_matches_legacy_bitwise(self):
        rng = np.random.default_rng(31)
        graph = _graph(rng, n=120, avg_degree=5.0)
        decoded = rng.normal(size=(120, 9))
        legacy = _reference_structure_errors(
            decoded, graph, np.random.default_rng(3), negatives_per_node=15)
        fast = structure_errors_sampled(
            decoded, graph, np.random.default_rng(3), negatives_per_node=15)
        assert np.array_equal(legacy, fast)

    def test_fast_matches_legacy_no_edges(self):
        graph = RelationGraph(30, np.empty((0, 2), dtype=np.int64))
        decoded = np.random.default_rng(4).normal(size=(30, 5))
        legacy = _reference_structure_errors(
            decoded, graph, np.random.default_rng(5))
        fast = structure_errors_sampled(
            decoded, graph, np.random.default_rng(5))
        assert np.array_equal(legacy, fast)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("avg_degree", [0.5, 3.0, 12.0, 40.0])
    def test_fast_matches_legacy_densities_and_dtypes(self, dtype,
                                                      avg_degree):
        rng = np.random.default_rng(32)
        graph = _graph(rng, n=150, avg_degree=avg_degree)
        decoded = rng.normal(size=(150, 11)).astype(dtype)
        legacy = _reference_structure_errors(
            decoded, graph, np.random.default_rng(6), negatives_per_node=12)
        fast = structure_errors_sampled(
            decoded, graph, np.random.default_rng(6), negatives_per_node=12)
        assert np.array_equal(legacy, fast)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fast_matches_legacy_isolated_nodes(self, dtype):
        rng = np.random.default_rng(33)
        graph = _isolated_graph(rng)
        assert np.count_nonzero(graph.degrees() == 0) >= 10
        decoded = rng.normal(size=(40, 6)).astype(dtype)
        legacy = _reference_structure_errors(
            decoded, graph, np.random.default_rng(7))
        fast = structure_errors_sampled(
            decoded, graph, np.random.default_rng(7))
        assert np.array_equal(legacy, fast)

    def test_fast_matches_legacy_fewer_nodes_than_negatives(self):
        rng = np.random.default_rng(34)
        graph = _graph(rng, n=8, avg_degree=3.0)
        decoded = rng.normal(size=(8, 4))
        legacy = _reference_structure_errors(
            decoded, graph, np.random.default_rng(8), negatives_per_node=20)
        fast = structure_errors_sampled(
            decoded, graph, np.random.default_rng(8), negatives_per_node=20)
        assert np.array_equal(legacy, fast)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("bad", [12, -1])
    def test_out_of_range_endpoint_raises(self, exact, bad):
        # validated=True skips canonicalisation, so the bad endpoint
        # reaches the scorer: building the adjacency must reject it before
        # any gather could clamp it, in either structure mode
        graph = RelationGraph(10, np.array([[0, 3], [2, bad]]),
                              validated=True)
        decoded = np.random.default_rng(9).normal(size=(10, 4))
        with pytest.raises(ValueError):
            structure_errors(decoded, graph,
                             "exact" if exact else "sampled",
                             np.random.default_rng(10))


# ---------------------------------------------------------------------------
# Training still works around / inside the mode
# ---------------------------------------------------------------------------

class TestTrainingInteraction:
    def test_trainer_enables_grad_inside_no_grad(self):
        from repro.core import UMGAD, UMGADConfig

        rng = np.random.default_rng(41)
        graph = random_multiplex(30, 2, 6, rng, avg_degree=3.0)
        with no_grad():
            model = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(graph)
        assert len(model.loss_history) == 2
        assert model.loss_history[1] < model.loss_history[0]
        assert model.decision_scores().shape == (30,)

    def test_module_mode_flags_recurse(self):
        class Outer(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(0)
                self.inner = GATConv(3, 2, rng)

        outer = Outer()
        assert outer.training and outer.inner.training
        outer.eval()
        assert not outer.training and not outer.inner.training
        outer.train()
        assert outer.training and outer.inner.training

    def test_networks_back_in_train_mode_after_scoring(self):
        from repro.core import UMGAD, UMGADConfig

        rng = np.random.default_rng(42)
        graph = random_multiplex(24, 2, 5, rng, avg_degree=3.0)
        model = UMGAD(UMGADConfig(epochs=1, seed=0)).fit(graph)
        assert model.networks.training
        model.score_graph(graph)
        assert model.networks.training
        model.networks.eval()
        model.score_graph(graph)
        assert not model.networks.training
