"""Training kernels equal their reference constructions bit for bit.

Two kernels serve both fitting and scoring, and both were swapped in for
slower constructions that stay here as the oracles:

* ``RelationGraph.sym_propagator`` assembles ``D^-1/2 (A [+ I]) D^-1/2``
  directly in CSR. ``_reference_sym_propagator`` is the scipy build it
  replaced (the pygod ``normalize_adj`` shape: two sparse products with a
  diagonal ``D^-1/2``); the direct build must equal it byte for byte —
  ``indptr``, ``indices`` and ``data`` arrays and their dtypes — and the
  block propagators tiled from it must still equal the reference tiles.
* ``segment_sum``, ``segment_softmax`` and the ``gather_rows`` backward
  scatter through ``ops.segment_add_data`` (``np.bincount`` in float64,
  ``np.add.at`` otherwise), whether or not a tape is recorded; each must
  equal the ``np.add.at`` formulation forward and backward.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import (
    Tensor,
    get_default_dtype,
    no_grad,
    ops,
    set_default_dtype,
)
from repro.autograd.gradcheck import check_gradients
from repro.datasets import load_dataset
from repro.graphs.graph import RelationGraph


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    previous = get_default_dtype()
    yield
    set_default_dtype(previous)


def _reference_sym_propagator(graph, add_self_loops):
    """The scipy two-product build the direct CSR assembly replaced."""
    adj = graph.adjacency()
    if add_self_loops:
        adj = adj + sp.eye(graph.num_nodes, format="csr", dtype=adj.dtype)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    d_half = sp.diags(inv_sqrt)
    return (d_half @ adj @ d_half).tocsr()


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.has_sorted_indices == want.has_sorted_indices


def _random_graph(rng, n=60, avg_degree=4.0):
    edges = rng.integers(0, n, size=(int(n * avg_degree / 2), 2))
    return RelationGraph(n, edges)


def _isolated_graph(rng):
    # nodes 30..39 carry no edge: all-zero rows without self-loops
    return RelationGraph(40, rng.integers(0, 30, size=(45, 2)))


def _keep_unsorted(rng):
    graph = _random_graph(rng, n=50)
    return graph.keep_edges(rng.permutation(graph.num_edges)[:40])


GRAPHS = {
    "random": _random_graph,
    "isolated": _isolated_graph,
    "empty": lambda rng: RelationGraph(25, np.empty((0, 2), dtype=np.int64)),
    "keep_edges_unsorted": _keep_unsorted,
    "single_node": lambda rng: RelationGraph(1, np.empty((0, 2))),
}


class TestSymPropagator:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("loops", [True, False])
    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    def test_equals_scipy_build(self, kind, loops, dtype):
        set_default_dtype(dtype)
        graph = GRAPHS[kind](np.random.default_rng(21))
        prop = graph.sym_propagator(loops)
        _assert_same_csr(prop, _reference_sym_propagator(graph, loops))
        assert prop.data.dtype == dtype
        assert prop.has_canonical_format
        assert np.isfinite(prop.data).all()
        assert prop._spmm_transpose is prop

    @pytest.mark.parametrize("loops", [True, False])
    def test_isolated_rows_are_empty_not_inf(self, loops):
        graph = _isolated_graph(np.random.default_rng(22))
        prop = graph.sym_propagator(loops)
        isolated = graph.degrees() == 0
        assert isolated.any()
        row_len = np.diff(prop.indptr)
        # an isolated node keeps only its self-loop, weight 1/sqrt(1)
        assert (row_len[isolated] == (1 if loops else 0)).all()
        dense = prop.toarray()
        assert np.isfinite(dense).all()
        if loops:
            assert (dense[isolated][:, isolated] == np.eye(
                isolated.sum())).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_randomized_graphs(self, dtype):
        set_default_dtype(dtype)
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 120))
            hub = int(rng.integers(1, n + 1))      # nodes >= hub isolated
            graph = RelationGraph(
                n, rng.integers(0, hub, size=(int(rng.integers(0, 4 * n)), 2)))
            for loops in (True, False):
                _assert_same_csr(graph.sym_propagator(loops),
                                 _reference_sym_propagator(graph, loops))

    def test_tsocial_relations(self):
        graph = load_dataset("tsocial", scale=1.0 / 16, seed=3).graph
        for _, relation in graph:
            for loops in (True, False):
                _assert_same_csr(relation.sym_propagator(loops),
                                 _reference_sym_propagator(relation, loops))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("loops", [True, False])
    @pytest.mark.parametrize("kind", ["random", "isolated", "empty"])
    def test_block_tiles_equal_reference(self, kind, loops, dtype):
        set_default_dtype(dtype)
        graph = GRAPHS[kind](np.random.default_rng(24))
        ref = _reference_sym_propagator(graph, loops)
        block = graph.block_propagator(3, loops)
        _assert_same_csr(block, sp.block_diag([ref] * 3, format="csr"))


# ---------------------------------------------------------------------------
# Segment scatters
# ---------------------------------------------------------------------------

#: 300 entries over 50 segments, ids drawn from 0..39 with gaps: repeats
#: everywhere, segments 40..49 and every skipped id empty
_N_SEG = 50


def _ids(rng, size=300):
    ids = rng.integers(0, 40, size=size)
    return np.where(ids % 7 == 3, ids + 1, ids)


def _add_at(values, ids, num_segments, dtype=None):
    out = np.zeros((num_segments,) + values.shape[1:],
                   dtype=values.dtype if dtype is None else dtype)
    np.add.at(out, ids, values)
    return out


def _reference_segment_softmax(data, ids, num_segments, grad):
    seg_max = np.full((num_segments,) + data.shape[1:], -np.inf,
                      dtype=data.dtype)
    np.maximum.at(seg_max, ids, data)
    expd = np.exp(data - seg_max[ids])
    out = expd / np.maximum(_add_at(expd, ids, num_segments)[ids], 1e-30)
    weighted = grad * out
    seg_weighted = _add_at(weighted, ids, num_segments, dtype=data.dtype)
    return out, weighted - out * seg_weighted[ids]


SHAPES = [(300,), (300, 1), (300, 6), (300, 2, 3)]
#: (value dtype, upstream-gradient dtype); the mixed pair is what float32
#: training produces where a float64 constant upcasts the gradient
DTYPES = [(np.float64, np.float64), (np.float32, np.float32),
          (np.float32, np.float64)]


def _leaf(data):
    return Tensor(data, requires_grad=True)


class TestSegmentScatter:
    @pytest.mark.parametrize("dtypes", DTYPES, ids=lambda d: "-".join(
        np.dtype(t).name for t in d))
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_segment_sum(self, shape, dtypes):
        rng = np.random.default_rng(31)
        values = rng.normal(size=shape).astype(dtypes[0])
        ids = _ids(rng)
        grad = rng.normal(size=(_N_SEG,) + shape[1:]).astype(dtypes[1])
        leaf = _leaf(values)
        out = ops.segment_sum(leaf, ids, _N_SEG)
        expected = _add_at(values, ids, _N_SEG)
        assert out.data.dtype == expected.dtype
        assert out.data.tobytes() == expected.tobytes()
        out.backward(grad)
        assert leaf.grad.tobytes() == grad[ids].tobytes()
        with no_grad():
            free = ops.segment_sum(values, ids, _N_SEG)
        assert free.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtypes", DTYPES, ids=lambda d: "-".join(
        np.dtype(t).name for t in d))
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_segment_softmax(self, shape, dtypes):
        rng = np.random.default_rng(32)
        scores = rng.normal(size=shape).astype(dtypes[0])
        ids = _ids(rng)
        grad = rng.normal(size=shape).astype(dtypes[1])
        leaf = _leaf(scores)
        out = ops.segment_softmax(leaf, ids, _N_SEG)
        want_out, want_grad = _reference_segment_softmax(scores, ids,
                                                         _N_SEG, grad)
        assert out.data.tobytes() == want_out.tobytes()
        out.backward(grad)
        assert leaf.grad.dtype == want_grad.dtype
        assert leaf.grad.tobytes() == want_grad.tobytes()
        with no_grad():
            free = ops.segment_softmax(scores, ids, _N_SEG)
        assert free.data.tobytes() == want_out.tobytes()

    @pytest.mark.parametrize("dtypes", DTYPES, ids=lambda d: "-".join(
        np.dtype(t).name for t in d))
    @pytest.mark.parametrize("shape", [(_N_SEG,), (_N_SEG, 5),
                                       (_N_SEG, 2, 3)], ids=str)
    def test_gather_rows_backward(self, shape, dtypes):
        rng = np.random.default_rng(33)
        table = rng.normal(size=shape).astype(dtypes[0])
        rows = _ids(rng)
        grad = rng.normal(size=(rows.size,) + shape[1:]).astype(dtypes[1])
        leaf = _leaf(table)
        out = ops.gather_rows(leaf, rows)
        assert out.data.tobytes() == table[rows].tobytes()
        out.backward(grad)
        expected = _add_at(grad, rows, _N_SEG, dtype=table.dtype)
        assert leaf.grad.dtype == table.dtype
        assert leaf.grad.tobytes() == expected.tobytes()

    def test_float32_takes_add_at_fallback(self, monkeypatch):
        calls = []
        real = np.bincount
        monkeypatch.setattr(np, "bincount",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        rng = np.random.default_rng(34)
        ids = _ids(rng)
        ops.segment_add_data(rng.normal(size=(300, 2)).astype(np.float32),
                             ids, _N_SEG)
        ops.segment_add_data(rng.normal(size=(300, 2)), ids, _N_SEG,
                             np.float32)
        assert calls == []
        ops.segment_add_data(rng.normal(size=(300, 2)), ids, _N_SEG)
        assert calls == [1]

    def test_gradcheck(self):
        rng = np.random.default_rng(35)
        ids = np.array([0, 3, 3, 1, 0, 3])       # segment 2 empty
        check_gradients(lambda a: ops.segment_sum(a, ids, 4),
                        [rng.normal(size=(6, 3))])
        check_gradients(lambda a: ops.segment_softmax(a, ids, 4),
                        [rng.normal(size=(6, 2))])
        check_gradients(lambda a: ops.gather_rows(a, ids),
                        [rng.normal(size=(5, 3))])
