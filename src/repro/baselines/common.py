"""Shared building blocks for the baseline detectors.

Every baseline re-implements the *core mechanism* of its paper on the shared
numpy substrate (see README, "Deviations from the paper", item 1). The pieces
that recur — GCN encoder stacks, generic training loops, reconstruction
scoring, neighbor aggregation, k-means, spectral embeddings — live here so
each baseline file reads as its mechanism only.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np
import scipy.sparse as sp

from ..autograd import ops, spmm
from ..autograd.tensor import Tensor
from ..engine import GradClip, Trainer, TrainState
from ..graphs.graph import RelationGraph
from ..graphs.multiplex import MultiplexGraph
from ..nn import Adam, GCNConv, Linear, Module, ModuleList
from ..utils.rng import ensure_rng


# ---------------------------------------------------------------------------
# Graph helpers
# ---------------------------------------------------------------------------

def merged_graph(graph: MultiplexGraph) -> RelationGraph:
    """Flatten the multiplex graph (non-MV baselines operate on this)."""
    return graph.merged()


def neighbor_mean(x: np.ndarray, graph: RelationGraph) -> np.ndarray:
    """Row-normalised one-hop aggregation ``D^{-1} A X`` (no self loop)."""
    adj = graph.adjacency()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return sp.diags(inv) @ (adj @ x)


def cosine_rows(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Row-wise cosine similarity between two matrices."""
    num = (a * b).sum(axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1) + eps
    return num / den


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def minmax(values: np.ndarray) -> np.ndarray:
    """Min-max normalise to [0, 1] (constant → zeros)."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi - lo < 1e-12:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def zscore(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    std = values.std()
    if std < 1e-12:
        return np.zeros_like(values)
    return (values - values.mean()) / std


# ---------------------------------------------------------------------------
# Model building blocks
# ---------------------------------------------------------------------------

class GCNStack(Module):
    """A stack of GCN layers with ReLU in between (no final nonlinearity)."""

    def __init__(self, dims: List[int], rng: np.random.Generator):
        super().__init__()
        self.layers = ModuleList([
            GCNConv(d_in, d_out, rng) for d_in, d_out in zip(dims[:-1], dims[1:])
        ])

    def forward(self, x: Tensor, propagator: sp.spmatrix) -> Tensor:
        h = x
        for i, layer in enumerate(self.layers):
            h = layer(h, propagator)
            if i + 1 < len(self.layers):
                h = ops.relu(h)
        return h


class MLP(Module):
    """Fully connected stack with ReLU in between."""

    def __init__(self, dims: List[int], rng: np.random.Generator):
        super().__init__()
        self.layers = ModuleList([
            Linear(d_in, d_out, rng) for d_in, d_out in zip(dims[:-1], dims[1:])
        ])

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for i, layer in enumerate(self.layers):
            h = layer(h)
            if i + 1 < len(self.layers):
                h = ops.relu(h)
        return h


def train_detector(model: Module, loss_fn: Callable, epochs: int,
                   lr: float) -> TrainState:
    """Train a baseline full-batch on the shared engine; returns its
    telemetry. ``loss_fn`` is a zero-arg closure over the full graph."""
    trainer = Trainer(model, Adam(model.parameters(), lr=lr),
                      callbacks=[GradClip(5.0)])
    return trainer.fit(None, lambda batch: loss_fn(), epochs)


# ---------------------------------------------------------------------------
# Reconstruction losses / scores (shared by the GAE family)
# ---------------------------------------------------------------------------

def structure_bce_loss(z: Tensor, graph: RelationGraph, rng: np.random.Generator,
                       num_samples: int = 2048) -> Tensor:
    """Sampled BCE on ``σ(z_i · z_j)`` for edges vs random non-edges."""
    n = graph.num_nodes
    m = min(num_samples, max(graph.num_edges, 1))
    if graph.num_edges:
        idx = rng.integers(0, graph.num_edges, size=m)
        pos = graph.edges[idx]
    else:
        pos = np.empty((0, 2), dtype=np.int64)
    neg = rng.integers(0, n, size=(m, 2))

    zn = ops.row_normalize(z)
    pos_logit = ops.sum(ops.mul(ops.gather_rows(zn, pos[:, 0]),
                                ops.gather_rows(zn, pos[:, 1])), axis=-1)
    neg_logit = ops.sum(ops.mul(ops.gather_rows(zn, neg[:, 0]),
                                ops.gather_rows(zn, neg[:, 1])), axis=-1)
    eps = 1e-9
    pos_term = ops.neg(ops.mean(ops.log(ops.sigmoid(ops.mul(pos_logit, 5.0)), eps=eps)))
    neg_term = ops.neg(ops.mean(ops.log(
        ops.sub(1.0 + eps, ops.sigmoid(ops.mul(neg_logit, 5.0))), eps=eps)))
    return ops.add(pos_term, neg_term)


def attribute_mse_loss(reconstructed: Tensor, original: Tensor) -> Tensor:
    diff = ops.sub(reconstructed, original)
    return ops.mean(ops.mul(diff, diff))


def reconstruction_scores(x_rec: np.ndarray, x: np.ndarray,
                          z: np.ndarray, graph: RelationGraph,
                          rng: np.random.Generator, alpha: float = 0.5,
                          negatives_per_node: int = 20) -> np.ndarray:
    """DOMINANT-style score: ``α·attr_error + (1-α)·structure_error``.

    Structure error is the sampled neighbor/non-edge row error (same
    estimator the UMGAD scorer uses in sampled mode).
    """
    from ..core.scoring import structure_errors_sampled

    attr_err = np.linalg.norm(x_rec - x, axis=1)
    struct_err = structure_errors_sampled(z, graph, rng,
                                          negatives_per_node=negatives_per_node)
    return alpha * minmax(attr_err) + (1.0 - alpha) * minmax(struct_err)


# ---------------------------------------------------------------------------
# Classic algorithms used by several baselines
# ---------------------------------------------------------------------------

def kmeans(x: np.ndarray, k: int, rng: np.random.Generator,
           iters: int = 30) -> Tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's k-means; returns (assignments, centroids)."""
    n = x.shape[0]
    k = min(k, n)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = x[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return assign, centroids


def spectral_embedding(graph: RelationGraph, dim: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Leading eigenvectors of the normalised adjacency (community signal).

    Computed on the largest connected component; other nodes get zero
    rows. Each component adds an eigenvalue 1 to the self-looped
    normalised adjacency, so on a graph with many components the leading
    eigenspace is degenerate, any basis of it is a valid answer, and the
    solver's pick changes with round-off. Within one component that
    eigenvalue is simple.
    """
    _, labels = sp.csgraph.connected_components(graph.adjacency(),
                                                directed=False)
    nodes = np.flatnonzero(labels == np.bincount(labels).argmax())
    prop = graph.sym_propagator()
    if nodes.size < graph.num_nodes:
        prop = prop[nodes][:, nodes]
    dim = min(dim, graph.num_nodes - 2)
    try:
        _vals, vecs = sp.linalg.eigsh(prop, k=min(dim, nodes.size - 2),
                                      which="LA", v0=rng.random(nodes.size))
        embedding = np.zeros((graph.num_nodes, dim))
        embedding[nodes, :vecs.shape[1]] = vecs
        return embedding
    except Exception:
        # Fallback for tiny/degenerate graphs: random projection of adjacency.
        proj = rng.normal(size=(graph.num_nodes, dim))
        return graph.adjacency() @ proj


def rwr_readout(x: np.ndarray, graph: RelationGraph, nodes: np.ndarray) -> np.ndarray:
    """Mean-pooled features of a sampled subgraph (contrastive readouts)."""
    if nodes.size == 0:
        return np.zeros(x.shape[1])
    return x[nodes].mean(axis=0)
