"""Message-passing-improved (MPI) baselines: ComGA, RAND, TAM.

Each method modifies *how* messages propagate rather than what is
reconstructed:

* **ComGA** (Luo et al., WSDM'22) injects community structure into the
  GNN: community memberships (spectral) gate the propagation, and a GCN
  autoencoder reconstructs attributes + structure.
* **RAND** (Bei et al., ICDM'23) reinforces the neighborhood: per-edge
  reliability weights are updated from agreement between a node and its
  neighbors (a bandit-style update standing in for the RL policy), and
  messages are amplified along reliable edges.
* **TAM** (Qiao & Pang, NeurIPS'24) maximises local affinity on a
  *truncated* graph: edges with the lowest attribute affinity are
  iteratively removed, and the anomaly score is the negative local affinity
  after truncation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import no_grad, ops
from ..autograd.tensor import Tensor
from ..detection import BaseDetector
from ..graphs.graph import RelationGraph
from ..graphs.multiplex import MultiplexGraph
from ..nn import Module
from ..utils.rng import ensure_rng
from .common import (
    GCNStack,
    attribute_mse_loss,
    cosine_rows,
    merged_graph,
    minmax,
    neighbor_mean,
    reconstruction_scores,
    spectral_embedding,
    structure_bce_loss,
    train_detector,
)


class _ComGANet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.encoder = GCNStack([in_dim, hidden], rng)
        self.attr_decoder = GCNStack([hidden, in_dim], rng)


class ComGA(BaseDetector):
    """Community-aware attributed graph anomaly detection (simplified).

    Community memberships from a spectral embedding are concatenated onto
    the node attributes (standing in for the tailored community-GCN), and a
    GCN autoencoder reconstructs both attributes and structure; the score is
    the usual weighted reconstruction error.
    """

    def __init__(self, hidden_dim: int = 32, communities: int = 8,
                 epochs: int = 40, lr: float = 5e-3, alpha: float = 0.6, seed=0):
        self.hidden_dim = hidden_dim
        self.communities = communities
        self.epochs = epochs
        self.lr = lr
        self.alpha = alpha
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "ComGA":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        comm = spectral_embedding(merged, min(self.communities, 8), rng)
        features = np.concatenate([graph.x, comm], axis=1)
        x = Tensor(features)
        prop = merged.sym_propagator()
        net = _ComGANet(features.shape[1], self.hidden_dim, rng)

        def loss_fn():
            z = net.encoder(x, prop)
            x_rec = net.attr_decoder(z, prop)
            return ops.add(
                ops.mul(attribute_mse_loss(x_rec, x), self.alpha),
                ops.mul(structure_bce_loss(z, merged, rng), 1.0 - self.alpha))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        with no_grad():
            z = net.encoder(x, prop).data
            x_rec = net.attr_decoder(net.encoder(x, prop), prop).data
        self._scores = reconstruction_scores(x_rec, features, z, merged, rng,
                                             alpha=self.alpha)
        return self


class RAND(BaseDetector):
    """Reinforced neighborhood selection (simplified bandit form).

    Edge reliability starts uniform and is updated multiplicatively from the
    cosine agreement between endpoints' current representations; messages
    are aggregated with reliability weights. The anomaly score is the
    disagreement between a node's own attributes and its reliable-neighbor
    aggregate.
    """

    def __init__(self, rounds: int = 4, learning_rate: float = 0.5, seed=0):
        self.rounds = int(rounds)
        self.learning_rate = float(learning_rate)
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "RAND":
        merged = merged_graph(graph)
        x = graph.x
        n = merged.num_nodes
        src, dst = merged.directed_pairs()
        if src.size == 0:
            self._scores = np.zeros(n)
            return self

        reliability = np.ones(src.size)
        h = x.copy()
        for _ in range(self.rounds):
            # Agreement of each directed edge under current representations.
            agree = cosine_rows(h[src], h[dst])
            reliability *= np.exp(self.learning_rate * (agree - agree.mean()))
            # Normalise per destination and aggregate.
            denom = np.zeros(n)
            np.add.at(denom, dst, reliability)
            weights = reliability / np.maximum(denom[dst], 1e-12)
            agg = np.zeros_like(h)
            np.add.at(agg, dst, weights[:, None] * h[src])
            h = 0.5 * x + 0.5 * agg

        final_agg = np.zeros_like(h)
        denom = np.zeros(n)
        np.add.at(denom, dst, reliability)
        weights = reliability / np.maximum(denom[dst], 1e-12)
        np.add.at(final_agg, dst, weights[:, None] * x[src])
        disagreement = 1.0 - cosine_rows(x, final_agg)
        isolated = denom == 0
        disagreement[isolated] = np.median(disagreement[~isolated]) if (~isolated).any() else 0.0
        self._scores = minmax(disagreement)
        return self


class TAM(BaseDetector):
    """Truncated affinity maximisation (one-class homophily modelling).

    Iteratively removes the ``truncation_ratio`` least-affine edges (the
    likely anomaly–normal connections), then scores each node by its
    *negative* mean neighbor affinity on the truncated graph — anomalous
    nodes retain low affinity, normal nodes sit in affine neighborhoods.
    """

    def __init__(self, truncation_rounds: int = 3, truncation_ratio: float = 0.1,
                 seed=0):
        self.truncation_rounds = int(truncation_rounds)
        self.truncation_ratio = float(truncation_ratio)
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "TAM":
        merged = merged_graph(graph)
        x = graph.x / (np.linalg.norm(graph.x, axis=1, keepdims=True) + 1e-12)
        current: RelationGraph = merged
        for _ in range(self.truncation_rounds):
            if current.num_edges == 0:
                break
            affinity = (x[current.edges[:, 0]] * x[current.edges[:, 1]]).sum(axis=1)
            cut = max(1, int(self.truncation_ratio * current.num_edges))
            drop = np.argsort(affinity)[:cut]
            current = current.remove_edges(drop)

        n = merged.num_nodes
        score = np.zeros(n)
        deg = np.zeros(n)
        if current.num_edges:
            aff = (x[current.edges[:, 0]] * x[current.edges[:, 1]]).sum(axis=1)
            np.add.at(score, current.edges[:, 0], aff)
            np.add.at(score, current.edges[:, 1], aff)
            np.add.at(deg, current.edges[:, 0], 1.0)
            np.add.at(deg, current.edges[:, 1], 1.0)
        mean_affinity = np.divide(score, deg, out=np.zeros(n), where=deg > 0)
        # Nodes fully disconnected by truncation had only low-affinity edges:
        # maximal anomaly evidence.
        orphaned = (deg == 0) & (merged.degrees() > 0)
        mean_affinity[orphaned] = mean_affinity.min() if np.any(~orphaned) else -1.0
        self._scores = minmax(-mean_affinity)
        return self
