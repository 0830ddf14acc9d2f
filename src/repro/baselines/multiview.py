"""Multi-view (MV) family baselines: AnomMAN and DualGAD.

These are the only baselines that, like UMGAD, consume the multiplex
structure instead of the merged graph:

* **AnomMAN** (Chen et al., Inf. Sci.'23) — per-view GCN autoencoders whose
  reconstructions are fused with learned attention over views; score =
  attention-fused attribute + structure reconstruction error.
* **DualGAD** (Tang et al., Inf. Sci.'24) — dual-bootstrapped
  self-supervision: subgraph (masked) reconstruction plus cluster-guided
  contrastive learning; score blends the two signals.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..autograd import no_grad, ops
from ..autograd.tensor import Tensor
from ..detection import BaseDetector
from ..graphs.masking import edge_mask
from ..graphs.multiplex import MultiplexGraph
from ..nn import Linear, Module, ModuleList, Parameter, init
from ..utils.rng import ensure_rng
from .common import (
    GCNStack,
    MLP,
    attribute_mse_loss,
    kmeans,
    merged_graph,
    minmax,
    sigmoid,
    structure_bce_loss,
    train_detector,
)
from ..core.scoring import structure_errors_sampled


class _AnomMANNet(Module):
    def __init__(self, in_dim: int, hidden: int, views: int, rng):
        super().__init__()
        self.encoders = ModuleList([GCNStack([in_dim, hidden], rng)
                                    for _ in range(views)])
        self.decoders = ModuleList([GCNStack([hidden, in_dim], rng)
                                    for _ in range(views)])
        self.attention = Parameter(init.normal((views,), rng, std=0.1),
                                   name="anomman.attention")


class AnomMAN(BaseDetector):
    """Detect anomalies on multi-view attributed networks."""

    def __init__(self, hidden_dim: int = 32, epochs: int = 40, lr: float = 5e-3,
                 alpha: float = 0.6, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.alpha = alpha
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "AnomMAN":
        rng = ensure_rng(self.seed)
        relations = [graph[name] for name in graph.relation_names]
        props = [rel.sym_propagator() for rel in relations]
        x = Tensor(graph.x)
        net = _AnomMANNet(graph.num_features, self.hidden_dim, len(relations), rng)

        def loss_fn():
            att = ops.softmax(net.attention, axis=-1)
            total = Tensor(0.0)
            fused_rec = None
            for v, (rel, prop) in enumerate(zip(relations, props)):
                z = net.encoders[v](x, prop)
                x_rec = net.decoders[v](z, prop)
                term = ops.mul(x_rec, ops.index(att, v))
                fused_rec = term if fused_rec is None else ops.add(fused_rec, term)
                total = ops.add(total, ops.mul(
                    structure_bce_loss(z, rel, rng),
                    ops.index(att, v)))
            attr = attribute_mse_loss(fused_rec, x)
            return ops.add(ops.mul(attr, self.alpha),
                           ops.mul(total, 1.0 - self.alpha))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)

        att = np.exp(net.attention.data - net.attention.data.max())
        att /= att.sum()
        fused_rec = np.zeros_like(graph.x)
        struct_err = np.zeros(graph.num_nodes)
        with no_grad():
            for v, (rel, prop) in enumerate(zip(relations, props)):
                z = net.encoders[v](x, prop)
                fused_rec += att[v] * net.decoders[v](z, prop).data
                struct_err += att[v] * structure_errors_sampled(z.data, rel,
                                                                rng)
        attr_err = np.linalg.norm(fused_rec - graph.x, axis=1)
        self._scores = (self.alpha * minmax(attr_err)
                        + (1.0 - self.alpha) * minmax(struct_err))
        return self


class _DualGADNet(Module):
    def __init__(self, in_dim: int, hidden: int, views: int, rng):
        super().__init__()
        self.encoders = ModuleList([GCNStack([in_dim, hidden], rng)
                                    for _ in range(views)])
        self.decoder = MLP([hidden, in_dim], rng)
        self.cluster_proj = Linear(hidden, hidden, rng)


class DualGAD(BaseDetector):
    """Dual-bootstrapped self-supervised GAD (subgraph reconstruction +
    cluster-guided contrast).

    Generative branch: per-view encoders reconstruct attributes after random
    edge masking. Contrastive branch: k-means clusters on the averaged
    embedding act as pseudo-labels; nodes are pulled toward their cluster
    centroid and pushed from a random other centroid. The anomaly score
    combines reconstruction error with distance-to-own-centroid (cluster
    inconsistency).
    """

    def __init__(self, hidden_dim: int = 32, epochs: int = 40, lr: float = 5e-3,
                 clusters: int = 8, mask_ratio: float = 0.2,
                 balance: float = 0.5, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.clusters = clusters
        self.mask_ratio = mask_ratio
        self.balance = balance
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "DualGAD":
        rng = ensure_rng(self.seed)
        relations = [graph[name] for name in graph.relation_names]
        x = Tensor(graph.x)
        net = _DualGADNet(graph.num_features, self.hidden_dim, len(relations), rng)

        def embed(masked: bool):
            zs = None
            for v, rel in enumerate(relations):
                rel_graph = (edge_mask(rel, self.mask_ratio, rng).remaining
                             if masked else rel)
                z = net.encoders[v](x, rel_graph.sym_propagator())
                zs = z if zs is None else ops.add(zs, z)
            return ops.div(zs, float(len(relations)))

        # Bootstrap clusters from raw propagated features.
        boot = np.mean([rel.sym_propagator() @ graph.x for rel in relations], axis=0)
        assign, _ = kmeans(boot, self.clusters, rng)

        def loss_fn():
            z = embed(masked=True)
            recon = attribute_mse_loss(net.decoder(z), x)
            # Cluster-guided contrast.
            proj = ops.row_normalize(net.cluster_proj(z))
            centroids = []
            for c in range(self.clusters):
                members = np.flatnonzero(assign == c)
                if members.size == 0:
                    members = np.arange(graph.num_nodes)
                centroids.append(ops.mean(ops.gather_rows(proj, members), axis=0))
            cent = ops.row_normalize(ops.stack(centroids, axis=0))
            own = ops.gather_rows(cent, assign)
            other = ops.gather_rows(cent, (assign + 1 + rng.integers(
                0, max(self.clusters - 1, 1), size=assign.size)) % self.clusters)
            pos = ops.sum(ops.mul(proj, own), axis=-1)
            neg = ops.sum(ops.mul(proj, other), axis=-1)
            margin = ops.mean(ops.relu(ops.add(ops.sub(neg, pos), 0.5)))
            return ops.add(ops.mul(recon, self.balance),
                           ops.mul(margin, 1.0 - self.balance))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)

        z = embed(masked=False)
        recon_err = np.linalg.norm(net.decoder(z).data - graph.x, axis=1)
        proj = ops.row_normalize(net.cluster_proj(z)).data
        centroids = np.stack([
            proj[assign == c].mean(axis=0) if np.any(assign == c)
            else proj.mean(axis=0)
            for c in range(self.clusters)
        ])
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True) + 1e-12
        cluster_dist = 1.0 - (proj * centroids[assign]).sum(axis=1)
        self._scores = (self.balance * minmax(recon_err)
                        + (1.0 - self.balance) * minmax(cluster_dist))
        return self
