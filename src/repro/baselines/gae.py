"""Graph-autoencoder (GAE) family baselines.

* **DOMINANT** (Ding et al., SDM'19) — GCN encoder, GCN attribute decoder,
  inner-product structure decoder; score = weighted reconstruction error.
* **GCNAE** (Kipf & Welling VGAE, SDM'19 usage) — (variational) GCN
  autoencoder; score from attribute+structure reconstruction.
* **AnomalyDAE** (Fan et al., ICASSP'20) — dual autoencoders: a structure AE
  over the adjacency and an attribute AE over the feature matrix, with
  cross reconstruction.
* **AdONE** (Bandyopadhyay et al., WSDM'20) — autoencoders with explicit
  per-node outlier weights learned to down-weight anomalies; the learned
  weights are the anomaly score.
* **GAD-NR** (Roy et al., WSDM'24) — neighborhood reconstruction: from a
  node's embedding, predict its degree and its neighborhood's feature
  distribution (mean/variance); score = combined reconstruction error.
* **ADA-GAD** (He et al., AAAI'24) — two-stage anomaly-denoised training:
  stage 1 trains on a denoised graph (lowest preliminary-error edges), then
  stage 2 retrains the decoder on the original graph.
* **GADAM** (Chen et al., ICLR'24) — local-inconsistency mining without
  message passing, then adaptive message passing with inconsistency-gated
  edge weights; hybrid score.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import no_grad, ops
from ..autograd.tensor import Tensor
from ..detection import BaseDetector
from ..graphs.multiplex import MultiplexGraph
from ..engine import TrainState
from ..nn import Linear, Module
from ..utils.rng import ensure_rng
from .common import (
    GCNStack,
    MLP,
    attribute_mse_loss,
    cosine_rows,
    merged_graph,
    minmax,
    neighbor_mean,
    reconstruction_scores,
    structure_bce_loss,
    train_detector,
)


class _EncoderDecoder(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.encoder = GCNStack([in_dim, hidden, hidden], rng)
        self.decoder = GCNStack([hidden, in_dim], rng)


class DOMINANT(BaseDetector):
    """Deep anomaly detection on attributed networks."""

    def __init__(self, hidden_dim: int = 32, epochs: int = 50, lr: float = 5e-3,
                 alpha: float = 0.6, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.alpha = alpha
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "DOMINANT":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        x = Tensor(graph.x)
        net = _EncoderDecoder(graph.num_features, self.hidden_dim, rng)

        def loss_fn():
            z = net.encoder(x, prop)
            x_rec = net.decoder(z, prop)
            return ops.add(
                ops.mul(attribute_mse_loss(x_rec, x), self.alpha),
                ops.mul(structure_bce_loss(z, merged, rng), 1.0 - self.alpha))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        with no_grad():
            z = net.encoder(x, prop)
            x_rec = net.decoder(z, prop)
        self._scores = reconstruction_scores(x_rec.data, graph.x, z.data,
                                             merged, rng, alpha=self.alpha)
        return self


class _VGAENet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.base = GCNStack([in_dim, hidden], rng)
        self.mu_head = GCNStack([hidden, hidden], rng)
        self.logvar_head = GCNStack([hidden, hidden], rng)
        self.attr_decoder = GCNStack([hidden, in_dim], rng)


class GCNAE(BaseDetector):
    """Variational GCN autoencoder detector (GCNAE in the paper's tables)."""

    def __init__(self, hidden_dim: int = 32, epochs: int = 50, lr: float = 5e-3,
                 alpha: float = 0.5, kl_weight: float = 1e-3, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.alpha = alpha
        self.kl_weight = kl_weight
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "GCNAE":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        x = Tensor(graph.x)
        net = _VGAENet(graph.num_features, self.hidden_dim, rng)

        def loss_fn():
            h = ops.relu(net.base(x, prop))
            mu = net.mu_head(h, prop)
            logvar = ops.clip(net.logvar_head(h, prop), -5.0, 5.0)
            noise = rng.normal(size=mu.shape)
            z = ops.add(mu, ops.mul(ops.exp(ops.mul(logvar, 0.5)), noise))
            x_rec = net.attr_decoder(z, prop)
            kl = ops.mul(ops.mean(
                ops.sub(ops.add(ops.exp(logvar), ops.mul(mu, mu)),
                        ops.add(logvar, 1.0))), 0.5)
            recon = ops.add(
                ops.mul(attribute_mse_loss(x_rec, x), self.alpha),
                ops.mul(structure_bce_loss(z, merged, rng), 1.0 - self.alpha))
            return ops.add(recon, ops.mul(kl, self.kl_weight))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        with no_grad():
            h = ops.relu(net.base(x, prop))
            mu = net.mu_head(h, prop)
            x_rec = net.attr_decoder(mu, prop)
        self._scores = reconstruction_scores(x_rec.data, graph.x, mu.data,
                                             merged, rng, alpha=self.alpha)
        return self


class _AnomalyDAENet(Module):
    def __init__(self, in_dim: int, n: int, hidden: int, rng):
        super().__init__()
        self.struct_encoder = GCNStack([in_dim, hidden], rng)
        self.attr_encoder = MLP([in_dim, hidden], rng)
        self.attr_decoder = MLP([hidden, in_dim], rng)


class AnomalyDAE(BaseDetector):
    """Dual autoencoder: structure AE × attribute AE with cross terms."""

    def __init__(self, hidden_dim: int = 32, epochs: int = 50, lr: float = 5e-3,
                 alpha: float = 0.5, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.alpha = alpha
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "AnomalyDAE":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        x = Tensor(graph.x)
        net = _AnomalyDAENet(graph.num_features, merged.num_nodes,
                             self.hidden_dim, rng)

        def loss_fn():
            z_s = net.struct_encoder(x, prop)          # structure-aware
            z_a = net.attr_encoder(x)                  # attribute-only
            # Cross reconstruction: attributes decoded from the structure
            # embedding, structure predicted from both embeddings.
            x_rec = net.attr_decoder(z_s)
            struct = structure_bce_loss(ops.add(z_s, z_a), merged, rng)
            return ops.add(ops.mul(attribute_mse_loss(x_rec, x), self.alpha),
                           ops.mul(struct, 1.0 - self.alpha))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        with no_grad():
            z_s = net.struct_encoder(x, prop)
            z_a = net.attr_encoder(x)
            x_rec = net.attr_decoder(z_s)
        z = (z_s.data + z_a.data) / 2.0
        self._scores = reconstruction_scores(x_rec.data, graph.x, z, merged,
                                             rng, alpha=self.alpha)
        return self


class _AdONENet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.attr_ae = MLP([in_dim, hidden, in_dim], rng)
        self.struct_encoder = GCNStack([in_dim, hidden], rng)


class AdONE(BaseDetector):
    """Outlier-resistant embedding: learned per-node outlier weights.

    The reconstruction losses are weighted by ``log(1/o_i)`` with learnable
    outlier scores ``o_i`` (softmax-normalised); training pushes ``o_i`` up
    exactly for nodes the autoencoders cannot explain — those are returned
    as the anomaly scores.
    """

    def __init__(self, hidden_dim: int = 32, epochs: int = 60, lr: float = 1e-2,
                 seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "AdONE":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        n = merged.num_nodes
        x = Tensor(graph.x)
        net = _AdONENet(graph.num_features, self.hidden_dim, rng)
        from ..nn import Parameter
        from ..nn import init as nn_init
        net.outlier_logits = Parameter(nn_init.zeros(n), name="adone.outlier")

        # Row-normalised (self-loop-free) propagator for homophily error.
        adj = merged.adjacency()
        deg = np.asarray(adj.sum(axis=1)).ravel()
        inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
        row_prop = sp.diags(inv) @ adj

        from ..autograd import spmm

        def loss_fn():
            # Outlier weights w_i = -log(o_i) with Σ o_i = 1 (softmax); the
            # interior optimum puts o_i ∝ error_i, i.e. the outlier scores
            # absorb exactly the unexplainable nodes.
            o = ops.softmax(net.outlier_logits, axis=-1)
            w = ops.neg(ops.log(o, eps=1e-12))
            x_rec = net.attr_ae(x)
            attr_err = ops.sum(ops.mul(ops.sub(x_rec, x), ops.sub(x_rec, x)), axis=1)
            z = net.struct_encoder(x, prop)
            hom_diff = ops.sub(z, spmm(row_prop, z))
            hom_err = ops.sum(ops.mul(hom_diff, hom_diff), axis=1)
            return ops.mean(ops.mul(w, ops.add(attr_err, hom_err)))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        o = net.outlier_logits.data
        self._scores = minmax(o)
        return self


class _GADNRNet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.encoder = GCNStack([in_dim, hidden], rng)
        self.self_decoder = MLP([hidden, in_dim], rng)
        self.degree_decoder = MLP([hidden, 1], rng)
        self.neigh_mean_decoder = MLP([hidden, in_dim], rng)


class GADNR(BaseDetector):
    """GAD-NR: reconstruct a node's entire neighborhood from its embedding."""

    def __init__(self, hidden_dim: int = 32, epochs: int = 50, lr: float = 5e-3,
                 weights=(1.0, 0.5, 1.0), seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.weights = weights
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "GADNR":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        x = Tensor(graph.x)
        net = _GADNRNet(graph.num_features, self.hidden_dim, rng)

        log_deg = Tensor(np.log1p(merged.degrees().astype(np.float64))[:, None])
        neigh = Tensor(neighbor_mean(graph.x, merged))
        w_self, w_deg, w_neigh = self.weights

        def loss_fn():
            z = net.encoder(x, prop)
            self_err = attribute_mse_loss(net.self_decoder(z), x)
            deg_err = attribute_mse_loss(net.degree_decoder(z), log_deg)
            neigh_err = attribute_mse_loss(net.neigh_mean_decoder(z), neigh)
            return ops.add(ops.add(ops.mul(self_err, w_self),
                                   ops.mul(deg_err, w_deg)),
                           ops.mul(neigh_err, w_neigh))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        with no_grad():
            z = net.encoder(x, prop)
            self_err = np.linalg.norm(net.self_decoder(z).data - graph.x,
                                      axis=1)
            deg_err = np.abs(net.degree_decoder(z).data.ravel()
                             - np.log1p(merged.degrees()))
            neigh_err = np.linalg.norm(net.neigh_mean_decoder(z).data
                                       - neighbor_mean(graph.x, merged),
                                       axis=1)
        w_self, w_deg, w_neigh = self.weights
        self._scores = (w_self * minmax(self_err) + w_deg * minmax(deg_err)
                        + w_neigh * minmax(neigh_err)) / (w_self + w_deg + w_neigh)
        return self


class ADAGAD(BaseDetector):
    """ADA-GAD: anomaly-denoised two-stage autoencoder training.

    Stage 1 computes preliminary reconstruction errors, builds a *denoised*
    graph by dropping the highest-error edges and retrains the encoder on
    it; stage 2 freezes the encoder and retrains the decoder on the original
    graph. Scoring uses the stage-2 reconstruction on the original graph.
    """

    def __init__(self, hidden_dim: int = 32, epochs: int = 30, lr: float = 5e-3,
                 denoise_ratio: float = 0.15, alpha: float = 0.6, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.denoise_ratio = denoise_ratio
        self.alpha = alpha
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "ADAGAD":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        x = Tensor(graph.x)

        # --- preliminary pass: quick AE to rank edges by endpoint error
        pre = _EncoderDecoder(graph.num_features, self.hidden_dim, rng)
        prop = merged.sym_propagator()

        def pre_loss():
            z = pre.encoder(x, prop)
            return attribute_mse_loss(pre.decoder(z, prop), x)

        pre_state = train_detector(pre, pre_loss, max(5, self.epochs // 3),
                                   self.lr)
        pre_err = np.linalg.norm(
            pre.decoder(pre.encoder(x, prop), prop).data - graph.x, axis=1)
        edge_err = pre_err[merged.edges[:, 0]] + pre_err[merged.edges[:, 1]]
        cut = int(self.denoise_ratio * merged.num_edges)
        denoised = (merged.remove_edges(np.argsort(-edge_err)[:cut])
                    if cut else merged)

        # --- stage 1: train encoder+decoder on the denoised graph
        net = _EncoderDecoder(graph.num_features, self.hidden_dim, rng)
        d_prop = denoised.sym_propagator()

        def stage1_loss():
            z = net.encoder(x, d_prop)
            x_rec = net.decoder(z, d_prop)
            return ops.add(
                ops.mul(attribute_mse_loss(x_rec, x), self.alpha),
                ops.mul(structure_bce_loss(z, denoised, rng), 1.0 - self.alpha))

        stage1_state = train_detector(net, stage1_loss, self.epochs, self.lr)

        # --- stage 2: freeze encoder, retrain decoder on the ORIGINAL graph
        frozen_z = Tensor(net.encoder(x, d_prop).data)

        def stage2_loss():
            x_rec = net.decoder(frozen_z, prop)
            return attribute_mse_loss(x_rec, x)

        stage2_state = train_detector(net.decoder, stage2_loss,
                                      max(5, self.epochs // 2), self.lr)
        self.train_state = TrainState.concat([pre_state, stage1_state,
                                              stage2_state])

        with no_grad():
            x_rec = net.decoder(frozen_z, prop).data
        self._scores = reconstruction_scores(x_rec, graph.x, frozen_z.data,
                                             merged, rng, alpha=self.alpha)
        return self


class GADAM(BaseDetector):
    """GADAM: local-inconsistency mining + adaptive message passing.

    Phase 1 (LIM): message-passing-free inconsistency — one minus the cosine
    between a node's attributes and its neighborhood mean. Phase 2: messages
    are re-aggregated with edge weights gated by endpoint consistency, and
    the final score blends both phases.
    """

    def __init__(self, blend: float = 0.5, rounds: int = 2, seed=0):
        self.blend = float(blend)
        self.rounds = int(rounds)
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "GADAM":
        merged = merged_graph(graph)
        x = graph.x
        n = merged.num_nodes

        # Phase 1: local inconsistency mining.
        agg = neighbor_mean(x, merged)
        lim = 1.0 - cosine_rows(x, agg)

        # Phase 2: adaptive message passing — gate edges by consistency.
        src, dst = merged.directed_pairs()
        h = x.copy()
        for _ in range(self.rounds):
            if src.size == 0:
                break
            consistency = 1.0 - 0.5 * (lim[src] + lim[dst])
            denom = np.zeros(n)
            np.add.at(denom, dst, consistency)
            weights = consistency / np.maximum(denom[dst], 1e-12)
            new_h = np.zeros_like(h)
            np.add.at(new_h, dst, weights[:, None] * h[src])
            h = 0.5 * x + 0.5 * new_h
        adaptive = 1.0 - cosine_rows(x, h)

        self._scores = (self.blend * minmax(lim)
                        + (1.0 - self.blend) * minmax(adaptive))
        return self
