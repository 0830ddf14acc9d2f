"""Contrastive-learning (CL) family baselines.

Nine methods re-implemented around their core contrast mechanism:

* **CoLA** — node vs local-subgraph readout discrimination.
* **ANEMONE** — multi-scale: patch-level (ego) + context-level contrast.
* **Sub-CR** — multi-view (local + diffusion) contrast + attribute
  reconstruction.
* **ARISE** — substructure awareness: dense-substructure (triangle) signal
  + node-subgraph contrast.
* **SL-GAD** — generative attribute regression + contrastive views.
* **PREM** — preprocessed ego-neighbor matching (message-passing-free).
* **GCCAD** — contrast clean vs corrupted graphs against a global context.
* **GRADATE** — multi-view multi-scale contrast with an edge-modified view.
* **VGOD** — variance-based neighbor-distribution outlierness + attribute
  reconstruction.

Shared simplification (README, "Deviations from the paper", item 5):
local-subgraph readouts are computed as propagated-feature neighborhoods
(``P^t X`` with the row-normalised propagator) rather than per-node RWR
loops — the same local context signal, fully vectorised. Negative readouts
are other nodes' readouts, as in the original samplers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import no_grad, ops, spmm
from ..autograd.tensor import Tensor
from ..detection import BaseDetector
from ..graphs.graph import RelationGraph
from ..graphs.multiplex import MultiplexGraph
from ..nn import Linear, Module, Parameter, init
from ..utils.rng import ensure_rng
from .common import (
    GCNStack,
    MLP,
    attribute_mse_loss,
    cosine_rows,
    merged_graph,
    minmax,
    neighbor_mean,
    sigmoid,
    train_detector,
)


def _row_propagator(graph: RelationGraph) -> sp.csr_matrix:
    """Row-normalised adjacency without self loops (pure neighborhood)."""
    adj = graph.adjacency()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return (sp.diags(inv) @ adj).tocsr()


def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(n)
    shift = perm[(np.arange(n) + 1) % n]
    clash = shift == np.arange(n)
    if np.any(clash):
        shift[clash] = (shift[clash] + 1) % n
    return shift


class _Bilinear(Module):
    """Bilinear discriminator ``σ(h_i W r_i)`` used by the CoLA family."""

    def __init__(self, dim: int, rng):
        super().__init__()
        self.weight = Parameter(init.xavier_uniform((dim, dim), rng),
                                name="disc.weight")

    def forward(self, h: Tensor, readout: Tensor) -> Tensor:
        return ops.sum(ops.mul(ops.matmul(h, self.weight), readout), axis=-1)


def _bce_pair(pos_logit: Tensor, neg_logit: Tensor) -> Tensor:
    eps = 1e-9
    pos = ops.neg(ops.mean(ops.log(ops.sigmoid(pos_logit), eps=eps)))
    neg = ops.neg(ops.mean(ops.log(ops.sub(1.0 + eps, ops.sigmoid(neg_logit)),
                                   eps=eps)))
    return ops.add(pos, neg)


class _ColaNet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.encoder = GCNStack([in_dim, hidden], rng)
        self.readout_proj = Linear(in_dim, hidden, rng)
        self.disc = _Bilinear(hidden, rng)


class CoLA(BaseDetector):
    """Contrastive self-supervised anomaly detection (node vs subgraph)."""

    def __init__(self, hidden_dim: int = 32, epochs: int = 40, lr: float = 5e-3,
                 hops: int = 2, eval_rounds: int = 4, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.hops = hops
        self.eval_rounds = eval_rounds
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "CoLA":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        row_prop = _row_propagator(merged)

        # Local-subgraph readout: t-hop propagated raw features.
        readout_np = graph.x
        for _ in range(self.hops):
            readout_np = row_prop @ readout_np
        x = Tensor(graph.x)
        readout_raw = Tensor(readout_np)
        net = _ColaNet(graph.num_features, self.hidden_dim, rng)

        def loss_fn():
            h = ops.row_normalize(net.encoder(x, prop))
            r = ops.row_normalize(net.readout_proj(readout_raw))
            shift = _derangement(merged.num_nodes, rng)
            pos = net.disc(h, r)
            neg = net.disc(h, ops.gather_rows(r, shift))
            return _bce_pair(pos, neg)

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        self.loss_history = self.train_state.loss_history

        with no_grad():
            h = ops.row_normalize(net.encoder(x, prop))
            r = ops.row_normalize(net.readout_proj(readout_raw))
            pos = sigmoid(net.disc(h, r).data)
            neg_total = np.zeros_like(pos)
            for _ in range(self.eval_rounds):
                shift = _derangement(merged.num_nodes, rng)
                neg_total += sigmoid(
                    net.disc(h, ops.gather_rows(r, shift)).data)
        self._scores = minmax(neg_total / self.eval_rounds - pos)
        return self


class _AnemoneNet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.encoder = GCNStack([in_dim, hidden], rng)
        self.patch_proj = Linear(in_dim, hidden, rng)
        self.context_proj = Linear(in_dim, hidden, rng)
        self.patch_disc = _Bilinear(hidden, rng)
        self.context_disc = _Bilinear(hidden, rng)


class ANEMONE(BaseDetector):
    """Multi-scale contrastive GAD: patch (1-hop) + context (multi-hop)."""

    def __init__(self, hidden_dim: int = 32, epochs: int = 40, lr: float = 5e-3,
                 gamma: float = 0.5, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.gamma = gamma
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "ANEMONE":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        row_prop = _row_propagator(merged)

        patch_np = row_prop @ graph.x                       # 1-hop ego
        context_np = row_prop @ (row_prop @ (row_prop @ graph.x))  # 3-hop
        x = Tensor(graph.x)
        patch_raw, context_raw = Tensor(patch_np), Tensor(context_np)
        net = _AnemoneNet(graph.num_features, self.hidden_dim, rng)

        def loss_fn():
            h = ops.row_normalize(net.encoder(x, prop))
            p = ops.row_normalize(net.patch_proj(patch_raw))
            c = ops.row_normalize(net.context_proj(context_raw))
            shift = _derangement(merged.num_nodes, rng)
            patch_term = _bce_pair(net.patch_disc(h, p),
                                   net.patch_disc(h, ops.gather_rows(p, shift)))
            context_term = _bce_pair(net.context_disc(h, c),
                                     net.context_disc(h, ops.gather_rows(c, shift)))
            return ops.add(ops.mul(patch_term, self.gamma),
                           ops.mul(context_term, 1.0 - self.gamma))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        self.loss_history = self.train_state.loss_history

        h = ops.row_normalize(net.encoder(x, prop))
        p = ops.row_normalize(net.patch_proj(patch_raw))
        c = ops.row_normalize(net.context_proj(context_raw))
        shift = _derangement(merged.num_nodes, rng)
        patch_score = (sigmoid(net.patch_disc(h, ops.gather_rows(p, shift)).data)
                       - sigmoid(net.patch_disc(h, p).data))
        ctx_score = (sigmoid(net.context_disc(h, ops.gather_rows(c, shift)).data)
                     - sigmoid(net.context_disc(h, c).data))
        self._scores = minmax(self.gamma * patch_score
                              + (1.0 - self.gamma) * ctx_score)
        return self


class _SubCRNet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.encoder = GCNStack([in_dim, hidden], rng)
        self.local_proj = Linear(in_dim, hidden, rng)
        self.global_proj = Linear(in_dim, hidden, rng)
        self.disc = _Bilinear(hidden, rng)
        self.attr_ae = MLP([in_dim, hidden, in_dim], rng)


class SubCR(BaseDetector):
    """Sub-CR: multi-view contrast (local + global diffusion) + attribute
    reconstruction."""

    def __init__(self, hidden_dim: int = 32, epochs: int = 40, lr: float = 5e-3,
                 balance: float = 0.5, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.balance = balance
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "SubCR":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        row_prop = _row_propagator(merged)

        local_np = row_prop @ graph.x
        # Global view: truncated diffusion (sum of powers ≈ PPR).
        diff = graph.x.copy()
        acc = np.zeros_like(diff)
        coef = 1.0
        for _ in range(3):
            diff = row_prop @ diff
            coef *= 0.5
            acc += coef * diff
        x = Tensor(graph.x)
        local_raw, global_raw = Tensor(local_np), Tensor(acc)
        net = _SubCRNet(graph.num_features, self.hidden_dim, rng)

        def loss_fn():
            h = ops.row_normalize(net.encoder(x, prop))
            l = ops.row_normalize(net.local_proj(local_raw))
            g = ops.row_normalize(net.global_proj(global_raw))
            shift = _derangement(merged.num_nodes, rng)
            contrast = ops.add(
                _bce_pair(net.disc(h, l), net.disc(h, ops.gather_rows(l, shift))),
                _bce_pair(net.disc(h, g), net.disc(h, ops.gather_rows(g, shift))))
            recon = attribute_mse_loss(net.attr_ae(x), x)
            return ops.add(ops.mul(contrast, self.balance),
                           ops.mul(recon, 1.0 - self.balance))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        self.loss_history = self.train_state.loss_history

        h = ops.row_normalize(net.encoder(x, prop))
        l = ops.row_normalize(net.local_proj(local_raw))
        g = ops.row_normalize(net.global_proj(global_raw))
        contrast_score = (1.0 - sigmoid(net.disc(h, l).data)
                          + 1.0 - sigmoid(net.disc(h, g).data)) / 2.0
        recon_err = np.linalg.norm(net.attr_ae(x).data - graph.x, axis=1)
        self._scores = (self.balance * minmax(contrast_score)
                        + (1.0 - self.balance) * minmax(recon_err))
        return self


class ARISE(BaseDetector):
    """ARISE: substructure awareness via triangle density + contrast.

    Dense substructures (near-cliques) are the structural anomaly signal:
    per-node triangle participation normalised by degree, combined with a
    CoLA-style contrast score for attribute anomalies.
    """

    def __init__(self, hidden_dim: int = 32, epochs: int = 30, lr: float = 5e-3,
                 balance: float = 0.5, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.balance = balance
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "ARISE":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)

        # Substructure signal: triangles / possible wedges per node.
        adj = merged.adjacency()
        adj_sq = adj @ adj
        triangles = np.asarray(adj.multiply(adj_sq).sum(axis=1)).ravel() / 2.0
        deg = merged.degrees().astype(np.float64)
        wedges = np.maximum(deg * (deg - 1) / 2.0, 1.0)
        density = triangles / wedges
        # Relative density within the graph plus raw triangle mass: cliques
        # have both high closure and high absolute triangle counts.
        substructure = 0.5 * minmax(density) + 0.5 * minmax(np.log1p(triangles))

        cola = CoLA(hidden_dim=self.hidden_dim, epochs=self.epochs, lr=self.lr,
                    seed=self.seed)
        cola.fit(graph)
        contrast = cola.decision_scores()
        self.train_state = cola.train_state
        self.loss_history = list(cola.loss_history)

        self._scores = (self.balance * substructure
                        + (1.0 - self.balance) * minmax(contrast))
        return self


class _SLGADNet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.encoder = GCNStack([in_dim, hidden], rng)
        self.regressor = Linear(hidden, in_dim, rng)  # generative head
        self.readout_proj = Linear(in_dim, hidden, rng)
        self.disc = _Bilinear(hidden, rng)


class SLGAD(BaseDetector):
    """SL-GAD: generative attribute regression + multi-view contrast."""

    def __init__(self, hidden_dim: int = 32, epochs: int = 40, lr: float = 5e-3,
                 balance: float = 0.6, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.balance = balance
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "SLGAD":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        row_prop = _row_propagator(merged)
        # Generative target: predict own attributes from *neighbor-only*
        # context (masked self), per the generative attribute regression.
        context_np = row_prop @ graph.x
        x = Tensor(graph.x)
        context = Tensor(context_np)
        net = _SLGADNet(graph.num_features, self.hidden_dim, rng)

        def loss_fn():
            h = net.encoder(context, prop)
            x_pred = net.regressor(h)
            gen = attribute_mse_loss(x_pred, x)
            hn = ops.row_normalize(h)
            r = ops.row_normalize(net.readout_proj(context))
            shift = _derangement(merged.num_nodes, rng)
            con = _bce_pair(net.disc(hn, r), net.disc(hn, ops.gather_rows(r, shift)))
            return ops.add(ops.mul(gen, self.balance),
                           ops.mul(con, 1.0 - self.balance))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        self.loss_history = self.train_state.loss_history

        with no_grad():
            h = net.encoder(context, prop)
            gen_err = np.linalg.norm(net.regressor(h).data - graph.x, axis=1)
            hn = ops.row_normalize(h)
            r = ops.row_normalize(net.readout_proj(context))
            con_score = 1.0 - sigmoid(net.disc(hn, r).data)
        self._scores = (self.balance * minmax(gen_err)
                        + (1.0 - self.balance) * minmax(con_score))
        return self


class PREM(BaseDetector):
    """PREM: preprocessing + ego-neighbor matching, no training-phase
    message passing.

    The GNN is replaced by one preprocessing pass (neighbor mean); a linear
    projection is trained with a contrastive objective on (node, ego) pairs.
    The score is the negative matching similarity.
    """

    def __init__(self, hidden_dim: int = 32, epochs: int = 25, lr: float = 1e-2,
                 seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "PREM":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        ego_np = neighbor_mean(graph.x, merged)
        x = Tensor(graph.x)
        ego = Tensor(ego_np)

        class _Proj(Module):
            def __init__(self, in_dim, hidden, prng):
                super().__init__()
                self.node_proj = Linear(in_dim, hidden, prng)
                self.ego_proj = Linear(in_dim, hidden, prng)

        net = _Proj(graph.num_features, self.hidden_dim, rng)

        def loss_fn():
            hn = ops.row_normalize(net.node_proj(x))
            he = ops.row_normalize(net.ego_proj(ego))
            shift = _derangement(merged.num_nodes, rng)
            pos = ops.mul(ops.sum(ops.mul(hn, he), axis=-1), 5.0)
            neg = ops.mul(ops.sum(ops.mul(hn, ops.gather_rows(he, shift)), axis=-1), 5.0)
            return _bce_pair(pos, neg)

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        self.loss_history = self.train_state.loss_history
        hn = ops.row_normalize(net.node_proj(x)).data
        he = ops.row_normalize(net.ego_proj(ego)).data
        match = (hn * he).sum(axis=1)
        self._scores = minmax(-match)
        return self


class _GCCADNet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.encoder = GCNStack([in_dim, hidden], rng)


class GCCAD(BaseDetector):
    """GCCAD: graph corruption contrastive coding.

    Pseudo-anomalies are made by corrupting (shuffling) features; the
    encoder learns to place clean nodes near the global context vector and
    corrupted nodes far from it. Score = distance to the global context.
    """

    def __init__(self, hidden_dim: int = 32, epochs: int = 40, lr: float = 5e-3,
                 seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "GCCAD":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        x = Tensor(graph.x)
        net = _GCCADNet(graph.num_features, self.hidden_dim, rng)

        def loss_fn():
            h = ops.row_normalize(net.encoder(x, prop))
            context = ops.mean(h, axis=0)
            shuffle = rng.permutation(merged.num_nodes)
            corrupted = Tensor(graph.x[shuffle])
            h_bad = ops.row_normalize(net.encoder(corrupted, prop))
            pos = ops.mul(ops.sum(ops.mul(h, context), axis=-1), 5.0)
            neg = ops.mul(ops.sum(ops.mul(h_bad, context), axis=-1), 5.0)
            return _bce_pair(pos, neg)

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        self.loss_history = self.train_state.loss_history
        h = ops.row_normalize(net.encoder(x, prop)).data
        context = h.mean(axis=0)
        context /= np.linalg.norm(context) + 1e-12
        self._scores = minmax(-(h @ context))
        return self


class _GradateNet(Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.encoder = GCNStack([in_dim, hidden], rng)
        self.readout_proj = Linear(in_dim, hidden, rng)
        self.disc = _Bilinear(hidden, rng)


class GRADATE(BaseDetector):
    """GRADATE: multi-scale contrast with an edge-modified augmented view.

    Node-subgraph contrast runs in both the original and an edge-dropped
    view; a subgraph-subgraph term ties the two views' readouts together.
    """

    def __init__(self, hidden_dim: int = 32, epochs: int = 40, lr: float = 5e-3,
                 edge_drop: float = 0.2, balance: float = 0.5, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.edge_drop = edge_drop
        self.balance = balance
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "GRADATE":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        drop = rng.choice(max(merged.num_edges, 1),
                          size=int(self.edge_drop * merged.num_edges),
                          replace=False)
        view2 = merged.remove_edges(drop)
        prop1, prop2 = merged.sym_propagator(), view2.sym_propagator()
        r1 = Tensor(_row_propagator(merged) @ graph.x)
        r2 = Tensor(_row_propagator(view2) @ graph.x)
        x = Tensor(graph.x)
        net = _GradateNet(graph.num_features, self.hidden_dim, rng)

        def loss_fn():
            h1 = ops.row_normalize(net.encoder(x, prop1))
            h2 = ops.row_normalize(net.encoder(x, prop2))
            p1 = ops.row_normalize(net.readout_proj(r1))
            p2 = ops.row_normalize(net.readout_proj(r2))
            shift = _derangement(merged.num_nodes, rng)
            ns1 = _bce_pair(net.disc(h1, p1), net.disc(h1, ops.gather_rows(p1, shift)))
            ns2 = _bce_pair(net.disc(h2, p2), net.disc(h2, ops.gather_rows(p2, shift)))
            # subgraph-subgraph agreement across views
            ss = ops.mean(ops.sum(ops.mul(ops.sub(p1, p2), ops.sub(p1, p2)), axis=1))
            return ops.add(ops.mul(ops.add(ns1, ns2), self.balance),
                           ops.mul(ss, 1.0 - self.balance))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        self.loss_history = self.train_state.loss_history

        h1 = ops.row_normalize(net.encoder(x, prop1))
        p1 = ops.row_normalize(net.readout_proj(r1))
        h2 = ops.row_normalize(net.encoder(x, prop2))
        p2 = ops.row_normalize(net.readout_proj(r2))
        s1 = 1.0 - sigmoid(net.disc(h1, p1).data)
        s2 = 1.0 - sigmoid(net.disc(h2, p2).data)
        cross = np.linalg.norm(p1.data - p2.data, axis=1)
        self._scores = (self.balance * minmax((s1 + s2) / 2.0)
                        + (1.0 - self.balance) * minmax(cross))
        return self


class VGOD(BaseDetector):
    """VGOD: variance-based outlier detection + attribute reconstruction.

    Structural outlierness = variance of a node's neighbors' embeddings
    around the node (high for nodes bridging inconsistent neighborhoods);
    blended with an MLP attribute-reconstruction error.
    """

    def __init__(self, hidden_dim: int = 32, epochs: int = 40, lr: float = 5e-3,
                 balance: float = 0.5, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.balance = balance
        self.seed = seed
        self._scores: Optional[np.ndarray] = None

    def fit(self, graph: MultiplexGraph) -> "VGOD":
        rng = ensure_rng(self.seed)
        merged = merged_graph(graph)
        prop = merged.sym_propagator()
        x = Tensor(graph.x)

        class _Net(Module):
            def __init__(self, in_dim, hidden, prng):
                super().__init__()
                self.encoder = GCNStack([in_dim, hidden], prng)
                self.attr_ae = MLP([in_dim, hidden, in_dim], prng)

        net = _Net(graph.num_features, self.hidden_dim, rng)
        row_prop = _row_propagator(merged)

        def loss_fn():
            h = net.encoder(x, prop)
            # Variance objective: pull nodes toward their neighborhood mean
            # (normal nodes comply; anomalies can't without breaking recon).
            diff = ops.sub(h, spmm(row_prop, h))
            var_term = ops.mean(ops.sum(ops.mul(diff, diff), axis=1))
            recon = attribute_mse_loss(net.attr_ae(x), x)
            return ops.add(ops.mul(var_term, self.balance),
                           ops.mul(recon, 1.0 - self.balance))

        self.train_state = train_detector(net, loss_fn, self.epochs, self.lr)
        self.loss_history = self.train_state.loss_history

        h = net.encoder(x, prop).data
        src, dst = merged.directed_pairs()
        n = merged.num_nodes
        # Neighbor variance around each node.
        mean = np.zeros_like(h)
        count = np.zeros(n)
        if src.size:
            np.add.at(mean, dst, h[src])
            np.add.at(count, dst, 1.0)
            mean /= np.maximum(count[:, None], 1.0)
            sq = np.zeros(n)
            np.add.at(sq, dst, ((h[src] - mean[dst]) ** 2).sum(axis=1))
            variance = sq / np.maximum(count, 1.0)
        else:
            variance = np.zeros(n)
        recon_err = np.linalg.norm(net.attr_ae(x).data - graph.x, axis=1)
        self._scores = (self.balance * minmax(variance)
                        + (1.0 - self.balance) * minmax(recon_err))
        return self
