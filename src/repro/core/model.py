"""UMGAD: the full model (paper Sec. IV).

Three components trained jointly end-to-end:

1. **Original-view graph reconstruction** (Sec. IV-A): per relation, a
   GAT-encoder/SGC-decoder GMAE reconstructs masked node attributes (Eq. 1–4)
   and masked edges (Eq. 5–7); relation importance is fused with learnable
   weights ``a_r`` (attributes, Eq. 3) and ``b_r`` (structure losses, Eq. 8).
2. **Augmented-view graph reconstruction** (Sec. IV-B): an attribute-level
   view built by swapping node attributes (Eq. 10–13) and a subgraph-level
   view built by RWR subgraph masking (Eq. 14–16), each with SGC-based GMAEs.
3. **Dual-view contrastive learning** (Sec. IV-C, Eq. 17) between the
   original-view reconstruction and each augmented-view reconstruction.

The total objective is Eq. 18; anomaly scores follow Eq. 19 and the
unsupervised threshold Sec. IV-E (see :mod:`repro.core.threshold`).

Documented deviations from the paper (README, "Deviations from the paper",
item 3):

* The ``K`` mask repeats share encoder/decoder weights (the paper indexes
  weights by ``(r, k)``); repeats act as mask resampling, which is the
  standard GraphMAE practice and keeps the parameter count linear in ``R``.
* Fusion weights ``a_r`` / ``b_r`` are softmax-normalised. Raw weights make
  Eq. 8 unbounded below (the optimiser could drive ``b_r → -∞``).
* Contrastive and edge-prediction dot products are computed on
  L2-normalised vectors with a temperature for numerical stability.
"""

from __future__ import annotations

import contextvars
import copy
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autograd import no_grad, ops
from ..autograd.tensor import Tensor
from ..detection import BaseDetector
from ..engine import (
    EarlyStopping,
    GradClip,
    ProgressLogger,
    Trainer,
    TrainState,
    make_batch_strategy,
)
from ..graphs.masking import attribute_mask, attribute_swap, edge_mask, subgraph_mask
from ..graphs.multiplex import MultiplexGraph
from ..nn import Adam, Module, ModuleList, Parameter, init
from ..obs.trace import span
from ..utils.blas import single_threaded_blas
from ..utils.rng import ensure_rng
from ..utils.timer import Timer
from .config import UMGADConfig
from .gmae import GMAE
from .losses import dual_view_contrastive, masked_edge_loss, scaled_cosine_error
from .scoring import (
    attribute_errors,
    combine_view_score,
    draw_negatives,
    resolve_structure_mode,
    structure_errors_from,
)


class _Networks(Module):
    """Parameter container: per-relation GMAEs + fusion weights."""

    def __init__(self, num_relations: int, num_features: int, cfg: UMGADConfig,
                 rng: np.random.Generator):
        super().__init__()

        def bank(kind: str) -> ModuleList:
            return ModuleList([
                GMAE(num_features, cfg.hidden_dim, rng, encoder=kind,
                     encoder_layers=cfg.encoder_layers,
                     decoder_propagation=cfg.decoder_propagation,
                     gat_heads=cfg.gat_heads)
                for _ in range(num_relations)
            ])

        self.attr = bank("gat")       # original view, attribute GMAE (W_enc1)
        self.struct = bank("gat")     # original view, structure GMAE (W_enc2)
        self.attr_aug = bank("sgc")   # attribute-level augmented view (W_enc3)
        self.sub_aug = bank("sgc")    # subgraph-level augmented view
        # Learnable relation-fusion weights, initialised from a normal
        # distribution as in the paper, consumed through a softmax.
        self.a_raw = Parameter(init.normal((num_relations,), rng, std=0.1),
                               name="fusion.a")
        self.b_raw = Parameter(init.normal((num_relations,), rng, std=0.1),
                               name="fusion.b")


@dataclass
class _ViewPlan:
    """One view of a scoring pass, with its randomness already drawn."""

    attr_bank: Optional[ModuleList]     # None: no attribute term
    struct_bank: Optional[ModuleList]   # None: no structure term
    groups: Optional[List[np.ndarray]]  # mask groups; None under w/o M
    negatives: List[Optional[np.ndarray]]   # per relation; None = exact

    @property
    def attr_from_structure(self) -> bool:
        """w/o M on an augmented view: the attribute term reads the
        structure lane's unmasked pass of the same bank instead of running
        it again."""
        return self.groups is None and self.attr_bank is self.struct_bank


class UMGAD(BaseDetector):
    """Unsupervised Multiplex Graph Anomaly Detection.

    Usage::

        model = UMGAD(UMGADConfig(epochs=50))
        model.fit(graph)
        scores = model.decision_scores()
        predictions = model.predict()          # label-free threshold
    """

    def __init__(self, config: Optional[UMGADConfig] = None):
        self.config = config or UMGADConfig()
        self.networks: Optional[_Networks] = None
        self.loss_history: List[float] = []
        self.loss_components: List[Dict[str, float]] = []
        self.train_state: Optional[TrainState] = None
        self.timer = Timer()
        self._scores: Optional[np.ndarray] = None
        self._graph: Optional[MultiplexGraph] = None
        self._relation_names: Optional[List[str]] = None
        self._num_features: Optional[int] = None
        self._rng = ensure_rng(self.config.seed)
        self._inference_nets: Dict[np.dtype, _Networks] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, graph: MultiplexGraph, verbose: bool = False) -> "UMGAD":
        cfg = self.config
        self._graph = graph
        self._relation_names = graph.relation_names
        self._num_features = graph.num_features
        self._rng = ensure_rng(cfg.seed)
        self.networks = _Networks(graph.num_relations, graph.num_features, cfg,
                                  self._rng)
        self._inference_nets = {}
        optimizer = Adam(self.networks.parameters(), lr=cfg.learning_rate,
                         weight_decay=cfg.weight_decay)

        callbacks = []
        if cfg.grad_clip:
            callbacks.append(GradClip(cfg.grad_clip))
        if verbose:
            callbacks.append(ProgressLogger(every=max(1, cfg.epochs // 10)))
        if cfg.early_stop_patience:
            callbacks.append(EarlyStopping(cfg.early_stop_patience,
                                           cfg.early_stop_min_delta,
                                           verbose=verbose))
        trainer = Trainer(
            self.networks, optimizer,
            batch_strategy=make_batch_strategy(
                cfg.batch, batch_size=cfg.batch_size,
                batches_per_epoch=cfg.batches_per_epoch,
                walk_size=cfg.batch_walk_size, restart_prob=cfg.rwr_restart,
                seed=cfg.seed),
            callbacks=callbacks, timer=self.timer)
        state = trainer.fit(graph, lambda batch: self._epoch_loss(batch.graph),
                            cfg.epochs)
        self.train_state = state
        self.loss_history = state.loss_history
        self.loss_components = state.loss_components

        # The training graph is scored at the weights' own dtype, so the
        # fitted scores do not depend on score_graph's inference precision.
        nets = self._inference_networks(self.networks.a_raw.data.dtype)
        with self.timer.measure("scoring"):
            self._scores = self._compute_scores(graph, graph.x, nets,
                                                self._rng)
        return self

    # ------------------------------------------------------------------
    def _relation_list(self, graph: MultiplexGraph):
        return [graph[name] for name in graph.relation_names]

    def _fusion_weights(self, raw: Parameter) -> Tensor:
        if self.config.relation_fusion == "uniform":
            n = raw.data.shape[0]
            return Tensor(np.full(n, 1.0 / n))
        return ops.softmax(raw, axis=-1)

    def _fuse(self, recons: List[Tensor], weights: Tensor) -> Tensor:
        """Eq. 3 / 12: ``Σ_r a_r X^{r}`` with learnable (softmaxed) weights."""
        fused = None
        for r, rec in enumerate(recons):
            term = ops.mul(rec, ops.index(weights, r))
            fused = term if fused is None else ops.add(fused, term)
        return fused

    # ------------------------------------------------------------------
    def _epoch_loss(self, graph: MultiplexGraph) -> Tuple[Tensor, Dict[str, float]]:
        cfg = self.config
        rng = self._rng
        nets = self.networks
        x = Tensor(graph.x)
        relations = self._relation_list(graph)
        n = graph.num_nodes

        a_w = self._fusion_weights(nets.a_raw)
        b_w = self._fusion_weights(nets.b_raw)

        total = Tensor(0.0)
        parts: Dict[str, float] = {}
        z_ma = z_aa = z_sa = None

        want_attr = cfg.mode in ("full", "att")
        want_struct = cfg.mode in ("full", "str")
        want_sub = cfg.mode in ("full", "sub", "str")

        # ---------------- Original view (Sec. IV-A) ----------------
        if cfg.use_original and (want_attr or want_struct):
            loss_attr = Tensor(0.0)
            loss_struct = Tensor(0.0)
            fused_accum = None
            for _k in range(cfg.mask_repeats):
                if want_attr:
                    mask = (attribute_mask(n, cfg.mask_ratio, rng).nodes
                            if cfg.use_mask else np.empty(0, dtype=np.int64))
                    recons = [nets.attr[r].forward(x, rel, masked_nodes=mask)
                              for r, rel in enumerate(relations)]
                    fused = self._fuse(recons, a_w)
                    target_nodes = mask if cfg.use_mask else np.arange(n)
                    loss_attr = ops.add(
                        loss_attr,
                        scaled_cosine_error(fused, x, target_nodes, cfg.eta))
                    fused_accum = fused if fused_accum is None else ops.add(fused_accum, fused)
                if want_struct:
                    for r, rel in enumerate(relations):
                        if cfg.use_mask:
                            em = edge_mask(rel, cfg.mask_ratio, rng)
                            remaining, targets = em.remaining, em.masked_edges
                        else:
                            remaining = rel
                            idx = rng.choice(max(rel.num_edges, 1),
                                             size=max(1, int(rel.num_edges * cfg.mask_ratio)))
                            targets = rel.edges[idx % max(rel.num_edges, 1)] \
                                if rel.num_edges else np.empty((0, 2), dtype=np.int64)
                        decoded = nets.struct[r].forward(x, remaining)
                        rel_loss = masked_edge_loss(
                            decoded, targets, n, rng,
                            negative_samples=cfg.negative_samples,
                            temperature=cfg.contrast_temperature)
                        loss_struct = ops.add(
                            loss_struct, ops.mul(rel_loss, ops.index(b_w, r)))
            if want_attr and want_struct:
                orig = ops.add(ops.mul(loss_attr, cfg.alpha),
                               ops.mul(loss_struct, 1.0 - cfg.alpha))
            elif want_attr:
                orig = loss_attr
            else:
                orig = loss_struct
            total = ops.add(total, orig)
            parts["L_O"] = float(orig.data)
            if fused_accum is not None:
                z_ma = ops.div(fused_accum, float(cfg.mask_repeats))

        # -------- Attribute-level augmented view (Sec. IV-B1) --------
        if cfg.use_augmented and cfg.use_attr_aug and want_attr:
            loss_aug = Tensor(0.0)
            fused_accum = None
            for _k in range(cfg.mask_repeats):
                x_swapped, swapped = attribute_swap(graph.x, cfg.swap_ratio, rng)
                x_aug = Tensor(x_swapped)
                mask = swapped if cfg.use_mask else np.empty(0, dtype=np.int64)
                recons = [nets.attr_aug[r].forward(x_aug, rel, masked_nodes=mask)
                          for r, rel in enumerate(relations)]
                fused = self._fuse(recons, a_w)
                # Eq. 13: reconstruction is compared against the ORIGINAL
                # attributes of the swapped nodes.
                loss_aug = ops.add(
                    loss_aug, scaled_cosine_error(fused, x, swapped, cfg.eta))
                fused_accum = fused if fused_accum is None else ops.add(fused_accum, fused)
            total = ops.add(total, ops.mul(loss_aug, cfg.lam))
            parts["L_A_Aug"] = float(loss_aug.data)
            z_aa = ops.div(fused_accum, float(cfg.mask_repeats))

        # -------- Subgraph-level augmented view (Sec. IV-B2) --------
        if cfg.use_augmented and cfg.use_subgraph_aug and want_sub:
            loss_sa = Tensor(0.0)
            loss_ss = Tensor(0.0)
            fused_accum = None
            for _k in range(cfg.mask_repeats):
                recons = []
                union_nodes: List[np.ndarray] = []
                for r, rel in enumerate(relations):
                    sm = subgraph_mask(rel, cfg.num_subgraphs, cfg.subgraph_size,
                                       rng, restart_prob=cfg.rwr_restart)
                    if cfg.use_mask:
                        masked_nodes = sm.nodes
                        remaining = sm.remaining
                    else:
                        masked_nodes = np.empty(0, dtype=np.int64)
                        remaining = rel
                    decoded = nets.sub_aug[r].forward(x, remaining,
                                                      masked_nodes=masked_nodes)
                    recons.append(decoded)
                    union_nodes.append(sm.nodes)
                    if cfg.mode != "att":
                        rel_loss = masked_edge_loss(
                            decoded, sm.masked_edges, n, rng,
                            negative_samples=cfg.negative_samples,
                            temperature=cfg.contrast_temperature)
                        loss_ss = ops.add(
                            loss_ss, ops.mul(rel_loss, ops.index(b_w, r)))
                fused = self._fuse(recons, a_w)
                nodes = np.unique(np.concatenate(union_nodes))
                loss_sa = ops.add(
                    loss_sa, scaled_cosine_error(fused, x, nodes, cfg.eta))
                fused_accum = fused if fused_accum is None else ops.add(fused_accum, fused)
            sub = ops.add(ops.mul(loss_sa, cfg.beta),
                          ops.mul(loss_ss, 1.0 - cfg.beta))
            total = ops.add(total, ops.mul(sub, cfg.mu))
            parts["L_S_Aug"] = float(sub.data)
            z_sa = ops.div(fused_accum, float(cfg.mask_repeats))

        # -------- Dual-view contrastive learning (Sec. IV-C) --------
        if cfg.use_contrastive and z_ma is not None and (z_aa is not None
                                                         or z_sa is not None):
            loss_cl = Tensor(0.0)
            if z_aa is not None:
                loss_cl = ops.add(loss_cl, dual_view_contrastive(
                    z_ma, z_aa, rng, temperature=cfg.contrast_temperature))
            if z_sa is not None:
                loss_cl = ops.add(loss_cl, dual_view_contrastive(
                    z_ma, z_sa, rng, temperature=cfg.contrast_temperature))
            total = ops.add(total, ops.mul(loss_cl, cfg.theta))
            parts["L_CL"] = float(loss_cl.data)

        return total, parts

    # ------------------------------------------------------------------
    # Scoring (Eq. 19)
    # ------------------------------------------------------------------
    def _inference_networks(self, dtype) -> _Networks:
        """Eval-mode copy of the networks with every weight in ``dtype``.

        Built lazily once per dtype and shared by every scoring pass at
        that precision, so no pass toggles ``train()``/``eval()`` on the
        live networks. Weights already in ``dtype`` are aliased, not
        copied. Dropped whenever the weights change (:meth:`fit`,
        :meth:`load_state_dict`, :meth:`build_networks`); never serialized.
        """
        dtype = np.dtype(dtype)
        nets = self._inference_nets.get(dtype)
        if nets is None:
            nets = copy.deepcopy(self.networks)
            for live, cast in zip(self.networks.parameters(),
                                  nets.parameters()):
                cast.data = live.data.astype(dtype, copy=False)
                cast.grad = None
            nets.eval()
            nets = self._inference_nets.setdefault(dtype, nets)
        return nets

    def _eval_fusion_weights(self, nets: Optional[_Networks] = None
                             ) -> np.ndarray:
        """Softmaxed ``a_r`` of ``nets`` (default: the live networks), in
        their weights' dtype."""
        raw = (self.networks if nets is None else nets).a_raw.data
        if self.config.relation_fusion == "uniform":
            return np.full(raw.shape[0], 1.0 / raw.shape[0], dtype=raw.dtype)
        weights = np.exp(raw - raw.max())
        return weights / weights.sum()

    def _fused_eval_recon(self, bank: ModuleList, graph: MultiplexGraph,
                          x: np.ndarray, weights: np.ndarray):
        """Mask-free reconstruction pass; returns (fused, per-relation).

        ``x`` is ``graph``'s attribute matrix in the pass dtype and
        ``weights`` the fusion weights (:meth:`_eval_fusion_weights`).
        Consumes no RNG.
        """
        with span("score.fused_pass") as sp:
            inputs = Tensor(x)
            relations = self._relation_list(graph)
            sp.set("relations", len(relations))
            per_rel = []
            fused = np.zeros_like(x)
            for r, rel in enumerate(relations):
                rec = bank[r].forward(inputs, rel).data
                per_rel.append(rec)
                fused += weights[r] * rec
        return fused, per_rel

    def _mask_groups(self, num_nodes: int, rng: np.random.Generator
                     ) -> Optional[List[np.ndarray]]:
        """The ``ceil(1/r_m)`` disjoint mask groups of one masked
        reconstruction, drawn from ``rng``; None (and no draw) when masking
        is ablated (w/o M)."""
        if not self.config.use_mask:
            return None
        num_groups = max(2, int(np.ceil(1.0 / self.config.mask_ratio)))
        perm = rng.permutation(num_nodes)
        return [g for g in np.array_split(perm, num_groups) if g.size]

    def _masked_eval_recon(self, bank: ModuleList, graph: MultiplexGraph,
                           x: np.ndarray, weights: np.ndarray,
                           groups: Optional[List[np.ndarray]],
                           workspace: Optional[dict] = None) -> np.ndarray:
        """Imputation-style reconstruction for scoring; returns the fused
        ``(n, f)`` reconstruction.

        Each of ``groups`` (:meth:`_mask_groups`) is [MASK]ed in turn and
        its rows are reconstructed from context only. This matches the
        training distribution of the GMAE — an unmasked pass lets the
        autoencoder copy its input, flattening the anomaly signal. With
        ``groups`` None (masking ablated, w/o M) this is the unmasked
        pass, which is exactly that variant's point.

        All groups of a relation run as one stacked forward
        (:meth:`~repro.core.gmae.GMAE.impute_grouped`), so the call must
        run under :func:`~repro.autograd.no_grad`. ``workspace`` holds the
        stacked forward's scratch buffers across the calls of one pass.
        """
        if groups is None:
            return self._fused_eval_recon(bank, graph, x, weights)[0]
        with span("score.masked_group") as sp:
            inputs = Tensor(x)
            relations = self._relation_list(graph)
            sp.set("groups", len(groups))
            sp.set("relations", len(relations))

            # Degree-aware fusion: a masked node can only be imputed from
            # relations where it actually has neighbors — fusing in a
            # neighbor-less relation's output injects pure mask-token noise
            # (this dominates on sparse graphs like DG-Fin). Rows with no
            # neighbors anywhere fall back to the unweighted mean so their
            # score is driven by the structure term instead.
            avail = np.stack([rel.degrees() > 0 for rel in relations], axis=1)
            w_matrix = avail * weights[None, :]
            row_sum = w_matrix.sum(axis=1, keepdims=True)
            no_context = row_sum.ravel() <= 0
            w_matrix[no_context] = 1.0 / len(relations)
            row_sum = w_matrix.sum(axis=1, keepdims=True)
            w_matrix = w_matrix / row_sum

            # each relation's imputation is fused as soon as it exists, so
            # only one is alive at a time
            fused = np.zeros_like(x)
            for r, rel in enumerate(relations):
                fused += w_matrix[:, r:r + 1] * bank[r].impute_grouped(
                    inputs, rel, groups, workspace)
            return fused

    def _attribute_errors(self, graph: MultiplexGraph, x: np.ndarray,
                          fused: np.ndarray) -> np.ndarray:
        """Eq. 19's attribute term of one view."""
        with span("score.attributes"):
            attr_err = attribute_errors(fused, x,
                                        metric=self.config.attr_score_metric)
            # A node with no neighbors in any relation has no imputation
            # context: its "reconstruction" is mask-token noise, not
            # evidence. Neutralise those to the median so isolated normal
            # nodes (common on sparse graphs) don't flood the top ranks.
            has_context = np.zeros(graph.num_nodes, dtype=bool)
            for rel in self._relation_list(graph):
                has_context |= rel.degrees() > 0
            if has_context.any() and (~has_context).any():
                attr_err[~has_context] = np.median(attr_err[has_context])
        return attr_err

    def _plan_pass(self, graph: MultiplexGraph, nets: _Networks,
                   rng: np.random.Generator, dtype) -> List[_ViewPlan]:
        """Draw all of a pass's randomness and build its shared operators.

        Views come in Eq. 19's order (original, attribute-augmented,
        subgraph-augmented), each drawing its mask permutation and then
        one negative sample per relation, so ``rng`` is consumed exactly
        as a view-by-view pass consumed it. Every view draws its
        permutation, even one whose attribute term the mode drops, because
        the view-by-view pass did. The operators both lanes read are built
        here, so no graph cache is filled by two threads.
        """
        cfg = self.config
        include_attr = cfg.mode in ("full", "att")
        include_struct = cfg.mode in ("full", "str", "sub")
        banks = []   # (attribute bank, structure bank or None) per view
        if cfg.use_original and cfg.mode != "sub":
            # the structure term reads the structure-GMAE's full-graph
            # decode (edge prediction needs full context)
            banks.append((nets.attr, nets.struct if include_struct else None))
        if cfg.use_augmented and cfg.use_attr_aug and \
                cfg.mode in ("full", "att"):
            banks.append((nets.attr_aug,
                          nets.attr_aug if cfg.mode == "full" else None))
        if cfg.use_augmented and cfg.use_subgraph_aug and include_struct:
            banks.append((nets.sub_aug, nets.sub_aug))

        relations = self._relation_list(graph)
        n = graph.num_nodes
        sampled = resolve_structure_mode(
            cfg.structure_score_mode, n,
            cfg.exact_score_max_nodes) == "sampled"
        views = []
        for attr_bank, struct_bank in banks:
            groups = self._mask_groups(n, rng)
            negatives = []
            if struct_bank is not None:
                negatives = [draw_negatives(rng, n,
                                            cfg.structure_score_negatives)
                             if sampled else None for _ in relations]
            views.append(_ViewPlan(attr_bank if include_attr else None,
                                   struct_bank, groups, negatives))

        gat_loops = {layer.add_self_loops
                     for view in views
                     for bank in (view.attr_bank, view.struct_bank)
                     if bank is not None
                     for gmae in bank if gmae.kind == "gat"
                     for layer in gmae.encoder}
        for rel in relations:
            rel.degrees()
            rel.sym_propagator(dtype=dtype)   # also adjacency + pairs
            for loops in gat_loops:
                rel.gat_scatter(1, loops)
        return views

    def _attribute_lane(self, graph: MultiplexGraph, x: np.ndarray,
                        views: List[_ViewPlan], weights: np.ndarray
                        ) -> List[Optional[np.ndarray]]:
        """Attribute term of every view (None where the view has none, or
        :attr:`_ViewPlan.attr_from_structure`)."""
        workspace: dict = {}
        errors = []
        for view in views:
            if view.attr_bank is None or view.attr_from_structure:
                errors.append(None)
                continue
            fused = self._masked_eval_recon(view.attr_bank, graph, x, weights,
                                            view.groups, workspace)
            errors.append(self._attribute_errors(graph, x, fused))
        return errors

    def _structure_lane(self, graph: MultiplexGraph, x: np.ndarray,
                        views: List[_ViewPlan], weights: np.ndarray
                        ) -> List[Tuple[Optional[np.ndarray],
                                        List[np.ndarray]]]:
        """Structure term of every view: (the unmasked fused
        reconstruction where :attr:`_ViewPlan.attr_from_structure`, else
        None; per-relation errors). Runs on the pass's helper thread."""
        relations = self._relation_list(graph)
        out = []
        with no_grad():
            for view in views:
                if view.struct_bank is None:
                    out.append((None, []))
                    continue
                fused, per_rel = self._fused_eval_recon(view.struct_bank,
                                                        graph, x, weights)
                with span("score.structure") as sp:
                    sp.set("relations", len(relations))
                    errs = [structure_errors_from(decoded, rel, negatives)
                            for rel, decoded, negatives
                            in zip(relations, per_rel, view.negatives)]
                out.append((fused if view.attr_from_structure else None,
                            errs))
        return out

    def _compute_scores(self, graph: MultiplexGraph, x: np.ndarray,
                        nets: _Networks,
                        rng: np.random.Generator) -> np.ndarray:
        """Eq. 19 over the configured views.

        Writes no detector state: it reads ``x`` (``graph``'s attributes
        in the pass dtype) and ``nets`` (an :meth:`_inference_networks`
        copy), advances only ``rng``, and fills only ``graph``'s
        idempotent operator caches. :meth:`_plan_pass` first draws all
        of the pass's randomness; then the two halves of Eq. 19, which
        share nothing given those draws, run at once: the calling thread
        computes every view's attribute term while one helper thread
        computes every structure term. Both run under ``no_grad()``
        (tape-free forwards, CSR attention kernels, stacked mask groups)
        and single-threaded BLAS, and the helper is joined before the pass
        leaves either. ``tests/fixtures/score_parity.json`` pins the
        resulting scores.
        """
        weights = self._eval_fusion_weights(nets)
        with no_grad(), single_threaded_blas():
            with span("score.view") as sp:
                views = self._plan_pass(graph, nets, rng, x.dtype)
                sp.set("views", len(views))
                structure: list = []
                failure: list = []

                def lane() -> None:
                    try:
                        structure.extend(self._structure_lane(
                            graph, x, views, weights))
                    except BaseException as exc:   # re-raised after join
                        failure.append(exc)

                helper = threading.Thread(
                    target=contextvars.copy_context().run, args=(lane,),
                    name="umgad-structure-lane", daemon=True)
                helper.start()
                try:
                    attr_errs = self._attribute_lane(graph, x, views,
                                                     weights)
                finally:
                    helper.join()
                if failure:
                    raise failure[0]
                scores = []
                for view, attr_err, (fused, struct_errs) in zip(
                        views, attr_errs, structure):
                    if view.attr_from_structure:
                        attr_err = self._attribute_errors(graph, x, fused)
                    scores.append(combine_view_score(
                        attr_err, struct_errs, self.config.epsilon))

        if not scores:
            raise RuntimeError(
                "configuration disables every view; nothing to score")
        with span("score.aggregate") as sp:
            sp.set("views", len(scores))
            return np.mean(scores, axis=0)

    # ------------------------------------------------------------------
    @property
    def relation_importance(self) -> Dict[str, float]:
        """Learned attribute-fusion weights per relation (softmaxed a_r)."""
        if self.networks is None or self._relation_names is None:
            raise RuntimeError("fit() the model first")
        weights = self._eval_fusion_weights()
        return dict(zip(self._relation_names, weights.tolist()))

    # ------------------------------------------------------------------
    # Persistence + serving (repro.serve)
    # ------------------------------------------------------------------
    def build_networks(self, relation_names: List[str],
                       num_features: int) -> "UMGAD":
        """Allocate untrained networks with the right shapes.

        Used by checkpoint loading: the freshly initialised weights are
        immediately overwritten by :meth:`load_state_dict`, so only the
        shapes (relation count, feature dim) matter here.
        """
        self._relation_names = list(relation_names)
        self._num_features = int(num_features)
        self.networks = _Networks(len(self._relation_names), self._num_features,
                                  self.config, ensure_rng(self.config.seed))
        self._inference_nets = {}
        return self

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name → array dict of every trainable parameter."""
        if self.networks is None:
            raise RuntimeError("fit() the model before taking a state dict")
        return self.networks.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray],
                        copy: bool = True) -> None:
        """Strictly load arrays produced by :meth:`state_dict`.

        ``copy=False`` aliases the arrays (shared-memory serving tier).
        """
        if self.networks is None:
            raise RuntimeError(
                "allocate networks first (fit() or build_networks())")
        self.networks.load_state_dict(state, copy=copy)
        self._inference_nets = {}

    def score_graph(self, graph: MultiplexGraph, seed: Optional[int] = None,
                    dtype=np.float32) -> np.ndarray:
        """Score a graph with the trained networks, without refitting.

        Unlike the scores cached by :meth:`fit`, this pass seeds a fresh
        generator (``seed`` or ``config.seed``) so repeated calls — and
        calls on a checkpoint-loaded copy of the model — produce bitwise
        identical results for the same graph.

        The pass runs in ``dtype`` from input to output: ``graph.x`` is
        cast once, the weights come from a cached cast copy and the
        operators from ``graph``'s per-dtype caches. It never reads or
        sets the autograd default dtype. float32 (the default) agrees
        with float64 to within 1e-6 per score and ranks the top nodes
        the same, at about 60% of the cost on 4k-node graphs;
        ``dtype=np.float64`` reproduces the precision :meth:`fit` scores
        at. Scores come back float64 either way (min–max normalisation
        runs in float64).
        """
        if self.networks is None:
            raise RuntimeError("fit() or load a checkpoint before scoring")
        if self._num_features is not None and \
                graph.num_features != self._num_features:
            raise ValueError(
                f"graph has {graph.num_features} features, model was trained "
                f"with {self._num_features}")
        if self._relation_names is not None and \
                graph.num_relations != len(self._relation_names):
            raise ValueError(
                f"graph has {graph.num_relations} relations, model was "
                f"trained with {len(self._relation_names)}")
        nets = self._inference_networks(dtype)
        rng = ensure_rng(self.config.seed if seed is None else seed)
        return self._compute_scores(graph, graph.x.astype(dtype, copy=False),
                                    nets, rng)
