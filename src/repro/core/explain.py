"""Per-node anomaly explanations.

The paper reports a single scalar score per node; a production deployment
needs to answer *why* a node was flagged. This module decomposes a fitted
UMGAD model's score into interpretable evidence:

* attribute evidence — the masked-imputation residual, with the most
  deviating feature dimensions;
* structure evidence — per-relation reconstruction error of the node's
  adjacency row;
* relation attribution — which relations (weighted by the learned a_r)
  carried the signal;
* nearest normal behaviour — how far the node's imputed attributes sit
  from its actual attributes relative to the population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..autograd import no_grad
from ..graphs.multiplex import MultiplexGraph
from ..utils.rng import ensure_rng
from .model import UMGAD
from .scoring import attribute_errors, structure_errors


@dataclass(frozen=True)
class Explanation:
    """Evidence for one node's anomaly score."""

    node: int
    score: float
    score_percentile: float
    attribute_error: float
    attribute_percentile: float
    structure_errors: Dict[str, float]
    structure_percentiles: Dict[str, float]
    top_deviant_features: List[int]
    relation_weights: Dict[str, float]

    def summary(self) -> str:
        """One-paragraph human-readable explanation."""
        lines = [
            f"node {self.node}: score {self.score:.4f} "
            f"(p{self.score_percentile:.0f} of all nodes)",
            f"  attribute residual {self.attribute_error:.4f} "
            f"(p{self.attribute_percentile:.0f}); most deviant feature dims: "
            f"{self.top_deviant_features}",
        ]
        for rel, err in self.structure_errors.items():
            lines.append(
                f"  structure[{rel}] error {err:.4f} "
                f"(p{self.structure_percentiles[rel]:.0f}, "
                f"fusion weight {self.relation_weights[rel]:.2f})")
        return "\n".join(lines)


class AnomalyExplainer:
    """Decompose a fitted UMGAD model's scores into per-node evidence.

    Usage::

        explainer = AnomalyExplainer(model, graph)
        print(explainer.explain(worst_node).summary())
    """

    def __init__(self, model: UMGAD, graph: MultiplexGraph,
                 scores: Optional[np.ndarray] = None):
        if model.networks is None:
            raise RuntimeError("fit the model before explaining")
        self.model = model
        self.graph = graph
        # ``scores`` lets the serving layer explain a graph other than the
        # training graph (whose scores are what decision_scores() returns).
        self._scores_override = scores
        self._prepare()

    def _prepare(self) -> None:
        model, graph = self.model, self.graph
        cfg = model.config
        # Like score_graph, a pure function of (weights, graph, seed): the
        # eval-mode inference copy at the weights' own dtype and a fresh
        # generator, so explaining one graph never shifts the evidence
        # reported for another. no_grad: tape-free forwards through the
        # same grad-free engine scoring uses.
        nets = model._inference_networks(model.networks.a_raw.data.dtype)
        weights = model._eval_fusion_weights(nets)
        rng = ensure_rng(cfg.seed)
        with no_grad():
            fused = model._masked_eval_recon(
                nets.attr, graph, graph.x, weights,
                model._mask_groups(graph.num_nodes, rng))
            _, per_rel = model._fused_eval_recon(nets.struct, graph, graph.x,
                                                 weights)
        self._fused = fused
        self._attr_err = attribute_errors(fused, graph.x,
                                          metric=cfg.attr_score_metric)
        self._struct_err = {}
        for name, decoded in zip(graph.relation_names, per_rel):
            self._struct_err[name] = structure_errors(
                decoded, graph[name], cfg.structure_score_mode, rng,
                negatives_per_node=cfg.structure_score_negatives,
                exact_max_nodes=cfg.exact_score_max_nodes)
        self._scores = (self._scores_override if self._scores_override
                        is not None else model.decision_scores())

    @staticmethod
    def _percentile(values: np.ndarray, value: float) -> float:
        return float(100.0 * (values < value).mean())

    def explain(self, node: int, top_features: int = 5) -> Explanation:
        """Build the evidence bundle for ``node``."""
        node = int(node)
        if not 0 <= node < self.graph.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.graph.num_nodes})")
        residual = np.abs(self._fused[node] - self.graph.x[node])
        deviant = np.argsort(-residual)[:top_features].tolist()
        struct = {name: float(err[node])
                  for name, err in self._struct_err.items()}
        struct_pct = {name: self._percentile(err, err[node])
                      for name, err in self._struct_err.items()}
        return Explanation(
            node=node,
            score=float(self._scores[node]),
            score_percentile=self._percentile(self._scores, self._scores[node]),
            attribute_error=float(self._attr_err[node]),
            attribute_percentile=self._percentile(self._attr_err,
                                                  self._attr_err[node]),
            structure_errors=struct,
            structure_percentiles=struct_pct,
            top_deviant_features=deviant,
            relation_weights=self.model.relation_importance,
        )

    def top_anomalies(self, k: int = 10) -> List[Explanation]:
        """Explanations for the ``k`` highest-scoring nodes."""
        order = np.argsort(-self._scores)[:k]
        return [self.explain(int(i)) for i in order]
