"""Figure 6 — accuracy vs efficiency trade-off of pruned UMGAD variants.

Variants: ``Att`` (attribute reconstruction only), ``Str`` (structure
only), ``Sub`` (subgraph mechanism only) against the full model — each
evaluated on datasets injected with *only* the matching anomaly type, as in
the paper: pruning the model for the anomaly type at hand buys runtime
without giving up much accuracy.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..anomalies import inject_attribute_anomalies, inject_structural_anomalies
from ..core import UMGAD
from ..datasets.registry import _load_injected  # reuse the clean generator path
from ..eval.metrics import roc_auc
from ..graphs.generators import behavior_multiplex
from ..utils.rng import ensure_rng
from .common import ExperimentProfile, umgad_config

import numpy as np

VARIANTS = ("full", "att", "str", "sub")


def _clean_behavior_graph(profile: ExperimentProfile, base_nodes: int):
    rng = ensure_rng(profile.data_seed)
    n = max(400, int(round(base_nodes * profile.dataset_scale)))
    num_users = int(n * 0.7)
    counts = {"View": int(n * 2.4), "Cart": int(n * 0.4), "Buy": int(n * 0.3)}
    return behavior_multiplex(num_users, n - num_users, counts,
                              profile.num_features, rng), rng


def _make_attr_only(profile: ExperimentProfile, base_nodes: int):
    graph, rng = _clean_behavior_graph(profile, base_nodes)
    count = max(10, graph.num_nodes // 100)
    graph, nodes = inject_attribute_anomalies(graph, count, rng)
    labels = np.zeros(graph.num_nodes, dtype=np.int64)
    labels[nodes] = 1
    return graph, labels


def _make_struct_only(profile: ExperimentProfile, base_nodes: int):
    graph, rng = _clean_behavior_graph(profile, base_nodes)
    num_cliques = max(2, graph.num_nodes // 500)
    graph, nodes, _, _ = inject_structural_anomalies(graph, 5, num_cliques, rng)
    labels = np.zeros(graph.num_nodes, dtype=np.int64)
    labels[nodes] = 1
    return graph, labels


def run(profile: ExperimentProfile,
        datasets: Optional[List[str]] = None) -> List[Dict]:
    datasets = list(datasets or ["retail", "alibaba"])
    base_nodes = {"retail": 3_200, "alibaba": 2_300}
    rows: List[Dict] = []
    for ds_name in datasets:
        nodes = base_nodes.get(ds_name, 2_000)
        for anomaly_kind, maker in (("attribute", _make_attr_only),
                                    ("structural", _make_struct_only)):
            graph, labels = maker(profile, nodes)
            for variant in VARIANTS:
                cfg = umgad_config(ds_name, profile, mode=variant,
                                   seed=profile.seeds[0])
                start = time.perf_counter()
                model = UMGAD(cfg).fit(graph)
                elapsed = time.perf_counter() - start
                rows.append({
                    "dataset": ds_name,
                    "anomaly_kind": anomaly_kind,
                    "variant": variant,
                    "auc": roc_auc(labels, model.decision_scores()),
                    "runtime_s": elapsed,
                })
    return rows


def render(rows: List[Dict], timings: bool = True) -> str:
    """The Fig. 6 table; ``timings=False`` drops the wall-clock column."""
    runtime = f" {'runtime(s)':>11s}" if timings else ""
    lines = [f"{'dataset':10s} {'anomalies':11s} {'variant':8s} "
             f"{'AUC':>7s}{runtime}"]
    for r in rows:
        runtime = f" {r['runtime_s']:11.2f}" if timings else ""
        lines.append(
            f"{r['dataset']:10s} {r['anomaly_kind']:11s} {r['variant']:8s} "
            f"{r['auc']:7.3f}{runtime}"
        )
    return "\n".join(lines)
