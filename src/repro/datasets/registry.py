"""Dataset registry: the paper's six evaluation datasets (scaled stand-ins).

Paper Table I statistics are encoded here verbatim; each builder generates a
synthetic multiplex graph whose node count, relation edge-count ratios and
anomaly rate follow the paper's numbers at a configurable ``scale`` (see
README, "Deviations from the paper", item 1).

For the two *injected-anomaly* datasets (Retail, Alibaba) the clean graph is
generated first and the Ding et al. protocol injects anomalies — exactly the
paper's pipeline. For the four *real-anomaly* datasets the generators plant
organic fraud rings at the paper's anomaly rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..anomalies.injection import InjectionReport, inject_anomalies
from ..graphs.generators import behavior_multiplex, review_multiplex, social_multiplex
from ..graphs.multiplex import MultiplexGraph
from ..utils.rng import ensure_rng

# Paper Table I, verbatim.
PAPER_STATS: Dict[str, dict] = {
    "retail": {
        "nodes": 32_287, "anomalies": 300, "kind": "injected",
        "relations": {"View": 75_374, "Cart": 12_456, "Buy": 9_551},
    },
    "alibaba": {
        "nodes": 22_649, "anomalies": 300, "kind": "injected",
        "relations": {"View": 34_933, "Cart": 6_230, "Buy": 4_571},
    },
    "amazon": {
        "nodes": 11_944, "anomalies": 821, "kind": "real",
        "relations": {"U-P-U": 175_608, "U-S-U": 3_566_479, "U-V-U": 1_036_737},
    },
    "yelpchi": {
        "nodes": 45_954, "anomalies": 6_674, "kind": "real",
        "relations": {"R-U-R": 49_315, "R-S-R": 3_402_743, "R-T-R": 573_616},
    },
    "dgfin": {
        "nodes": 3_700_550, "anomalies": 15_509, "kind": "real",
        "relations": {"U-C-U": 441_128, "U-B-U": 2_474_949, "U-R-U": 1_384_922},
    },
    "tsocial": {
        "nodes": 5_781_065, "anomalies": 174_010, "kind": "real",
        "relations": {"U-R-U": 67_732_284, "U-F-U": 3_025_679, "U-G-U": 2_347_545},
    },
}

SMALL_DATASETS = ("retail", "alibaba", "amazon", "yelpchi")
LARGE_DATASETS = ("dgfin", "tsocial")

# Default generated sizes (nodes) per dataset at scale=1.0 of *this repo*.
# These are laptop-budget sizes; the paper-to-repo node ratio is recorded in
# DatasetInfo so experiment output can state the substitution.
_BASE_NODES = {
    "retail": 3_200,
    "alibaba": 2_300,
    "amazon": 1_200,
    "yelpchi": 2_300,
    "dgfin": 12_000,
    "tsocial": 16_000,
}

# Average-degree cap for the hyper-dense review relations (see registry
# docstring): edges are scaled to preserve the paper's *ratios* between
# relations while keeping total degree tractable.
_DEGREE_CAP = 30.0


@dataclass
class DatasetInfo:
    """Metadata describing a generated dataset instance."""

    name: str
    kind: str  # "injected" | "real"
    num_nodes: int
    num_features: int
    relation_edges: Dict[str, int]
    num_anomalies: int
    paper_nodes: int
    paper_anomalies: int
    paper_relation_edges: Dict[str, int]
    seed: Optional[int] = None

    @property
    def anomaly_rate(self) -> float:
        return self.num_anomalies / max(self.num_nodes, 1)


@dataclass
class Dataset:
    """A generated dataset: graph, binary anomaly labels, metadata."""

    graph: MultiplexGraph
    labels: np.ndarray
    info: DatasetInfo
    injection: Optional[InjectionReport] = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def num_anomalies(self) -> int:
        return int(self.labels.sum())


def _scaled_edge_counts(name: str, num_nodes: int) -> Dict[str, int]:
    """Scale paper edge counts to ``num_nodes`` preserving relation ratios.

    Sparse datasets keep the paper's average degree; hyper-dense ones
    (Amazon/YelpChi metadata relations) are capped at ``_DEGREE_CAP`` mean
    degree while preserving the ratio between relations.
    """
    stats = PAPER_STATS[name]
    paper_edges = np.array(list(stats["relations"].values()), dtype=np.float64)
    ratios = paper_edges / paper_edges.sum()
    paper_degree = 2.0 * paper_edges.sum() / stats["nodes"]
    degree = min(paper_degree, _DEGREE_CAP)
    total = degree * num_nodes / 2.0
    counts = np.maximum((ratios * total).astype(np.int64), 8)
    return dict(zip(stats["relations"].keys(), counts.tolist()))


def _make_info(name: str, graph: MultiplexGraph, labels: np.ndarray,
               seed: Optional[int]) -> DatasetInfo:
    stats = PAPER_STATS[name]
    return DatasetInfo(
        name=name,
        kind=stats["kind"],
        num_nodes=graph.num_nodes,
        num_features=graph.num_features,
        relation_edges={n: r.num_edges for n, r in graph.relations.items()},
        num_anomalies=int(labels.sum()),
        paper_nodes=stats["nodes"],
        paper_anomalies=stats["anomalies"],
        paper_relation_edges=dict(stats["relations"]),
        seed=seed,
    )


def _load_injected(name: str, scale: float, num_features: int, seed) -> Dataset:
    rng = ensure_rng(seed)
    stats = PAPER_STATS[name]
    n = max(400, int(round(_BASE_NODES[name] * scale)))
    counts = _scaled_edge_counts(name, n)
    num_users = int(n * 0.7)
    # Noise level keeps one-hop attribute inconsistency from being a
    # giveaway: real interaction graphs are only weakly homophilous.
    clean = behavior_multiplex(
        num_users=num_users,
        num_items=n - num_users,
        edge_counts=counts,
        num_features=num_features,
        rng=rng,
        noise=0.75,
    )
    # Paper injects 300 anomalies into ~32k/22k nodes; keep the same anomaly
    # *rate*, split half structural / half attribute via the Ding protocol.
    target = max(10, int(round(stats["anomalies"] / stats["nodes"] * n)))
    clique_size = 5
    num_cliques = max(1, (target // 2) // clique_size)
    attr_count = target - num_cliques * clique_size
    graph, labels, report = inject_anomalies(
        clean, clique_size=clique_size, num_cliques=num_cliques,
        attribute_count=max(attr_count, 1), rng=rng,
    )
    info = _make_info(name, graph, labels,
                      seed if isinstance(seed, int) else None)
    return Dataset(graph=graph, labels=labels, info=info, injection=report)


def _load_review(name: str, scale: float, num_features: int, seed) -> Dataset:
    rng = ensure_rng(seed)
    stats = PAPER_STATS[name]
    n = max(400, int(round(_BASE_NODES[name] * scale)))
    counts = _scaled_edge_counts(name, n)
    fraud_rate = stats["anomalies"] / stats["nodes"]
    graph, labels = review_multiplex(
        num_nodes=n,
        edge_counts=counts,
        num_features=num_features,
        fraud_rate=fraud_rate,
        rng=rng,
    )
    info = _make_info(name, graph, labels, seed if isinstance(seed, int) else None)
    return Dataset(graph=graph, labels=labels, info=info)


def _load_social(name: str, scale: float, num_features: int, seed) -> Dataset:
    rng = ensure_rng(seed)
    stats = PAPER_STATS[name]
    n = max(1_000, int(round(_BASE_NODES[name] * scale)))
    counts = _scaled_edge_counts(name, n)
    fraud_rate = stats["anomalies"] / stats["nodes"]
    # DG-Fin is sparse and extremely imbalanced — the hard setting is the
    # sparsity itself, so fraud camouflage stays moderate. T-Social is
    # dense, so difficulty comes from heavier attribute camouflage.
    camouflage = 0.45 if name == "dgfin" else 0.6
    graph, labels = social_multiplex(
        num_nodes=n,
        edge_counts=counts,
        num_features=num_features,
        fraud_rate=fraud_rate,
        rng=rng,
        camouflage=camouflage,
    )
    info = _make_info(name, graph, labels, seed if isinstance(seed, int) else None)
    return Dataset(graph=graph, labels=labels, info=info)


_LOADERS: Dict[str, Callable] = {
    "retail": _load_injected,
    "alibaba": _load_injected,
    "amazon": _load_review,
    "yelpchi": _load_review,
    "dgfin": _load_social,
    "tsocial": _load_social,
}


def available_datasets() -> List[str]:
    """Names accepted by :func:`load_dataset`."""
    return list(_LOADERS.keys())


def load_dataset(name: str, scale: float = 1.0, num_features: int = 32,
                 seed=0) -> Dataset:
    """Generate one of the six evaluation datasets.

    Parameters
    ----------
    name:
        One of ``retail, alibaba, amazon, yelpchi, dgfin, tsocial``.
    scale:
        Multiplier on this repo's base node count for the dataset (1.0 ≈
        a few thousand nodes for the small datasets; use <1 for fast tests).
    num_features:
        Attribute dimensionality ``f``.
    seed:
        Int seed or ``numpy.random.Generator``.
    """
    key = name.lower()
    if key not in _LOADERS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(_LOADERS)}"
        )
    return _LOADERS[key](key, scale, num_features, seed)
