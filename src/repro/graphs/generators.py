"""Synthetic multiplex-graph generators.

These are the data substrate standing in for the paper's six datasets (see
README, "Deviations from the paper", item 1). Three families mirror the
three kinds of networks the paper evaluates on:

* :func:`behavior_multiplex` — e-commerce user–item interaction graphs with
  nested View ⊃ Cart ⊃ Buy relations (Retail Rocket, Alibaba).
* :func:`review_multiplex` — review networks with one sparse co-activity
  relation, one very dense metadata relation and one similarity relation,
  plus *organic* fraud rings (Amazon, YelpChi).
* :func:`social_multiplex` — large sparse power-law social/financial graphs
  with extreme anomaly imbalance (DGraph-Fin, T-Social).

All generators are fully vectorised, take an explicit RNG and return a
:class:`~repro.graphs.multiplex.MultiplexGraph` (plus fraud labels where the
generator plants organic anomalies).

Design of the "normality" model
-------------------------------
Nodes belong to latent communities; attributes are noisy copies of the
community centroid and edges form mostly within communities. This gives the
homophily that reconstruction-based detectors rely on, so that (a) injected
clique/attribute anomalies and (b) planted fraud rings are genuinely
anomalous relative to the learned normal structure — the same signal
structure the paper's datasets provide.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .graph import RelationGraph
from .multiplex import MultiplexGraph


def _community_features(
    communities: np.ndarray,
    num_communities: int,
    num_features: int,
    rng: np.random.Generator,
    noise: float = 0.35,
    centroid_scale: float = 1.0,
) -> np.ndarray:
    """Attributes = community centroid + isotropic noise."""
    centroids = rng.normal(0.0, centroid_scale, size=(num_communities, num_features))
    x = centroids[communities] + rng.normal(0.0, noise, size=(communities.size, num_features))
    return x


def _powerlaw_weights(n: int, rng: np.random.Generator, exponent: float = 1.6) -> np.ndarray:
    """Zipf-like popularity weights producing a heavy-tailed degree profile."""
    ranks = rng.permutation(n) + 1
    weights = ranks.astype(np.float64) ** (-exponent)
    return weights / weights.sum()


def _sample_pairs(
    count: int,
    src_pool: np.ndarray,
    dst_pool: np.ndarray,
    rng: np.random.Generator,
    src_weights: Optional[np.ndarray] = None,
    dst_weights: Optional[np.ndarray] = None,
    oversample: float = 1.4,
) -> np.ndarray:
    """Sample ~``count`` (src, dst) pairs with optional popularity weights.

    Oversamples then deduplicates, so the returned count is approximate —
    generators care about edge-density *ratios*, not exact counts.
    """
    if count <= 0 or src_pool.size == 0 or dst_pool.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    draw = int(count * oversample) + 1
    src = rng.choice(src_pool, size=draw, p=src_weights)
    dst = rng.choice(dst_pool, size=draw, p=dst_weights)
    pairs = np.stack([src, dst], axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return pairs[:count] if pairs.shape[0] > count else pairs


def _homophilous_edges(
    count: int,
    communities: np.ndarray,
    candidates: np.ndarray,
    rng: np.random.Generator,
    p_in: float = 0.85,
) -> np.ndarray:
    """Sample edges that stay within a community with probability ``p_in``."""
    if count <= 0 or candidates.size < 2:
        return np.empty((0, 2), dtype=np.int64)
    comm_of = communities[candidates]
    order = np.argsort(comm_of, kind="stable")
    sorted_nodes = candidates[order]
    sorted_comm = comm_of[order]
    boundaries = np.searchsorted(sorted_comm, np.arange(sorted_comm.max() + 2))

    n_in = int(count * p_in)
    n_out = count - n_in

    # Intra-community pairs: pick a community weighted by its size, then two
    # members of it.
    sizes = np.diff(boundaries)
    valid = np.flatnonzero(sizes >= 2)
    edges = []
    if valid.size and n_in > 0:
        probs = sizes[valid] / sizes[valid].sum()
        chosen = rng.choice(valid, size=n_in, p=probs)
        offsets_a = rng.random(n_in)
        offsets_b = rng.random(n_in)
        lo = boundaries[chosen]
        span = sizes[chosen]
        a = sorted_nodes[lo + (offsets_a * span).astype(np.int64)]
        b = sorted_nodes[lo + (offsets_b * span).astype(np.int64)]
        intra = np.stack([a, b], axis=1)
        edges.append(intra[intra[:, 0] != intra[:, 1]])

    if n_out > 0:
        inter = _sample_pairs(n_out, candidates, candidates, rng)
        edges.append(inter)

    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(edges, axis=0)


def _bipartite_homophilous(
    count: int,
    communities: np.ndarray,
    left_ids: np.ndarray,
    right_ids: np.ndarray,
    num_communities: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``count`` left–right pairs that share a community."""
    if count <= 0:
        return np.empty((0, 2), dtype=np.int64)
    left_by_comm = [left_ids[communities[left_ids] == c] for c in range(num_communities)]
    right_by_comm = [right_ids[communities[right_ids] == c] for c in range(num_communities)]
    sizes = np.array([
        len(l) * len(r) for l, r in zip(left_by_comm, right_by_comm)
    ], dtype=np.float64)
    if sizes.sum() == 0:
        return _sample_pairs(count, left_ids, right_ids, rng)
    probs = sizes / sizes.sum()
    chosen = rng.choice(num_communities, size=count, p=probs)
    pairs = np.empty((count, 2), dtype=np.int64)
    for c in range(num_communities):
        idx = np.flatnonzero(chosen == c)
        if idx.size == 0:
            continue
        pairs[idx, 0] = rng.choice(left_by_comm[c], size=idx.size)
        pairs[idx, 1] = rng.choice(right_by_comm[c], size=idx.size)
    return pairs


# ---------------------------------------------------------------------------
# E-commerce behaviour graphs (Retail Rocket / Alibaba analogues)
# ---------------------------------------------------------------------------

def behavior_multiplex(
    num_users: int,
    num_items: int,
    edge_counts: Dict[str, int],
    num_features: int,
    rng: np.random.Generator,
    num_communities: int = 12,
    noise: float = 0.35,
) -> MultiplexGraph:
    """User–item multiplex graph with nested behaviour relations.

    ``edge_counts`` maps relation names in *nesting order* (e.g. View, Cart,
    Buy) to target edge counts; each later relation is sampled mostly as a
    subset of the previous one (a user carts what they viewed, buys what
    they carted), matching the semantics of the Retail/Alibaba data.
    """
    n = num_users + num_items
    communities = np.concatenate([
        rng.integers(0, num_communities, size=num_users),
        rng.integers(0, num_communities, size=num_items),
    ])
    x = _community_features(communities, num_communities, num_features, rng, noise=noise)

    user_ids = np.arange(num_users)
    item_ids = num_users + np.arange(num_items)
    user_w = _powerlaw_weights(num_users, rng)
    item_w = _powerlaw_weights(num_items, rng)

    names = list(edge_counts.keys())
    relations: Dict[str, RelationGraph] = {}
    previous: Optional[np.ndarray] = None
    for name in names:
        count = edge_counts[name]
        if previous is None:
            # Base relation (View): casual browsing — only moderately
            # homophilous, with a large cross-community fraction. The
            # deeper relations (Cart, Buy) are intentional and therefore
            # far more reliable, giving the relations different utility
            # for anomaly detection (the paper's multiplex premise).
            n_in = int(count * 0.65)
            n_out = max(1, int(count * 0.55))
            intra = _bipartite_homophilous(n_in, communities, user_ids, item_ids,
                                           num_communities, rng)
            inter = _sample_pairs(n_out, user_ids, item_ids, rng,
                                  src_weights=user_w, dst_weights=item_w)
            pairs = np.concatenate([intra, inter], axis=0)
        else:
            # Nested relation: users cart/buy what matches their interest,
            # so subset sampling prefers the parent's *intra-community*
            # edges; a small fraction is fresh.
            n_subset = int(count * 0.9)
            n_fresh = count - n_subset
            same = communities[previous[:, 0]] == communities[previous[:, 1]]
            weights_sel = np.where(same, 10.0, 1.0)
            weights_sel = weights_sel / weights_sel.sum()
            take = rng.choice(previous.shape[0],
                              size=min(n_subset, previous.shape[0]),
                              replace=False, p=weights_sel)
            fresh = _sample_pairs(n_fresh, user_ids, item_ids, rng,
                                  src_weights=user_w, dst_weights=item_w)
            pairs = np.concatenate([previous[take], fresh], axis=0)
        relations[name] = RelationGraph(n, pairs, name=name)
        previous = relations[name].edges

    return MultiplexGraph(x=x, relations=relations)


# ---------------------------------------------------------------------------
# Review networks with organic fraud (Amazon / YelpChi analogues)
# ---------------------------------------------------------------------------

def review_multiplex(
    num_nodes: int,
    edge_counts: Dict[str, int],
    num_features: int,
    fraud_rate: float,
    rng: np.random.Generator,
    num_communities: int = 10,
    ring_size: int = 12,
    camouflage: float = 0.85,
    noise: float = 0.45,
) -> Tuple[MultiplexGraph, np.ndarray]:
    """Review network with planted fraud rings; returns (graph, labels).

    Fraudsters (``fraud_rate`` of nodes) are grouped into rings of
    ``ring_size``. Rings are densely connected *across all relations* and
    their attributes are a camouflaged mixture: ``camouflage`` parts the
    community profile they hide in, the rest a shared fraud profile. This is
    the organic analogue of the Amazon/YelpChi anomaly signal: dense,
    correlated, partially camouflaged minorities.
    """
    labels = np.zeros(num_nodes, dtype=np.int64)
    num_fraud = int(round(fraud_rate * num_nodes))
    fraud_ids = rng.choice(num_nodes, size=num_fraud, replace=False)
    labels[fraud_ids] = 1

    communities = rng.integers(0, num_communities, size=num_nodes)
    x = _community_features(communities, num_communities, num_features, rng, noise=noise)

    # Camouflaged fraud attributes: each fraudster keeps ``camouflage``
    # parts of its home-community profile and deviates in an *individual*
    # random direction — ring-mates do not share the deviation, so a fraud
    # node cannot be imputed from its neighborhood (the anomaly signal),
    # while still partially blending into its community (the camouflage).
    deviations = rng.normal(0.0, 1.2, size=(num_fraud, num_features))
    x[fraud_ids] = (camouflage * x[fraud_ids]
                    + (1.0 - camouflage) * deviations
                    + rng.normal(0.0, noise * 0.5, size=(num_fraud, num_features)))

    rings = [fraud_ids[i:i + ring_size] for i in range(0, num_fraud, ring_size)]

    all_ids = np.arange(num_nodes)
    normal_ids = np.flatnonzero(labels == 0)
    relations: Dict[str, RelationGraph] = {}
    # Relations differ in *reliability*, the paper's core multiplex premise:
    # co-review links are strongly homophilous, the dense same-star-rating
    # metadata relation is mostly noise (sharing a star rating carries
    # little signal), the similarity relation sits in between. Single-view
    # methods that merge all relations inherit the noise; multiplex methods
    # can learn to down-weight the unreliable relation.
    reliability = [0.85, 0.3, 0.65]
    for idx, (name, count) in enumerate(edge_counts.items()):
        p_in = reliability[min(idx, len(reliability) - 1)]
        background = _homophilous_edges(count, communities, all_ids, rng, p_in=p_in)

        # Fraud connectivity has two components, as in the real data:
        # (1) moderate intra-ring edges (coordinated activity), and
        # (2) many *camouflage* edges into random normal nodes (fraudsters
        # interact with victims across communities). The camouflage links
        # are what make fraud heterophilous — a fraudster's neighborhood is
        # mostly normal nodes whose attributes do not match its own.
        ring_edges = []
        intra_density = 0.35 if idx == 0 else 0.2
        out_degree = 6 if idx == 0 else 10
        for ring in rings:
            if ring.size < 2:
                continue
            iu, iv = np.triu_indices(ring.size, k=1)
            keep = rng.random(iu.size) < intra_density
            ring_edges.append(np.stack([ring[iu[keep]], ring[iv[keep]]], axis=1))
        if num_fraud and normal_ids.size:
            sources = np.repeat(fraud_ids, out_degree)
            victims = rng.choice(normal_ids, size=sources.size)
            ring_edges.append(np.stack([sources, victims], axis=1))
        parts = [background] + ring_edges
        relations[name] = RelationGraph(num_nodes, np.concatenate(parts, axis=0),
                                        name=name)

    return MultiplexGraph(x=x, relations=relations), labels


# ---------------------------------------------------------------------------
# Social / financial networks (DGraph-Fin / T-Social analogues)
# ---------------------------------------------------------------------------

def social_multiplex(
    num_nodes: int,
    edge_counts: Dict[str, int],
    num_features: int,
    fraud_rate: float,
    rng: np.random.Generator,
    num_communities: int = 25,
    ring_size: int = 8,
    camouflage: float = 0.5,
    noise: float = 0.4,
) -> Tuple[MultiplexGraph, np.ndarray]:
    """Large sparse power-law multiplex graph with extreme fraud imbalance.

    Heavier camouflage and sparser rings than :func:`review_multiplex` —
    matching the paper's observation that DG-Fin/T-Social are the hardest
    settings (absolute AUCs drop for every method).
    """
    labels = np.zeros(num_nodes, dtype=np.int64)
    num_fraud = max(ring_size, int(round(fraud_rate * num_nodes)))
    fraud_ids = rng.choice(num_nodes, size=num_fraud, replace=False)
    labels[fraud_ids] = 1

    communities = rng.integers(0, num_communities, size=num_nodes)
    x = _community_features(communities, num_communities, num_features, rng, noise=noise)
    # Individual camouflaged deviations (see review_multiplex).
    deviations = rng.normal(0.0, 1.2, size=(num_fraud, num_features))
    x[fraud_ids] = (camouflage * x[fraud_ids]
                    + (1.0 - camouflage) * deviations
                    + rng.normal(0.0, noise * 0.5, size=(num_fraud, num_features)))

    weights = _powerlaw_weights(num_nodes, rng, exponent=1.8)
    all_ids = np.arange(num_nodes)
    normal_ids = np.flatnonzero(labels == 0)
    rings = [fraud_ids[i:i + ring_size] for i in range(0, num_fraud, ring_size)]

    relations: Dict[str, RelationGraph] = {}
    # The huge base relation (friendship / U-R-U) is mostly preferential
    # attachment noise; the behavioural relations are homophilous — again
    # giving the relations different reliability.
    powerlaw_fraction = [0.8, 0.3, 0.3]
    for idx, (name, count) in enumerate(edge_counts.items()):
        frac = powerlaw_fraction[min(idx, len(powerlaw_fraction) - 1)]
        n_pow = int(count * frac)
        n_hom = count - n_pow
        powerlaw = _sample_pairs(n_pow, all_ids, all_ids, rng,
                                 src_weights=weights, dst_weights=weights)
        homophilous = _homophilous_edges(n_hom, communities, all_ids, rng, p_in=0.85)
        ring_edges = []
        # Fraud rings concentrate in the *later* (behavioural) relations,
        # like U-F-U fraud links in T-Social; camouflage links to normal
        # victims make fraud neighborhoods heterophilous.
        density = 0.25 if idx == 0 else 0.5
        out_degree = 3 if idx == 0 else 5
        for ring in rings:
            if ring.size < 2:
                continue
            iu, iv = np.triu_indices(ring.size, k=1)
            keep = rng.random(iu.size) < density
            ring_edges.append(np.stack([ring[iu[keep]], ring[iv[keep]]], axis=1))
        if num_fraud and normal_ids.size:
            sources = np.repeat(fraud_ids, out_degree)
            victims = rng.choice(normal_ids, size=sources.size)
            ring_edges.append(np.stack([sources, victims], axis=1))
        parts = [powerlaw, homophilous] + ring_edges
        relations[name] = RelationGraph(num_nodes, np.concatenate(parts, axis=0),
                                        name=name)

    return MultiplexGraph(x=x, relations=relations), labels


def random_multiplex(
    num_nodes: int,
    num_relations: int,
    num_features: int,
    rng: np.random.Generator,
    avg_degree: float = 4.0,
) -> MultiplexGraph:
    """Small unstructured multiplex graph for tests and examples."""
    relations = {}
    for r in range(num_relations):
        count = int(num_nodes * avg_degree / 2)
        pairs = _sample_pairs(count, np.arange(num_nodes), np.arange(num_nodes), rng)
        relations[f"rel{r}"] = RelationGraph(num_nodes, pairs, name=f"rel{r}")
    x = rng.normal(size=(num_nodes, num_features))
    return MultiplexGraph(x=x, relations=relations)
