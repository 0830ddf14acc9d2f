"""Anomaly scoring (Eq. 19) — attribute and structure reconstruction errors.

Per view ``* ∈ {O, A_Aug, S_Aug}`` and node ``i``:

``S_*(i) = ε · ||x̃_*(i) − x(i)||₂ + (1 − ε) · (1/R) Σ_r err(ζ̃ʳ_*(i), ζʳ(i))``

where the structure error compares the reconstructed adjacency row
``ζ̃ʳ(i) = σ(z_i · z_jᵀ)`` against the observed binary row. (The paper's
norm notation is internally swapped — its text defines ``||·||₁`` as the
Euclidean norm and ``||·||₂`` as the L1 norm; we use Euclidean for the
attribute residual and mean absolute error for the structure row, matching
the intent.)

Two structure-error implementations:

* **exact** — full ``n × n`` reconstruction, computed in row blocks;
* **sampled** — per node, only its observed neighbors plus ``q`` sampled
  non-neighbors are evaluated (the RQ3 large-graph path).

Deviation (README, "Deviations from the paper", item 2): each error term
is min–max normalised across nodes before the ε-mix so the two terms are
commensurable (the common DOMINANT-style practice; the paper's ε is
otherwise scale-dependent).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional

import numpy as np
import scipy.sparse as sp

from ..graphs.graph import RelationGraph


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _sigmoid_logits_inplace(dots: np.ndarray) -> None:
    """``σ(LOGIT_SCALE · dots)`` written back into ``dots``.

    The same elementwise steps as ``1 / (1 + exp(-LOGIT_SCALE · dots))``
    (negating the scale negates the rounded product exactly), so the bits
    match; the clamp of :func:`_sigmoid` is skipped because cosine logits
    live in ``±LOGIT_SCALE``, far inside it.
    """
    np.multiply(dots, -LOGIT_SCALE, out=dots)
    np.exp(dots, out=dots)
    np.add(dots, 1.0, out=dots)
    np.divide(1.0, dots, out=dots)


@lru_cache(maxsize=4)
def _query_rows(n: int, q: int, dtype: np.dtype) -> np.ndarray:
    """``tile(arange(n), q)`` — the row index of every sampled pair, in
    the ``(q, n)`` order of :func:`draw_negatives`.

    Identical across the many sampled-structure calls of one scoring pass
    (3 views × R relations), so cache the few-MB array, already in the
    adjacency's index dtype, instead of rebuilding it per call.
    """
    return np.tile(np.arange(n, dtype=dtype), q)


def _sample_adjacency(adj: sp.csr_matrix, rows: np.ndarray,
                      cols: np.ndarray) -> np.ndarray:
    """``adj[rows, cols]`` as a flat array, skipping the fancy-index wrapper.

    ``adj[rows, cols]`` spends most of its time in scipy's generic index
    validation and ``np.matrix`` packaging; the underlying
    ``csr_sample_values`` kernel reads the same entries directly. Falls
    back to the public path if the private kernel moves.
    """
    try:
        from scipy.sparse import _sparsetools

        out = np.empty(rows.size, dtype=adj.dtype)
        _sparsetools.csr_sample_values(
            adj.shape[0], adj.shape[1], adj.indptr, adj.indices, adj.data,
            rows.size, rows.astype(adj.indices.dtype, copy=False),
            cols.astype(adj.indices.dtype, copy=False), out)
        return out
    except (ImportError, AttributeError):  # pragma: no cover - old scipy
        return np.asarray(adj[rows, cols]).ravel()


def _unit_rows(decoded: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm, in ``decoded``'s dtype.

    The norms and the division run in float64: a float32 row's squares
    overflow once its entries pass ~1e19, far inside float32's range,
    which would flatten the row to zero. On float64 input nothing is
    copied and every bit is unchanged.
    """
    wide = decoded.astype(np.float64, copy=False)
    unit = wide / (np.linalg.norm(wide, axis=1, keepdims=True) + 1e-12)
    return unit.astype(decoded.dtype, copy=False)


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]; constant input maps to zeros."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi - lo < 1e-12:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def attribute_errors(reconstructed: np.ndarray, original: np.ndarray,
                     metric: str = "cosine") -> np.ndarray:
    """Per-node attribute residual.

    ``metric="euclidean"`` is the literal Eq. 19 (``||x̃(i) − x(i)||₂``);
    ``metric="cosine"`` (default) is ``1 − cos(x̃(i), x(i))`` — the same
    residual the training loss (Eq. 4) minimises. The cosine form is
    scale-invariant, which matters for camouflaged anomalies whose feature
    *norms* shrink toward the global mean: Euclidean error under-scores
    exactly those nodes (README, "Deviations from the paper", item 2).
    Both run in float64 whatever the input dtype, so a float32 row's
    squares and products cannot overflow (as :func:`_unit_rows`).
    """
    reconstructed = reconstructed.astype(np.float64, copy=False)
    original = original.astype(np.float64, copy=False)
    if metric == "euclidean":
        return np.linalg.norm(reconstructed - original, axis=1)
    if metric == "cosine":
        num = (reconstructed * original).sum(axis=1)
        den = (np.linalg.norm(reconstructed, axis=1)
               * np.linalg.norm(original, axis=1) + 1e-12)
        return 1.0 - num / den
    raise ValueError(f"unknown attribute error metric {metric!r}")


#: inverse-temperature applied to normalised inner products before the
#: sigmoid — cosine logits live in [-1, 1], where the raw sigmoid is stuck
#: in [0.27, 0.73] and every non-edge looks half-wrong; sharpening matches
#: the temperature the structure loss trains with.
LOGIT_SCALE = 4.0


def structure_errors_exact(decoded: np.ndarray, graph: RelationGraph,
                           block_size: int = 1024) -> np.ndarray:
    """Mean absolute error between ``σ(z zᵀ)`` rows and adjacency rows."""
    n = graph.num_nodes
    z = _unit_rows(decoded)
    adj = graph.adjacency(decoded.dtype)
    errors = np.empty(n, dtype=np.float64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        recon = _sigmoid(LOGIT_SCALE * (z[start:stop] @ z.T))
        dense_rows = np.asarray(adj[start:stop].todense())
        errors[start:stop] = np.abs(recon - dense_rows).mean(axis=1)
    return errors


def draw_negatives(rng: np.random.Generator, num_nodes: int,
                   negatives_per_node: int) -> np.ndarray:
    """The random partner ids of one sampled structure score.

    The only randomness of :func:`structure_errors_sampled`; a scoring
    pass draws every call's sample up front, in call order, and scores
    from the arrays later (:func:`structure_errors_from`). Drawn as an
    ``(n, q)`` int64 array (``q`` per node), returned as its ``(q, n)``
    transpose in int32 where ids fit: the kernel's column-by-column
    layout, at half the memory a pass holds.
    """
    drawn = rng.integers(0, num_nodes, size=(num_nodes, negatives_per_node))
    index = np.int32 if num_nodes <= np.iinfo(np.int32).max else np.int64
    return np.ascontiguousarray(drawn.T, dtype=index)


def structure_errors_sampled(decoded: np.ndarray, graph: RelationGraph,
                             rng: np.random.Generator,
                             negatives_per_node: int = 20) -> np.ndarray:
    """Neighbor + sampled-negative estimate of the structure row error.

    For node ``i``: error over its observed neighbors (should reconstruct
    to ~1) plus ``negatives_per_node`` random non-edges (should be ~0),
    averaged. Unbiased up to the negative subsample, O(E + n·q) total.
    The negatives come from :func:`draw_negatives`.

    The kernel uses a bincount scatter (same accumulation order as
    ``np.add.at``), one logit per undirected edge, a clip-free in-place
    sigmoid (the cosine logits live in ``±LOGIT_SCALE``, far inside the
    clip range of :func:`_sigmoid`, so the clamp is the identity), and
    blocked row contractions into two reused ``(n, f)`` buffers that skip
    the ``(E, f)`` and ``(n, q, f)`` gathers. ``tests/test_grad_mode.py``
    checks it bit for bit against a one-shot ``einsum``/``np.add.at``
    reference.
    """
    return _sampled_kernel(decoded, graph, draw_negatives(
        rng, graph.num_nodes, negatives_per_node))


def _sampled_kernel(decoded: np.ndarray, graph: RelationGraph,
                    neg_cols: np.ndarray) -> np.ndarray:
    """:func:`structure_errors_sampled` with its negatives already drawn
    (:func:`draw_negatives`)."""
    n = graph.num_nodes
    negatives_per_node = neg_cols.shape[0]
    z = _unit_rows(decoded)
    adj = graph.adjacency(decoded.dtype)

    # Every row gather below writes into one of two preallocated (n, f)
    # buffers, in blocks of at most n rows, instead of allocating
    # (E, f) or (n, q, f) temporaries; each row's dot product is the
    # same either way, so the bits match (tests/test_grad_mode.py).
    # ``mode="clip"`` lets ``take`` write straight into ``out`` (the
    # default "raise" buffers it). It never changes a value: negative
    # samples are drawn in [0, n), and ``graph.adjacency`` above has
    # already rejected any edge endpoint outside [0, n).
    left = np.empty_like(z)
    right = np.empty_like(z)

    # Both directions of an edge share one logit (the dot product
    # commutes exactly), so evaluate each undirected edge once and
    # feed the doubled weights to the same bincount over ``src``.
    edges = graph.edges
    per = np.empty(graph.num_edges, dtype=z.dtype)
    for start in range(0, graph.num_edges, n):
        block = edges[start:start + n]
        m = block.shape[0]
        np.take(z, block[:, 0], axis=0, out=left[:m], mode="clip")
        np.take(z, block[:, 1], axis=0, out=right[:m], mode="clip")
        np.einsum("ij,ij->i", left[:m], right[:m],
                  out=per[start:start + m])
    _sigmoid_logits_inplace(per)
    np.subtract(per, 1.0, out=per)
    np.abs(per, out=per)
    src, _ = graph.directed_pairs()
    pos_err = np.bincount(src, weights=np.concatenate([per, per]),
                          minlength=n)

    # Negatives column by column, into a (q, n) logit buffer.
    logits = np.empty((negatives_per_node, n), dtype=z.dtype)
    for k in range(negatives_per_node):
        np.take(z, neg_cols[k], axis=0, out=left, mode="clip")
        np.einsum("ij,ij->i", z, left, out=logits[k])
    _sigmoid_logits_inplace(logits)
    rows = _query_rows(n, negatives_per_node, adj.indices.dtype)
    is_edge = _sample_adjacency(adj, rows, neg_cols.ravel()).reshape(
        negatives_per_node, n)
    # back to (n, q) in float64, the dtype the positive errors' bincount
    # accumulates in, whatever the pass dtype; the row sums keep their
    # reduction order
    neg_pred = logits.T.astype(np.float64, order="C")
    np.subtract(neg_pred, is_edge.T, out=neg_pred)
    np.abs(neg_pred, out=neg_pred)
    neg_err = neg_pred.sum(axis=1)

    total = pos_err + neg_err
    count = graph.degrees() + float(negatives_per_node)
    return total / count


def resolve_structure_mode(mode: str, num_nodes: int,
                           exact_max_nodes: int = 4000) -> str:
    """``"exact"`` or ``"sampled"``: ``mode``, with ``"auto"`` picking exact
    up to ``exact_max_nodes`` nodes."""
    if mode == "auto":
        mode = "exact" if num_nodes <= exact_max_nodes else "sampled"
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown structure score mode {mode!r}")
    return mode


def structure_errors_from(decoded: np.ndarray, graph: RelationGraph,
                          negatives: Optional[np.ndarray]) -> np.ndarray:
    """Structure error from a pre-drawn sample: the sampled estimator over
    ``negatives`` (:func:`draw_negatives`), or the exact one when
    ``negatives`` is None."""
    if negatives is None:
        return structure_errors_exact(decoded, graph)
    return _sampled_kernel(decoded, graph, negatives)


def structure_errors(decoded: np.ndarray, graph: RelationGraph,
                     mode: str, rng: np.random.Generator,
                     negatives_per_node: int = 20,
                     exact_max_nodes: int = 4000) -> np.ndarray:
    """Dispatch between exact and sampled structure error."""
    mode = resolve_structure_mode(mode, graph.num_nodes, exact_max_nodes)
    negatives = (draw_negatives(rng, graph.num_nodes, negatives_per_node)
                 if mode == "sampled" else None)
    return structure_errors_from(decoded, graph, negatives)


def combine_view_score(attr_err: Optional[np.ndarray],
                       struct_errs: Iterable[np.ndarray],
                       epsilon: float) -> np.ndarray:
    """ε-mix of normalised attribute and (relation-averaged) structure error."""
    struct_errs = list(struct_errs)
    parts = []
    if attr_err is not None:
        parts.append(epsilon * minmax_normalize(attr_err))
    if struct_errs:
        mean_struct = np.mean([minmax_normalize(e) for e in struct_errs], axis=0)
        parts.append((1.0 - epsilon) * mean_struct)
    if not parts:
        raise ValueError("no score components to combine")
    if len(parts) == 1:
        # Single-term variants (Fig. 6 Att/Str): drop the ε weighting so the
        # score is the normalised error itself.
        return minmax_normalize(parts[0])
    return np.sum(parts, axis=0)
