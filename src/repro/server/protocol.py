"""Wire format of the HTTP gateway: JSON payload <-> graph objects.

One rule governs everything here: **scores cross the wire at full
precision**. Python's ``json`` serialises floats via ``repr``, which
round-trips every float64 bit pattern exactly, so a score array that goes
``ndarray -> tolist -> json -> client`` is bitwise-identical to the
server-side array — the parity contract the server tests pin. Nothing in
this module may format, round, or truncate a score.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graphs.io import from_edge_dict
from ..graphs.multiplex import MultiplexGraph, check_attributes


class ProtocolError(ValueError):
    """A request payload that cannot be turned into domain objects."""


def graph_from_payload(payload: dict) -> MultiplexGraph:
    """Build a :class:`MultiplexGraph` from an inline request payload.

    Expected shape::

        {"x": [[...], ...],                       # (n, f) attribute rows
         "relations": {"view": [[u, v], ...], ...}}  # edge lists per relation

    Raises :class:`ProtocolError` (a ``ValueError``) on anything malformed;
    the HTTP layer maps that to a 400 response.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"graph payload must be an object, got {type(payload).__name__}")
    x = payload.get("x")
    relations = payload.get("relations")
    if x is None or relations is None:
        raise ProtocolError(
            "graph payload needs 'x' (attribute rows) and 'relations' "
            "(name -> edge list)")
    if not isinstance(relations, dict) or not relations:
        raise ProtocolError("'relations' must be a non-empty object of "
                            "relation name -> [[u, v], ...] edge lists")
    try:
        attrs = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"'x' is not a numeric matrix: {exc}") from None
    if attrs.ndim != 2 or attrs.shape[0] < 1:
        raise ProtocolError(
            f"'x' must be a non-empty 2-D matrix, got shape {attrs.shape}")
    try:
        check_attributes(attrs)
    except ValueError as exc:
        raise ProtocolError(f"'x': {exc}") from None
    num_nodes = attrs.shape[0]
    edge_dict: Dict[str, np.ndarray] = {}
    for name, edges in relations.items():
        try:
            edge_dict[str(name)] = np.asarray(edges)
        except (TypeError, ValueError) as exc:   # ragged lists
            raise ProtocolError(
                f"relation {name!r}: edge list is not an (E, 2) integer "
                f"array: {exc}") from None
    # from_edge_dict refuses anything but integer [[u, v], ...] pairs, so
    # triples, flat lists and fractional ids are never reinterpreted
    try:
        return from_edge_dict(num_nodes, edge_dict, attrs)
    except (ValueError, IndexError) as exc:
        raise ProtocolError(f"invalid graph payload: {exc}") from None


def graph_payload(graph: MultiplexGraph) -> dict:
    """Serialise a graph into the inline ``/v1/score`` payload form."""
    return {
        "x": graph.x.tolist(),
        "relations": {name: rel.edges.tolist()
                      for name, rel in graph.relations.items()},
    }


def parse_nodes(nodes, num_nodes: int) -> Optional[np.ndarray]:
    """Validate an optional request 'nodes' subset against the graph size."""
    if nodes is None:
        return None
    if not isinstance(nodes, list) or not nodes:
        raise ProtocolError("'nodes' must be a non-empty list of node ids")
    try:
        index = np.asarray(nodes, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"'nodes' is not an integer list: {exc}") from None
    if index.ndim != 1:
        raise ProtocolError("'nodes' must be a flat list of node ids")
    bad = (index < 0) | (index >= num_nodes)
    if bad.any():
        raise ProtocolError(
            f"node id {int(index[bad][0])} out of range [0, {num_nodes})")
    return index


def score_response(fingerprint: str, scores: np.ndarray, *,
                   nodes: Optional[np.ndarray] = None,
                   top_k: Optional[int] = None,
                   threshold=None, degraded: bool = False) -> dict:
    """Assemble the ``/v1/score`` response body (full-precision floats).

    ``degraded=True`` marks a response answered from the stale-score
    cache while the fingerprint's circuit breaker is open. The key is
    *absent* on healthy responses — not ``false`` — so response bodies
    with resilience features enabled but idle stay byte-identical to
    builds without them.
    """
    body: dict = {
        "fingerprint": fingerprint,
        "num_nodes": int(scores.size),
    }
    if degraded:
        body["degraded"] = True
    if nodes is None:
        body["scores"] = scores.tolist()
    else:
        body["scores"] = [{"node": int(node), "score": float(scores[node])}
                          for node in nodes]
    if top_k is not None:
        k = max(int(top_k), 0)
        order = np.argsort(-scores)[:k]
        body["top"] = [{"node": int(i), "score": float(scores[i])}
                       for i in order]
    if threshold is not None:
        body["threshold"] = {
            "threshold": float(threshold.threshold),
            "index": int(threshold.index),
            "num_anomalies": int(threshold.num_anomalies),
            "window": int(threshold.window),
        }
        body["flagged"] = np.flatnonzero(
            scores >= threshold.threshold).tolist()
    return body


__all__ = ["ProtocolError", "graph_from_payload", "graph_payload",
           "parse_nodes", "score_response"]
