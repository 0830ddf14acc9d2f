"""Persistence for multiplex graphs: npz archives and edge-list TSV.

A downstream user's integration path: export interaction logs per relation
as TSV (``src<TAB>dst``), or save/load the whole graph (attributes +
labels) as a single compressed ``.npz`` archive.
"""

from __future__ import annotations

import hashlib
import pathlib
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .graph import RelationGraph, check_canonical
from .multiplex import MultiplexGraph

_RELATION_PREFIX = "edges::"


_FINGERPRINT_VERSION = b"umgad-multiplex-fingerprint-v2"


def attribute_digest(x: np.ndarray) -> bytes:
    """sha256 digest of one attribute matrix (dtype + shape + bytes)."""
    x = np.ascontiguousarray(x)
    digest = hashlib.sha256()
    digest.update(str(x.dtype).encode())
    digest.update(repr(x.shape).encode())
    digest.update(x.tobytes())
    return digest.digest()


def relation_digest(name: str, edges: np.ndarray) -> bytes:
    """sha256 digest of one relation's canonical edge array."""
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    digest = hashlib.sha256()
    digest.update(name.encode())
    digest.update(repr(edges.shape).encode())
    digest.update(edges.tobytes())
    return digest.digest()


def combine_digests(attr_digest: bytes,
                    rel_digests: Iterable[Tuple[str, bytes]]) -> str:
    """Fold component digests into the final fingerprint (hex sha256).

    The fingerprint is a hash *of component hashes* rather than one pass
    over the raw bytes, so a holder of cached component digests — the
    incremental builder in :mod:`repro.stream.builder` — can recombine
    them in O(R) after a localised change instead of rehashing the whole
    graph.
    """
    digest = hashlib.sha256(_FINGERPRINT_VERSION)
    digest.update(attr_digest)
    for name, rel_digest in rel_digests:
        digest.update(name.encode())
        digest.update(rel_digest)
    return digest.hexdigest()


def graph_fingerprint(graph: MultiplexGraph) -> str:
    """Stable content hash of a multiplex graph (hex sha256).

    Covers the attribute matrix and every relation's name + edge array, so
    two graphs fingerprint equal iff a detector would score them equally.
    The serving cache (:mod:`repro.serve.service`) keys on this, and
    :class:`repro.stream.IncrementalGraphBuilder` maintains the same value
    incrementally via the component-digest helpers above.
    """
    return combine_digests(
        attribute_digest(graph.x),
        ((name, relation_digest(name, rel.edges))
         for name, rel in graph.relations.items()))


def save_multiplex(path, graph: MultiplexGraph,
                   labels: Optional[np.ndarray] = None) -> None:
    """Save a multiplex graph (and optional labels) to a ``.npz`` archive.

    The archive stores the attribute matrix under ``x``, each relation's
    canonical edge array under ``edges::<name>``, and labels under
    ``labels`` when provided.
    """
    payload = {"x": graph.x}
    for name, rel in graph.relations.items():
        payload[_RELATION_PREFIX + name] = rel.edges
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[0] != graph.num_nodes:
            raise ValueError(
                f"labels length {labels.shape[0]} != num_nodes {graph.num_nodes}"
            )
        payload["labels"] = labels
    np.savez_compressed(path, **payload)


def load_multiplex(path) -> Tuple[MultiplexGraph, Optional[np.ndarray]]:
    """Load a graph saved by :func:`save_multiplex`; returns (graph, labels).

    Stored edge arrays must be in canonical form (see
    :func:`~repro.graphs.graph.check_canonical`); a hand-edited or foreign
    archive with self-loops, reversed, unsorted, duplicate or
    out-of-range rows raises :class:`ValueError` naming the relation and
    row instead of loading a graph with a corrupt adjacency.
    """
    with np.load(path) as archive:
        if "x" not in archive:
            raise ValueError(f"{path}: not a multiplex archive (missing 'x')")
        x = archive["x"]
        relations: Dict[str, RelationGraph] = {}
        for key in archive.files:
            if key.startswith(_RELATION_PREFIX):
                name = key[len(_RELATION_PREFIX):]
                edges = check_canonical(archive[key], x.shape[0], name)
                relations[name] = RelationGraph(x.shape[0], edges,
                                                name=name, validated=True)
        if not relations:
            raise ValueError(f"{path}: archive contains no relations")
        labels = archive["labels"] if "labels" in archive else None
    return MultiplexGraph(x=x, relations=relations), labels


def write_edge_list(path, relation: RelationGraph, delimiter: str = "\t") -> None:
    """Write one relation as a ``src<delim>dst`` text file."""
    np.savetxt(path, relation.edges, fmt="%d", delimiter=delimiter,
               header=f"relation={relation.name} nodes={relation.num_nodes}")


def read_edge_list(path, num_nodes: int, name: str = "rel",
                   delimiter: str = "\t") -> RelationGraph:
    """Read a ``src<delim>dst`` text file into a :class:`RelationGraph`.

    Every endpoint is validated against ``num_nodes``; a malformed or
    out-of-range line raises :class:`ValueError` naming the offending line
    number, instead of silently producing a corrupt graph.
    """
    rows = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split(delimiter) if delimiter else stripped.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected two columns "
                    f"(src{delimiter or ' '}dst), got {stripped!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer node id in {stripped!r}"
                ) from None
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(
                    f"{path}:{lineno}: node id out of range "
                    f"[0, {num_nodes}): ({u}, {v})")
            rows.append((u, v))
    edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
    return RelationGraph(num_nodes, edges, name=name)


def from_edge_dict(num_nodes: int, edge_dict: Dict[str, np.ndarray],
                   x: np.ndarray) -> MultiplexGraph:
    """Convenience constructor: name → (E, 2) arrays plus features."""
    relations = {name: RelationGraph(num_nodes, edges, name=name)
                 for name, edges in edge_dict.items()}
    return MultiplexGraph(x=x, relations=relations)
