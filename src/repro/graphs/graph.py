"""Single-relation graph: the building block of a multiplex graph.

A :class:`RelationGraph` stores one relation's undirected edge set over a
shared node universe. Edges are canonical unique pairs ``(u < v)``; message
passing uses the symmetrised directed view (both directions). Sparse
adjacency and normalised propagators are built lazily and cached — graphs
are treated as immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..obs.trace import span


@dataclass(frozen=True)
class GATScatter:
    """Pre-sorted edge structure for the grad-free GAT inference kernel.

    Lists every directed edge of ``copies`` stacked graph copies (plus
    per-copy self-loops when requested) in CSR form over destinations:
    the edges in the exact order the recording GAT forward would process
    them, stably sorted by destination. Each row's stored order therefore
    matches the scatter-add accumulation order of the recording path, so
    the attention-weighted message reduction can run as one CSR × dense
    product with bit-identical results.
    """

    indptr: np.ndarray      # (copies * n + 1,) CSR row pointers over dst
    indices: np.ndarray     # (E,) sources, destination-sorted
    dst_sorted: np.ndarray  # (E,) destinations; monotone, cache-friendly
    num_nodes: int          # copies * n


def _tile(values: np.ndarray, copies: int, step: int) -> np.ndarray:
    """``copies`` back-to-back copies of ``values``, copy ``k`` shifted by
    ``k · step``, in ``values``' dtype."""
    offsets = np.arange(copies, dtype=values.dtype) * step
    return (values[None, :] + offsets[:, None]).reshape(-1)


def _tile_indptr(indptr: np.ndarray, copies: int) -> np.ndarray:
    """Row pointers of ``copies`` diagonal copies of one CSR block."""
    nnz = indptr[-1:]
    return np.concatenate([_tile(indptr[:-1], copies, int(nnz[0])),
                           nnz * copies])


def _value_dtype(dtype) -> np.dtype:
    """An operator's value dtype: ``dtype``, or the autograd default."""
    if dtype is None:
        from ..autograd.tensor import get_default_dtype

        dtype = get_default_dtype()
    return np.dtype(dtype)


def _edge_array(edges, name: str) -> np.ndarray:
    """``edges`` as an array, if it is an integer ``(E, 2)`` array.

    Raises :class:`ValueError` naming relation ``name`` otherwise, so
    triples, flat lists and fractional ids are refused rather than
    reinterpreted. Empty input of any shape is the empty edge list.
    """
    edges = np.asarray(edges)
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if (edges.ndim != 2 or edges.shape[1] != 2
            or not np.issubdtype(edges.dtype, np.integer)):
        raise ValueError(f"relation {name!r}: edges must be an integer "
                         f"(E, 2) array, got {edges.dtype} {edges.shape}")
    return edges.astype(np.int64, copy=False)


def canonical_edges(edges: np.ndarray, num_nodes: int,
                    name: str = "rel") -> np.ndarray:
    """Deduplicate an ``(E, 2)`` edge array into canonical undirected form.

    Self-loops are dropped (propagators add their own), duplicates and
    reversed duplicates collapse to one entry, and the result is sorted for
    deterministic downstream sampling. Anything but an integer ``(E, 2)``
    array (or an empty one) raises :class:`ValueError` naming relation
    ``name``.
    """
    edges = _edge_array(edges, name)
    if edges.size == 0:
        return edges
    if edges.min() < 0 or edges.max() >= num_nodes:
        raise ValueError(
            f"relation {name!r}: edge endpoints out of range "
            f"[0, {num_nodes}): min={edges.min()}, max={edges.max()}"
        )
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    keys = lo * num_nodes + hi
    unique_keys = np.unique(keys)
    return np.stack([unique_keys // num_nodes, unique_keys % num_nodes], axis=1)


def check_canonical(edges, num_nodes: int, name: str) -> np.ndarray:
    """Return ``edges`` as int64 if already in :func:`canonical_edges` form.

    The O(E) check behind trusting stored edge arrays with
    ``validated=True``: every row ``(u, v)`` must satisfy
    ``0 <= u < v < num_nodes`` (no self-loops, no reversed pairs) and the
    keys ``u * num_nodes + v`` must strictly increase (sorted, no
    duplicates). Raises :class:`ValueError` naming relation ``name`` and
    the first offending row otherwise.
    """
    edges = _edge_array(edges, name)
    u, v = edges[:, 0], edges[:, 1]
    bad = (u < 0) | (u >= v) | (v >= num_nodes)
    keys = u * num_nodes + v
    bad[1:] |= keys[1:] <= keys[:-1]
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"relation {name!r}: edge row {row} {edges[row].tolist()} is not "
            f"canonical (need 0 <= u < v < {num_nodes}, rows sorted and "
            "unique)")
    return edges


class RelationGraph:
    """An undirected graph over ``num_nodes`` shared nodes for one relation.

    Parameters
    ----------
    num_nodes:
        Size of the shared node universe (nodes with no edges are allowed).
    edges:
        ``(E, 2)`` int array of undirected edges; deduplicated and
        canonicalised unless ``validated=True``.
    name:
        Relation label (e.g. ``"view"`` or ``"U-P-U"``).
    """

    def __init__(self, num_nodes: int, edges: np.ndarray, name: str = "rel",
                 validated: bool = False):
        self.num_nodes = int(num_nodes)
        self.name = name
        if validated:
            self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        else:
            self.edges = canonical_edges(edges, self.num_nodes, name)
        # Operator caches are keyed by value dtype: a float32 scoring pass
        # and a float64 fit of the same graph each get their own operator,
        # whichever touched the graph first.
        self._adj: Dict[np.dtype, sp.csr_matrix] = {}
        self._sym_prop: Dict[Tuple[bool, np.dtype], sp.csr_matrix] = {}
        self._degrees: Optional[np.ndarray] = None
        self._directed: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._block_props: Dict[Tuple[int, bool, np.dtype],
                                sp.csr_matrix] = {}
        self._gat_scatters: Dict[Tuple[int, bool], GATScatter] = {}

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.edges.shape[0])

    def directed_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (src, dst) with both directions of every undirected edge.

        Cached — graphs are immutable, and message passing asks for this
        every forward pass. Callers must not mutate the returned arrays.
        """
        if self._directed is None:
            if self.num_edges == 0:
                empty = np.empty(0, dtype=np.int64)
                self._directed = (empty, empty)
            else:
                src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
                dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
                self._directed = (src, dst)
        return self._directed

    def adjacency(self, dtype=None) -> sp.csr_matrix:
        """Symmetric binary adjacency matrix (cached CSR per ``dtype``).

        ``dtype`` defaults to the autograd default dtype; scoring passes
        name theirs explicitly.
        """
        dtype = _value_dtype(dtype)
        adj = self._adj.get(dtype)
        if adj is None:
            src, dst = self.directed_pairs()
            adj = sp.csr_matrix(
                (np.ones(len(src), dtype=dtype), (src, dst)),
                shape=(self.num_nodes, self.num_nodes)
            )
            # Symmetric: the spmm backward operator is the matrix itself,
            # so flag it once here instead of transposing per backward pass.
            adj._spmm_transpose = adj
            self._adj[dtype] = adj
        return adj

    def degrees(self) -> np.ndarray:
        """Undirected node degrees."""
        if self._degrees is None:
            deg = np.zeros(self.num_nodes, dtype=np.int64)
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
            self._degrees = deg
        return self._degrees

    def sym_propagator(self, add_self_loops: bool = True,
                       dtype=None) -> sp.csr_matrix:
        """``D^{-1/2} (A [+ I]) D^{-1/2}`` — the GCN/SGC propagation operator.

        Assembled directly as canonical CSR from the cached adjacency
        (binary, sorted rows, no self-loops — the canonical edge form
        guarantees all three): each row's degree is its stored length, a
        self-loop slot goes after the row's columns below the diagonal, and
        each value is ``inv_sqrt[row] * inv_sqrt[col]`` — the same bits, in
        the same order, as the two scipy products ``D^-1/2 @ A @ D^-1/2``,
        without building either intermediate. Degree-0 rows (isolated
        nodes without self-loops) get ``inv_sqrt = 0`` and store nothing,
        so no ``inf``/``NaN`` can appear. Cached per ``(add_self_loops,
        dtype)``; ``dtype`` as in :meth:`adjacency`.
        """
        dtype = _value_dtype(dtype)
        key = (bool(add_self_loops), dtype)
        if key not in self._sym_prop:
            with span("propagator.build") as sp_:
                sp_.set("kind", "sym")
                sp_.set("relation", self.name)
                adj = self.adjacency(dtype)
                n = self.num_nodes
                nodes = np.arange(n, dtype=adj.indices.dtype)
                counts = np.diff(adj.indptr)
                if add_self_loops:
                    # r earlier diagonal slots shift row r right by r, and
                    # its own slot follows its columns below r
                    indptr = adj.indptr + np.arange(
                        n + 1, dtype=adj.indptr.dtype)
                    rows = np.repeat(nodes, counts)
                    slots = indptr[:-1] + np.bincount(
                        rows[adj.indices < rows], minlength=n)
                    is_off = np.ones(adj.nnz + n, dtype=bool)
                    is_off[slots] = False
                    indices = np.empty(adj.nnz + n, dtype=adj.indices.dtype)
                    indices[is_off] = adj.indices
                    indices[slots] = nodes
                    counts = counts + 1
                else:
                    indptr, indices = adj.indptr.copy(), adj.indices.copy()
                rows = np.repeat(nodes, counts)
                deg = counts.astype(adj.dtype)
                inv_sqrt = np.zeros_like(deg)
                nz = deg > 0
                inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
                prop = sp.csr_matrix(
                    (inv_sqrt[rows] * inv_sqrt[indices], indices, indptr),
                    shape=(n, n))
                prop.has_sorted_indices = True
                prop.has_canonical_format = True
                # Flagged symmetric so the backward pass reuses the
                # operator.
                prop._spmm_transpose = prop
                self._sym_prop[key] = prop
        return self._sym_prop[key]

    def block_propagator(self, copies: int, add_self_loops: bool = True,
                         dtype=None) -> sp.csr_matrix:
        """Block-diagonal stack of ``copies`` × :meth:`sym_propagator`.

        The grad-free scoring engine runs the ``g`` disjoint mask groups of
        a masked evaluation as one stacked ``(g·n, f)`` forward; this is
        the matching ``(g·n, g·n)`` propagation operator, built and cached
        once per ``(copies, add_self_loops, dtype)`` alongside the other
        operator caches. It is tiled from the single-copy propagator's
        arrays, so each block's CSR rows are byte-identical to it and one
        wide spmm reproduces ``g`` narrow ones bitwise.
        """
        if copies == 1:
            return self.sym_propagator(add_self_loops, dtype)
        dtype = _value_dtype(dtype)
        key = (int(copies), bool(add_self_loops), dtype)
        if key not in self._block_props:
            with span("propagator.build") as sp_:
                sp_.set("kind", "block")
                sp_.set("relation", self.name)
                sp_.set("copies", int(copies))
                base = self.sym_propagator(add_self_loops, dtype)
                copies = int(copies)
                n = self.num_nodes
                indptr, indices = base.indptr, base.indices
                # the tiled offsets must still fit the index dtype
                if max(n, base.nnz) * copies > np.iinfo(indices.dtype).max:
                    indptr = indptr.astype(np.int64)
                    indices = indices.astype(np.int64)
                prop = sp.csr_matrix(
                    (np.tile(base.data, copies), _tile(indices, copies, n),
                     _tile_indptr(indptr, copies)),
                    shape=(copies * n, copies * n))
                prop.has_sorted_indices = base.has_sorted_indices
                prop.has_canonical_format = base.has_canonical_format
                prop._spmm_transpose = prop   # block-diag of symmetric blocks
                self._block_props[key] = prop
        return self._block_props[key]

    def gat_scatter(self, copies: int = 1,
                    add_self_loops: bool = True) -> GATScatter:
        """Cached :class:`GATScatter` over ``copies`` stacked graph copies.

        Edge order matches what ``copies`` sequential recording forwards
        would produce per destination: every copy's directed edges keep
        their relative order and its self-loop comes last, so the fast
        kernel's per-segment accumulation order — and hence its bits —
        equal the scatter-add path's. More than one copy is tiled from the
        cached single-copy scatter.
        """
        key = (int(copies), bool(add_self_loops))
        scatter = self._gat_scatters.get(key)
        if scatter is None:
            with span("propagator.build") as sp_:
                sp_.set("kind", "gat_scatter")
                sp_.set("relation", self.name)
                sp_.set("copies", int(copies))
                n = self.num_nodes
                copies = int(copies)
                if copies == 1:
                    src, dst = self.directed_pairs()
                    if add_self_loops:
                        loops = np.arange(n, dtype=np.int64)
                        src = np.concatenate([src, loops])
                        dst = np.concatenate([dst, loops])
                    perm = np.argsort(dst, kind="stable")
                    indptr = np.zeros(n + 1, dtype=np.int64)
                    np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
                    scatter = GATScatter(indptr=indptr, indices=src[perm],
                                         dst_sorted=dst[perm], num_nodes=n)
                else:
                    # Copies occupy disjoint destination ranges, so the
                    # stable sort of the stacked edge list is the
                    # single-copy order tiled block by block.
                    base = self.gat_scatter(1, add_self_loops)
                    scatter = GATScatter(
                        indptr=_tile_indptr(base.indptr, copies),
                        indices=_tile(base.indices, copies, n),
                        dst_sorted=_tile(base.dst_sorted, copies, n),
                        num_nodes=copies * n)
                self._gat_scatters[key] = scatter
        return scatter

    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Occupancy of the lazy operator caches, for telemetry.

        ``entries`` counts built operators (adjacency, propagators, block
        propagators, GAT scatters); ``bytes`` sums their array payloads.
        The base edge list is always resident and excluded — this measures
        what lazy building has accumulated, the part that grows with the
        mask-group shapes a serving process has seen.
        """
        def _csr_bytes(matrix) -> int:
            return int(matrix.data.nbytes + matrix.indices.nbytes
                       + matrix.indptr.nbytes)

        entries = 0
        total = 0
        for cache in (self._adj, self._sym_prop, self._block_props):
            for matrix in cache.values():
                entries += 1
                total += _csr_bytes(matrix)
        for scatter in self._gat_scatters.values():
            entries += 1
            total += int(scatter.indptr.nbytes + scatter.indices.nbytes
                         + scatter.dst_sorted.nbytes)
        if self._degrees is not None:
            entries += 1
            total += int(self._degrees.nbytes)
        if self._directed is not None:
            entries += 1
            total += int(self._directed[0].nbytes
                         + self._directed[1].nbytes)
        return {"relation": self.name, "entries": entries, "bytes": total}

    def remove_edges(self, edge_idx: np.ndarray) -> "RelationGraph":
        """New graph without the undirected edges at positions ``edge_idx``."""
        mask = np.ones(self.num_edges, dtype=bool)
        mask[np.asarray(edge_idx, dtype=np.int64)] = False
        return RelationGraph(self.num_nodes, self.edges[mask], name=self.name,
                             validated=True)

    def keep_edges(self, edge_idx: np.ndarray) -> "RelationGraph":
        """New graph containing only the edges at positions ``edge_idx``."""
        edge_idx = np.asarray(edge_idx, dtype=np.int64)
        return RelationGraph(self.num_nodes, self.edges[edge_idx], name=self.name,
                             validated=True)

    def add_edges(self, new_edges: np.ndarray) -> "RelationGraph":
        """New graph with ``new_edges`` unioned in (re-canonicalised)."""
        combined = np.concatenate([self.edges,
                                   _edge_array(new_edges, self.name)])
        return RelationGraph(self.num_nodes, combined, name=self.name)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node``."""
        adj = self.adjacency()
        return adj.indices[adj.indptr[node]:adj.indptr[node + 1]]

    def __repr__(self) -> str:
        return (f"RelationGraph(name={self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")
