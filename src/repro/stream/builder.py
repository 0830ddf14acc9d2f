"""Incremental multiplex-graph maintenance: apply event deltas in O(delta).

:class:`RelationGraph` is immutable by design — before this module, the
only way to apply a stream of edge events was a functional update per
event (``rel.add_edges([[u, v]])``), each of which re-canonicalises the
whole relation: O(E log E) *per event*. :class:`IncrementalGraphBuilder`
replaces that with mutable per-relation state sized for streams:

* **capacity-doubling edge arrays** with a position map per relation, so
  one add/remove is an O(1) dict-and-row operation;
* **per-relation dirty flags** — a snapshot re-canonicalises and re-hashes
  only the relations an event batch actually touched; untouched relations
  reuse the previous snapshot's immutable :class:`RelationGraph` objects
  (including their cached adjacency/propagators);
* **incremental fingerprint** — component digests (see
  :func:`repro.graphs.io.combine_digests`) are cached per relation and for
  the attribute matrix, so ``fingerprint()`` after a small delta costs
  O(dirty) instead of rehashing the whole graph. The value is *identical*
  to :func:`~repro.graphs.io.graph_fingerprint` of the same graph built
  statically, which keeps :class:`~repro.serve.service.DetectorService`
  cache keys correct.

Event application is atomic per event: every event is validated before any
state is mutated, so a raising event (unknown relation, out-of-range node,
wrong attribute width) leaves the builder exactly as it was after the last
successfully applied event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graphs.graph import RelationGraph
from ..graphs.io import attribute_digest, combine_digests, relation_digest
from ..graphs.multiplex import MultiplexGraph
from .events import AddEdge, AddNode, Event, RemoveEdge, UpdateAttr

_MIN_CAPACITY = 64


@dataclass
class ApplyStats:
    """What one :meth:`IncrementalGraphBuilder.apply` call actually did."""

    added_edges: int = 0
    removed_edges: int = 0
    added_nodes: int = 0
    updated_attrs: int = 0
    #: adds of edges already present (counted no-ops)
    redundant_adds: int = 0
    #: removals of edges not present (counted no-ops)
    missing_removes: int = 0

    @property
    def applied(self) -> int:
        return (self.added_edges + self.removed_edges + self.added_nodes
                + self.updated_attrs)

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class IncrementalGraphBuilder:
    """Maintain an evolving :class:`MultiplexGraph` under an event stream.

    Construct either from an existing graph (:meth:`from_graph`) or empty,
    from the schema a detector was trained with::

        builder = IncrementalGraphBuilder(relation_names=["view", "buy"],
                                          num_features=16)
        builder.apply(events)                  # O(len(events))
        graph = builder.snapshot()             # O(dirty relations)
        key = builder.fingerprint()            # == graph_fingerprint(graph)

    Snapshots are immutable and safe to hold across further ``apply``
    calls: dirty components are copied out, clean components are shared
    with the previous snapshot.
    """

    def __init__(self, graph: Optional[MultiplexGraph] = None, *,
                 relation_names: Optional[Sequence[str]] = None,
                 num_features: Optional[int] = None):
        if graph is not None:
            relation_names = graph.relation_names
            num_features = graph.num_features
        if not relation_names:
            raise ValueError("builder needs at least one relation name")
        if num_features is None or int(num_features) < 1:
            raise ValueError(f"num_features must be >= 1, got {num_features}")
        self._names: List[str] = [str(n) for n in relation_names]
        self._f = int(num_features)

        self._n = 0
        self._x = np.empty((_MIN_CAPACITY, self._f), dtype=np.float64)
        self._arr: Dict[str, np.ndarray] = {}
        self._count: Dict[str, int] = {}
        self._pos: Dict[str, Dict[Tuple[int, int], int]] = {}
        for name in self._names:
            self._arr[name] = np.empty((_MIN_CAPACITY, 2), dtype=np.int64)
            self._count[name] = 0
            self._pos[name] = {}

        # Snapshot caches, invalidated by the dirty flags below.
        self._rel_dirty = set(self._names)
        self._attr_dirty = True
        self._sorted: Dict[str, Optional[np.ndarray]] = dict.fromkeys(self._names)
        self._rel_digest: Dict[str, Optional[bytes]] = dict.fromkeys(self._names)
        self._snap_rel: Dict[str, Optional[RelationGraph]] = dict.fromkeys(self._names)
        self._snap_x: Optional[np.ndarray] = None
        self._attr_digest: Optional[bytes] = None
        self._snap_n = 0
        self._fingerprint: Optional[str] = None

        if graph is not None:
            self._adopt(graph)

    @classmethod
    def from_graph(cls, graph: MultiplexGraph) -> "IncrementalGraphBuilder":
        """Builder whose current state equals ``graph``."""
        return cls(graph)

    def _adopt(self, graph: MultiplexGraph) -> None:
        n = graph.num_nodes
        self._x = np.empty((max(_MIN_CAPACITY, n), self._f), dtype=np.float64)
        self._x[:n] = graph.x
        self._n = n
        for name in self._names:
            edges = graph[name].edges
            count = edges.shape[0]
            arr = np.empty((max(_MIN_CAPACITY, count), 2), dtype=np.int64)
            arr[:count] = edges
            self._arr[name] = arr
            self._count[name] = count
            self._pos[name] = dict(zip(map(tuple, edges.tolist()),
                                       range(count)))

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_features(self) -> int:
        return self._f

    @property
    def relation_names(self) -> List[str]:
        return list(self._names)

    def num_edges(self, relation: str) -> int:
        self._require_relation(relation)
        return self._count[relation]

    def total_edges(self) -> int:
        return sum(self._count.values())

    def has_edge(self, relation: str, u: int, v: int) -> bool:
        self._require_relation(relation)
        key = (u, v) if u < v else (v, u)
        return key in self._pos[relation]

    def edge_at(self, relation: str, index: int) -> Tuple[int, int]:
        """The ``index``-th live edge of ``relation`` (arbitrary but stable
        order between mutations) — lets samplers pick an existing edge."""
        self._require_relation(relation)
        if not 0 <= index < self._count[relation]:
            raise IndexError(
                f"edge index {index} out of range "
                f"[0, {self._count[relation]}) for relation {relation!r}")
        u, v = self._arr[relation][index]
        return int(u), int(v)

    def attributes(self) -> np.ndarray:
        """Read-only view of the current ``(n, f)`` attribute matrix."""
        view = self._x[:self._n]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _require_relation(self, name: str) -> None:
        if name not in self._pos:
            raise ValueError(
                f"unknown relation {name!r}; builder has {self._names}")

    def _require_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} out of range [0, {self._n})")

    def _grow_edges(self, name: str) -> None:
        arr = self._arr[name]
        bigger = np.empty((max(arr.shape[0] * 2, _MIN_CAPACITY), 2),
                          dtype=np.int64)
        bigger[:self._count[name]] = arr[:self._count[name]]
        self._arr[name] = bigger

    def _grow_nodes(self) -> None:
        bigger = np.empty((max(self._x.shape[0] * 2, _MIN_CAPACITY), self._f),
                          dtype=np.float64)
        bigger[:self._n] = self._x[:self._n]
        self._x = bigger

    def apply(self, events: Union[Event, Iterable[Event]]) -> ApplyStats:
        """Apply one event or an event batch; returns what changed.

        Cost is O(number of events). Duplicate adds and removals of absent
        edges are counted no-ops; invalid events raise :class:`ValueError`
        without corrupting builder state (events before the offending one
        in the batch stay applied).
        """
        if isinstance(events, (AddEdge, RemoveEdge, AddNode, UpdateAttr)):
            events = (events,)
        stats = ApplyStats()
        for event in events:
            if isinstance(event, AddEdge):
                self._require_relation(event.relation)
                self._require_node(event.u)
                self._require_node(event.v)
                pos = self._pos[event.relation]
                key = (event.u, event.v)
                if key in pos:
                    stats.redundant_adds += 1
                    continue
                count = self._count[event.relation]
                if count == self._arr[event.relation].shape[0]:
                    self._grow_edges(event.relation)
                self._arr[event.relation][count] = key
                pos[key] = count
                self._count[event.relation] = count + 1
                self._rel_dirty.add(event.relation)
                stats.added_edges += 1
            elif isinstance(event, RemoveEdge):
                self._require_relation(event.relation)
                pos = self._pos[event.relation]
                key = (event.u, event.v)
                row = pos.pop(key, None)
                if row is None:
                    stats.missing_removes += 1
                    continue
                arr = self._arr[event.relation]
                last = self._count[event.relation] - 1
                if row != last:   # swap-remove keeps the live rows packed
                    arr[row] = arr[last]
                    pos[(int(arr[row][0]), int(arr[row][1]))] = row
                self._count[event.relation] = last
                self._rel_dirty.add(event.relation)
                stats.removed_edges += 1
            elif isinstance(event, AddNode):
                if event.x.shape[0] != self._f:
                    raise ValueError(
                        f"AddNode attribute width {event.x.shape[0]} != "
                        f"graph width {self._f}")
                if self._n == self._x.shape[0]:
                    self._grow_nodes()
                self._x[self._n] = event.x
                self._n += 1
                self._attr_dirty = True
                stats.added_nodes += 1
            elif isinstance(event, UpdateAttr):
                self._require_node(event.node)
                if event.x.shape[0] != self._f:
                    raise ValueError(
                        f"UpdateAttr attribute width {event.x.shape[0]} != "
                        f"graph width {self._f}")
                self._x[event.node] = event.x
                self._attr_dirty = True
                stats.updated_attrs += 1
            else:
                raise TypeError(f"not a stream event: {event!r}")
        return stats

    # ------------------------------------------------------------------
    # Snapshots + fingerprint
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Re-derive snapshot caches for dirty components only."""
        nodes_resized = self._snap_n != self._n
        if self._attr_dirty or self._snap_x is None:
            self._snap_x = self._x[:self._n].copy()
            self._attr_digest = attribute_digest(self._snap_x)
            self._attr_dirty = False
        for name in self._names:
            if name in self._rel_dirty or self._sorted[name] is None:
                live = self._arr[name][:self._count[name]]
                # Canonical order = ascending (u, v); matches the sort that
                # canonical_edges() produces for a static build.
                order = np.lexsort((live[:, 1], live[:, 0]))
                self._sorted[name] = live[order]
                self._rel_digest[name] = relation_digest(name, self._sorted[name])
                self._snap_rel[name] = None
            if self._snap_rel[name] is None or nodes_resized:
                self._snap_rel[name] = RelationGraph(
                    self._n, self._sorted[name], name=name, validated=True)
        self._rel_dirty.clear()
        self._snap_n = self._n
        self._fingerprint = combine_digests(
            self._attr_digest,
            ((name, self._rel_digest[name]) for name in self._names))

    def fingerprint(self) -> str:
        """Current content fingerprint, equal to
        :func:`~repro.graphs.io.graph_fingerprint` of :meth:`snapshot`."""
        self._refresh()
        return self._fingerprint

    def snapshot(self) -> MultiplexGraph:
        """Immutable :class:`MultiplexGraph` of the current state.

        Costs O(changed relations + changed attributes); unchanged
        components are shared with the previous snapshot, so repeated
        snapshots of a quiet graph are nearly free (and keep their cached
        adjacency/propagator matrices).
        """
        if self._n == 0:
            raise ValueError("cannot snapshot an empty graph (no nodes yet)")
        self._refresh()
        return MultiplexGraph(
            x=self._snap_x,
            relations={name: self._snap_rel[name] for name in self._names})

    def __repr__(self) -> str:
        rels = ", ".join(f"{n}:{self._count[n]}" for n in self._names)
        return (f"IncrementalGraphBuilder(nodes={self._n}, f={self._f}, "
                f"relations=[{rels}])")
