"""Typed event model for streaming multiplex-graph ingestion.

In production the multiplex graph is not a finished ``.npz`` — it arrives
as a stream of structural and attribute events. This module defines the
four event types a multiplex graph can experience, a line-oriented JSONL
log format (one event per line, append-friendly, replayable), and a
deterministic synthetic stream generator that mixes normal churn with
injected anomalous bursts (the streaming analogue of the Ding et al.
protocol in :mod:`repro.anomalies.injection`).

Event semantics (enforced by :class:`repro.stream.IncrementalGraphBuilder`):

* :class:`AddEdge` / :class:`RemoveEdge` — one undirected edge in one
  named relation. Endpoints are canonicalised to ``(min, max)``;
  self-loops are rejected at construction. Adding an existing edge or
  removing an absent one is a counted no-op (streams contain duplicates).
* :class:`AddNode` — appends one node with an attribute vector; the new
  node's id is the current node count.
* :class:`UpdateAttr` — overwrites one node's attribute vector.

An attribute vector must be finite: ``AddNode`` and ``UpdateAttr`` reject a
NaN or infinite entry at construction, naming its column, because one
non-finite attribute turns every score of the graph into NaN.

JSONL round-trips are exact: floats are serialised via ``repr`` (Python's
``json``), which reconstructs the same float64 bit pattern, so a replayed
log produces a graph with an identical :func:`~repro.graphs.io.graph_fingerprint`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple, Union

import numpy as np

from ..graphs.multiplex import MultiplexGraph
from ..utils.rng import ensure_rng


def _canonical_endpoints(u: int, v: int) -> Tuple[int, int]:
    u, v = int(u), int(v)
    if u < 0 or v < 0:
        raise ValueError(f"node ids must be non-negative, got ({u}, {v})")
    if u == v:
        raise ValueError(f"self-loop edge ({u}, {u}) is not a valid event")
    return (u, v) if u < v else (v, u)


def _finite_attrs(x) -> np.ndarray:
    """``x`` as a flat float64 vector, rejecting NaN and infinite entries."""
    attrs = np.asarray(x, dtype=np.float64).ravel()
    finite = np.isfinite(attrs)
    if not finite.all():
        col = int(np.argmin(finite))
        raise ValueError(
            f"'x' has a non-finite value ({attrs[col]}) at column {col}")
    return attrs


@dataclass(frozen=True)
class AddEdge:
    """Add one undirected edge to ``relation``."""

    relation: str
    u: int
    v: int

    op = "add_edge"

    def __post_init__(self):
        u, v = _canonical_endpoints(self.u, self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def to_dict(self) -> dict:
        return {"op": self.op, "rel": self.relation, "u": self.u, "v": self.v}


@dataclass(frozen=True)
class RemoveEdge:
    """Remove one undirected edge from ``relation``."""

    relation: str
    u: int
    v: int

    op = "remove_edge"

    def __post_init__(self):
        u, v = _canonical_endpoints(self.u, self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def to_dict(self) -> dict:
        return {"op": self.op, "rel": self.relation, "u": self.u, "v": self.v}


@dataclass(frozen=True, eq=False)
class AddNode:
    """Append one node; its attribute vector must match the graph's width."""

    x: np.ndarray

    op = "add_node"

    def __post_init__(self):
        object.__setattr__(self, "x", _finite_attrs(self.x))

    def __eq__(self, other) -> bool:
        # the generated __eq__ would bool an elementwise ndarray comparison
        return isinstance(other, AddNode) and np.array_equal(self.x, other.x)

    def to_dict(self) -> dict:
        return {"op": self.op, "x": self.x.tolist()}


@dataclass(frozen=True, eq=False)
class UpdateAttr:
    """Overwrite ``node``'s attribute vector."""

    node: int
    x: np.ndarray

    op = "update_attr"

    def __post_init__(self):
        if int(self.node) < 0:
            raise ValueError(f"node id must be non-negative, got {self.node}")
        object.__setattr__(self, "node", int(self.node))
        object.__setattr__(self, "x", _finite_attrs(self.x))

    def __eq__(self, other) -> bool:
        return (isinstance(other, UpdateAttr) and self.node == other.node
                and np.array_equal(self.x, other.x))

    def to_dict(self) -> dict:
        return {"op": self.op, "node": self.node, "x": self.x.tolist()}


Event = Union[AddEdge, RemoveEdge, AddNode, UpdateAttr]

EVENT_TYPES: Dict[str, type] = {
    AddEdge.op: AddEdge,
    RemoveEdge.op: RemoveEdge,
    AddNode.op: AddNode,
    UpdateAttr.op: UpdateAttr,
}


def parse_event(payload: dict) -> Event:
    """Reconstruct one event from its :meth:`to_dict` form."""
    op = payload.get("op")
    if op not in EVENT_TYPES:
        raise ValueError(
            f"unknown event op {op!r}; expected one of {sorted(EVENT_TYPES)}")
    try:
        if op in (AddEdge.op, RemoveEdge.op):
            return EVENT_TYPES[op](relation=payload["rel"],
                                   u=payload["u"], v=payload["v"])
        if op == AddNode.op:
            return AddNode(x=payload["x"])
        return UpdateAttr(node=payload["node"], x=payload["x"])
    except KeyError as exc:
        raise ValueError(f"op {op!r} is missing field {exc}") from None


# ---------------------------------------------------------------------------
# JSONL log I/O
# ---------------------------------------------------------------------------

def write_events(path, events: Iterable[Event], append: bool = False) -> int:
    """Write an event log as JSONL; returns the number of events written.

    Overwrites ``path`` unless ``append=True``, which extends an existing
    log (the line-oriented format makes appends safe).
    """
    count = 0
    with open(path, "a" if append else "w") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict()))
            handle.write("\n")
            count += 1
    return count


def read_events(path) -> Iterator[Event]:
    """Lazily yield events from a JSONL log written by :func:`write_events`."""
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            try:
                yield parse_event(payload)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad event: {exc}") from None


def bootstrap_events(graph: MultiplexGraph) -> List[Event]:
    """The event log that constructs ``graph`` from nothing.

    One :class:`AddNode` per node (in id order) followed by one
    :class:`AddEdge` per canonical edge per relation — replaying it through
    a fresh builder reproduces ``graph_fingerprint(graph)`` exactly.
    """
    events: List[Event] = [AddNode(x=row) for row in graph.x]
    for name, rel in graph.relations.items():
        events.extend(AddEdge(name, int(u), int(v)) for u, v in rel.edges)
    return events


# ---------------------------------------------------------------------------
# Synthetic event streams (normal churn + anomalous bursts)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BurstRecord:
    """One injected anomalous burst: which events, which nodes."""

    kind: str                 # "structural" | "attribute"
    start: int                # index of the burst's first event in the stream
    stop: int                 # one past the burst's last event
    nodes: np.ndarray
    relations: Tuple[str, ...] = ()


@dataclass
class StreamTruth:
    """Ground truth of a synthetic stream, for tests and walkthroughs."""

    bursts: List[BurstRecord] = field(default_factory=list)

    @property
    def anomaly_nodes(self) -> np.ndarray:
        if not self.bursts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([b.nodes for b in self.bursts]))

    def labels(self, num_nodes: int) -> np.ndarray:
        """0/1 anomaly vector over ``num_nodes`` (burst members are 1)."""
        labels = np.zeros(num_nodes, dtype=np.int64)
        nodes = self.anomaly_nodes
        labels[nodes[nodes < num_nodes]] = 1
        return labels


def synthesize_stream(
    graph: MultiplexGraph,
    num_events: int,
    rng,
    *,
    burst_every: int = 400,
    clique_size: int = 8,
    attr_burst_size: int = 6,
    max_relations_per_clique: int = 2,
    candidate_pool: int = 50,
    add_fraction: float = 0.55,
    remove_fraction: float = 0.2,
    attr_fraction: float = 0.15,
    attr_noise: float = 0.1,
) -> Tuple[List[Event], StreamTruth]:
    """Deterministic synthetic event stream starting from ``graph``.

    Normal churn (edge adds, removals of existing edges, small attribute
    jitter, occasional node arrivals) is interleaved with anomalous bursts
    every ``burst_every`` events, alternating between the two Ding et al.
    anomaly types in streaming form:

    * **structural burst** — ``clique_size`` existing nodes are fully
      connected in one or several relations via :class:`AddEdge` events
      (the streaming :func:`~repro.anomalies.injection.inject_structural_anomalies`);
    * **attribute burst** — ``attr_burst_size`` nodes each receive an
      :class:`UpdateAttr` overwriting their attributes with the
      max-distance donor from a sampled candidate pool (the streaming
      :func:`~repro.anomalies.injection.inject_attribute_anomalies`).

    The stream is valid by construction (removals target existing edges,
    ids stay in range) and fully determined by ``rng``. Returns
    ``(events, truth)`` where ``truth`` records every burst.
    """
    from ..anomalies.injection import clique_pairs, max_distance_donor
    from .builder import IncrementalGraphBuilder

    if num_events < 0:
        raise ValueError(f"num_events must be >= 0, got {num_events}")
    rng = ensure_rng(rng)
    builder = IncrementalGraphBuilder.from_graph(graph)
    names = list(graph.relation_names)
    events: List[Event] = []
    truth = StreamTruth()

    def emit(event: Event) -> None:
        builder.apply(event)
        events.append(event)

    def structural_burst() -> None:
        n = builder.num_nodes
        size = min(clique_size, n)
        if size < 2:
            return
        nodes = rng.choice(n, size=size, replace=False)
        n_rel = int(rng.integers(1, max_relations_per_clique + 1))
        rels = [str(r) for r in
                rng.choice(names, size=min(n_rel, len(names)), replace=False)]
        start = len(events)
        touched = set()
        for rel in rels:
            for u, v in clique_pairs(nodes):
                if not builder.has_edge(rel, int(u), int(v)):
                    emit(AddEdge(rel, int(u), int(v)))
                    touched.update((int(u), int(v)))
        if not touched:   # clique already fully present: nothing injected
            return
        # ground truth covers only nodes that actually gained an edge
        truth.bursts.append(BurstRecord(
            kind="structural", start=start, stop=len(events),
            nodes=np.array(sorted(touched), dtype=np.int64),
            relations=tuple(rels)))

    def attribute_burst() -> None:
        n = builder.num_nodes
        size = min(attr_burst_size, n)
        if size == 0:
            return
        # Donors and overwrite values come from the PRE-burst attributes
        # (a copy), matching inject_attribute_anomalies: victims earlier in
        # the burst must not become donors for later ones.
        x = builder.attributes().copy()
        nodes = rng.choice(n, size=size, replace=False)
        start = len(events)
        for node in nodes:
            candidates = rng.choice(n, size=min(candidate_pool, n),
                                    replace=False)
            donor = max_distance_donor(x, int(node), candidates)
            emit(UpdateAttr(int(node), x[donor].copy()))
        truth.bursts.append(BurstRecord(
            kind="attribute", start=start, stop=len(events),
            nodes=np.sort(nodes)))

    def churn_event() -> None:
        n = builder.num_nodes
        draw = rng.random()
        if draw >= add_fraction and draw < add_fraction + remove_fraction:
            # Remove a random existing edge from a random non-empty relation.
            non_empty = [r for r in names if builder.num_edges(r) > 0]
            if non_empty:
                rel = str(non_empty[int(rng.integers(len(non_empty)))])
                u, v = builder.edge_at(rel, int(rng.integers(builder.num_edges(rel))))
                emit(RemoveEdge(rel, u, v))
                return
            draw = 0.0  # nothing to remove: fall through to an edge add
        if draw < add_fraction:
            rel = str(names[int(rng.integers(len(names)))])
            for _attempt in range(8):
                u, v = rng.integers(0, n, size=2)
                if u != v and not builder.has_edge(rel, int(u), int(v)):
                    emit(AddEdge(rel, int(u), int(v)))
                    return
            draw = add_fraction + remove_fraction  # dense corner: jitter instead
        if draw < add_fraction + remove_fraction + attr_fraction:
            node = int(rng.integers(n))
            jitter = rng.normal(0.0, attr_noise, size=builder.num_features)
            emit(UpdateAttr(node, builder.attributes()[node] + jitter))
            return
        # Node arrival: attributes near a random existing node's profile.
        template = builder.attributes()[int(rng.integers(n))]
        noise = rng.normal(0.0, attr_noise, size=builder.num_features)
        emit(AddNode(template + noise))

    burst_kinds = ("structural", "attribute")
    next_burst = burst_every if burst_every else num_events + 1
    burst_index = 0
    while len(events) < num_events:
        if len(events) >= next_burst:
            # Bursts are emitted whole, so the stream may run slightly past
            # ``num_events``; truth records exact event ranges either way.
            if burst_kinds[burst_index % 2] == "structural":
                structural_burst()
            else:
                attribute_burst()
            burst_index += 1
            next_burst += burst_every
        else:
            churn_event()
    return events, truth
