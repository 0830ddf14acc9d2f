"""Multiplex heterogeneous graph: R relational subgraphs over shared nodes.

Matches Definition 1 of the paper: ``G = {G_1 .. G_R}`` where each relational
subgraph shares the node set ``V`` and attribute matrix ``X`` but has its own
edge set ``E_r``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..autograd.tensor import get_default_dtype
from .graph import RelationGraph


def check_attributes(x: np.ndarray, dtype=np.float32) -> None:
    """Raise ``ValueError`` at the first attribute a ``dtype`` pass cannot
    score: NaN, infinite, or so large that casting it to ``dtype`` gives
    ``inf``, which turns every score of the graph into NaN. The message
    names the value, its row (for a matrix) and its column.

    The float32 default is the serving pass's precision; ``np.float64``
    rejects only non-finite values.
    """
    if x.size == 0:
        return
    edge = _overflow_edge(dtype)
    if -edge < x.min() and x.max() < edge:  # NaN fails both comparisons
        return
    index = tuple(int(i) for i in np.argwhere(~(np.abs(x) < edge))[0])
    value = float(x[index])
    where = (f"row {index[0]}, column {index[1]}" if len(index) == 2
             else f"column {index[-1]}")
    if np.isfinite(value):
        info = np.finfo(dtype)
        raise ValueError(
            f"out-of-range attribute ({value!r}) at {where}: past "
            f"{info.dtype.name}'s largest value {float(info.max):.8g}")
    raise ValueError(f"non-finite attribute ({value}) at {where}")


@functools.lru_cache(maxsize=None)
def _overflow_edge(dtype) -> float:
    """The smallest magnitude a cast to ``dtype`` rounds to ``inf``: half
    a unit in the last place past the largest finite value (``inf`` for
    float64, where that sum itself rounds up)."""
    info = np.finfo(dtype)
    ulp = float(info.max) - float(np.nextafter(info.max, info.dtype.type(0)))
    return float(info.max) + ulp / 2


@dataclass
class MultiplexGraph:
    """A multiplex heterogeneous graph (Definition 1).

    Attributes
    ----------
    x:
        ``(n, f)`` node attribute matrix shared across relations.
    relations:
        Ordered mapping of relation name → :class:`RelationGraph`; every
        subgraph must have ``num_nodes == n``.
    """

    x: np.ndarray
    relations: Dict[str, RelationGraph]
    _merged: Optional[RelationGraph] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # Attributes follow the autograd default dtype (float64 unless the
        # caller opted into float32 via autograd.set_default_dtype / the
        # CLI --dtype flag), so precision is consistent end to end.
        self.x = np.asarray(self.x, dtype=get_default_dtype())
        if self.x.ndim != 2:
            raise ValueError(f"attribute matrix must be 2-D, got shape {self.x.shape}")
        for name, rel in self.relations.items():
            if rel.num_nodes != self.num_nodes:
                raise ValueError(
                    f"relation {name!r} has {rel.num_nodes} nodes, expected "
                    f"{self.num_nodes}"
                )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.x.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.x.shape[1])

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def relation_names(self) -> List[str]:
        return list(self.relations.keys())

    def __iter__(self) -> Iterator[Tuple[str, RelationGraph]]:
        return iter(self.relations.items())

    def __getitem__(self, name: str) -> RelationGraph:
        return self.relations[name]

    # ------------------------------------------------------------------
    def merged(self) -> RelationGraph:
        """Union of all relational edge sets (the "flattened" single graph
        non-multi-view baselines operate on)."""
        if self._merged is None:
            parts = [rel.edges for rel in self.relations.values()]
            edges = (np.concatenate(parts, axis=0) if parts
                     else np.empty((0, 2), dtype=np.int64))
            self._merged = RelationGraph(self.num_nodes, edges, name="merged")
        return self._merged

    def with_features(self, x: np.ndarray) -> "MultiplexGraph":
        """Same structure, different attribute matrix (no copies of edges)."""
        if x.shape[0] != self.num_nodes:
            raise ValueError(
                f"feature rows {x.shape[0]} != num_nodes {self.num_nodes}"
            )
        return MultiplexGraph(x=np.asarray(x, dtype=get_default_dtype()),
                              relations=dict(self.relations))

    def with_relations(self, relations: Dict[str, RelationGraph]) -> "MultiplexGraph":
        """Same attributes, different relational structure."""
        return MultiplexGraph(x=self.x, relations=relations)

    def total_edges(self) -> int:
        return sum(rel.num_edges for rel in self.relations.values())

    def stats(self) -> Dict[str, int]:
        """Per-relation edge counts plus node count (Table I row material)."""
        out = {"nodes": self.num_nodes, "features": self.num_features}
        for name, rel in self.relations.items():
            out[f"edges[{name}]"] = rel.num_edges
        return out

    def __repr__(self) -> str:
        rels = ", ".join(f"{n}:{r.num_edges}" for n, r in self.relations.items())
        return (f"MultiplexGraph(nodes={self.num_nodes}, f={self.num_features}, "
                f"relations=[{rels}])")
