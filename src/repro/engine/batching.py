"""Batch strategies: what slice of the graph one optimisation step sees.

The training engine (:mod:`repro.engine.trainer`) is agnostic about *what*
it trains on; a :class:`BatchStrategy` turns the training graph into a
sequence of :class:`GraphBatch` objects per epoch.

* :class:`FullGraphBatches` — one batch per epoch containing the whole
  graph. This is the default and reproduces the historical full-batch
  training loops bit-for-bit (the batch carries the *same* graph object,
  so cached propagators and the model's RNG stream are untouched).
* :class:`SubgraphBatches` — RWR-sampled node-induced multiplex subgraphs
  (the paper's own efficiency device, Fig. 7 / Table III, promoted from
  scoring time to training time). Each batch is a fresh
  :class:`~repro.graphs.multiplex.MultiplexGraph` over the sampled block,
  so per-relation propagators are built on the sampled block only. The
  sampler is reseeded deterministically per ``(seed, epoch)``: a run is
  reproducible regardless of how many random draws the model itself makes,
  and two runs with the same seed see identical batch schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..graphs.multiplex import MultiplexGraph
from ..graphs.sampling import induced_multiplex, sample_rwr_subgraphs


@dataclass(frozen=True)
class GraphBatch:
    """One unit of work for the trainer.

    Attributes
    ----------
    graph:
        The (sub)graph this optimisation step trains on. For full-batch
        strategies this is the training graph itself (same object).
    nodes:
        Original node ids of ``graph``'s rows, or ``None`` when the batch
        covers the full graph in original order.
    index / epoch:
        Position of this batch within the epoch, and the epoch number.
    """

    graph: MultiplexGraph
    nodes: Optional[np.ndarray] = None
    index: int = 0
    epoch: int = 0

    @property
    def is_full(self) -> bool:
        return self.nodes is None

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


class BatchStrategy:
    """Produces the batches of one training epoch."""

    def batches(self, graph: MultiplexGraph,
                epoch: int) -> Iterator[GraphBatch]:  # pragma: no cover
        raise NotImplementedError


class FullGraphBatches(BatchStrategy):
    """The historical behavior: every epoch is one pass over the whole
    graph. Numerically identical to the pre-engine training loops."""

    def batches(self, graph: MultiplexGraph, epoch: int) -> Iterator[GraphBatch]:
        yield GraphBatch(graph=graph, nodes=None, index=0, epoch=epoch)


class SubgraphBatches(BatchStrategy):
    """RWR-sampled node-induced multiplex subgraph minibatches.

    Parameters
    ----------
    batch_size:
        Target number of nodes per batch. Each batch unions RWR walks
        (``walk_size`` nodes around each seed, sampled on the merged
        graph so every relation contributes connectivity) until the
        target is reached.
    batches_per_epoch:
        How many subgraph batches (optimisation steps) one epoch runs.
    walk_size:
        Nodes collected per RWR walk before the next seed is drawn.
    restart_prob:
        RWR restart probability.
    seed:
        Base seed; epoch ``e`` samples with ``default_rng([seed, e])`` so
        the schedule is deterministic per epoch and independent of the
        model's own RNG consumption.
    """

    def __init__(self, batch_size: int = 256, batches_per_epoch: int = 1,
                 walk_size: int = 32, restart_prob: float = 0.3,
                 seed: int = 0):
        if batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {batch_size}")
        if batches_per_epoch < 1:
            raise ValueError(
                f"batches_per_epoch must be >= 1, got {batches_per_epoch}")
        if walk_size < 1:
            raise ValueError(f"walk_size must be >= 1, got {walk_size}")
        self.batch_size = int(batch_size)
        self.batches_per_epoch = int(batches_per_epoch)
        self.walk_size = int(walk_size)
        self.restart_prob = float(restart_prob)
        self.seed = int(seed if seed is not None else 0)

    # ------------------------------------------------------------------
    def sample_nodes(self, graph: MultiplexGraph,
                     rng: np.random.Generator) -> np.ndarray:
        """Union RWR walks on the merged graph up to ``batch_size`` nodes."""
        target = min(self.batch_size, graph.num_nodes)
        merged = graph.merged()
        collected: list = []
        seen = 0
        # Walks are cheap relative to the training step; cap the seed count
        # so a shattered graph (all isolated nodes) cannot loop forever.
        max_rounds = max(4, 2 * (target // max(self.walk_size, 1) + 1))
        member = np.zeros(graph.num_nodes, dtype=bool)
        for _ in range(max_rounds):
            if seen >= target:
                break
            sets = sample_rwr_subgraphs(
                merged, num_subgraphs=1, subgraph_size=self.walk_size,
                rng=rng, restart_prob=self.restart_prob)
            for nodes in sets:
                fresh = nodes[~member[nodes]]
                member[fresh] = True
                collected.append(fresh)
                seen += fresh.size
        # Truncate overshoot in walk-arrival order BEFORE sorting: sorting
        # first and then slicing would always drop the highest node ids,
        # systematically undersampling them across a training run.
        nodes = (np.concatenate(collected)[:target] if collected
                 else np.arange(min(target, graph.num_nodes)))
        if nodes.size < 2:
            # Degenerate (near-empty) graphs: fall back to a uniform draw so
            # the loss is still defined on at least two nodes.
            nodes = rng.choice(graph.num_nodes,
                               size=min(2, graph.num_nodes), replace=False)
        return np.sort(nodes)

    def batches(self, graph: MultiplexGraph, epoch: int) -> Iterator[GraphBatch]:
        rng = np.random.default_rng([self.seed, int(epoch)])
        for b in range(self.batches_per_epoch):
            nodes = self.sample_nodes(graph, rng)
            sub = induced_multiplex(graph, nodes)
            yield GraphBatch(graph=sub, nodes=nodes, index=b, epoch=epoch)


def make_batch_strategy(batch: str, *, batch_size: int = 256,
                        batches_per_epoch: int = 1, walk_size: int = 32,
                        restart_prob: float = 0.3,
                        seed: Optional[int] = 0) -> BatchStrategy:
    """Build a strategy from a config string (``"full"`` | ``"subgraph"``)."""
    if batch == "full":
        return FullGraphBatches()
    if batch == "subgraph":
        return SubgraphBatches(batch_size=batch_size,
                               batches_per_epoch=batches_per_epoch,
                               walk_size=walk_size,
                               restart_prob=restart_prob,
                               seed=0 if seed is None else seed)
    raise ValueError(f"unknown batch strategy {batch!r}; "
                     "expected 'full' or 'subgraph'")
