"""Unified training engine shared by UMGAD and every learned baseline.

* :class:`Trainer` / :class:`TrainState` — the epoch/batch loop, which
  calls ``loss_fn(batch)`` once per batch, and the one record of what it
  did (loss history, component losses, epoch timings, stop reason).
* :class:`Callback` hooks — :class:`GradClip`, :class:`EarlyStopping`,
  :class:`ProgressLogger`.
* Batch strategies — :class:`FullGraphBatches` (default, numerically
  identical to the historical full-batch loops) and
  :class:`SubgraphBatches` (RWR-sampled node-induced multiplex minibatches
  for large-graph training).
"""

from .batching import (
    BatchStrategy,
    FullGraphBatches,
    GraphBatch,
    SubgraphBatches,
    make_batch_strategy,
)
from .trainer import (
    Callback,
    EarlyStopping,
    GradClip,
    ProgressLogger,
    Trainer,
    TrainState,
)

__all__ = [
    "BatchStrategy",
    "Callback",
    "EarlyStopping",
    "FullGraphBatches",
    "GradClip",
    "GraphBatch",
    "ProgressLogger",
    "SubgraphBatches",
    "Trainer",
    "TrainState",
    "make_batch_strategy",
]
