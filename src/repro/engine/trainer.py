"""The shared training engine: one loop for UMGAD and every baseline.

Historically the repo had two divergent training loops — ``UMGAD.fit``'s
inline loop (early stopping, grad clipping, loss components, per-epoch
timing) and a bare loop the baselines shared (none of that). The
:class:`Trainer` consolidates them, and the baselines reach it through
:func:`repro.baselines.common.train_detector`: one epoch/batch loop, a
pluggable :class:`~repro.engine.batching.BatchStrategy`, and
:class:`Callback` hooks for gradient clipping, early stopping and
progress logging. Telemetry (loss history, per-component losses, epoch
timings, stop reason) accumulates in a :class:`TrainState`, the one
record of what training did: detectors keep it as ``train_state``,
serving refits report it, experiments plot it.

The loss callable takes one argument, a
:class:`~repro.engine.batching.GraphBatch`, and returns either a loss
:class:`Tensor` or a ``(loss, components)`` pair where ``components`` is
a ``str → float`` dict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..autograd import enable_grad
from ..graphs.multiplex import MultiplexGraph
from ..nn.module import Module
from ..nn.optim import Optimizer
from ..obs.trace import span
from .batching import BatchStrategy, FullGraphBatches, GraphBatch


@dataclass
class TrainState:
    """Everything one training run accumulates."""

    loss_history: List[float] = field(default_factory=list)
    loss_components: List[Dict[str, float]] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    batch_counts: List[int] = field(default_factory=list)
    epochs_run: int = 0
    best_loss: float = float("inf")
    stale_epochs: int = 0
    stop: bool = False
    stop_reason: Optional[str] = None

    @classmethod
    def concat(cls, states: Sequence["TrainState"]) -> "TrainState":
        """Merge sequential training runs (multi-stage fits like ADA-GAD)
        into one state whose totals cover every stage."""
        merged = cls()
        for state in states:
            merged.loss_history.extend(state.loss_history)
            merged.loss_components.extend(state.loss_components)
            merged.epoch_seconds.extend(state.epoch_seconds)
            merged.batch_counts.extend(state.batch_counts)
            merged.epochs_run += state.epochs_run
            merged.best_loss = min(merged.best_loss, state.best_loss)
            merged.stop = state.stop
            merged.stop_reason = state.stop_reason
        return merged

    @property
    def last_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))

    def to_dict(self) -> dict:
        """JSON-able training telemetry (serving / stream reports)."""
        # best_loss is early-stopping state (inf when no EarlyStopping
        # callback ran); report the observed minimum so the payload stays
        # strict-JSON either way.
        best = min(self.loss_history) if self.loss_history else None
        return {
            "epochs_run": self.epochs_run,
            "final_loss": self.last_loss if self.loss_history else None,
            "best_loss": best,
            "total_seconds": self.total_seconds,
            "stop_reason": self.stop_reason,
            "batches": int(sum(self.batch_counts)),
        }


class Callback:
    """Hook points around the training loop. All default to no-ops."""

    def after_backward(self, trainer: "Trainer", state: TrainState,
                       batch: GraphBatch) -> None:
        """Runs between ``loss.backward()`` and ``optimizer.step()``."""

    def on_epoch_end(self, trainer: "Trainer", state: TrainState,
                     epoch: int) -> None:
        pass


class GradClip(Callback):
    """Global-norm gradient clipping before every optimiser step."""

    def __init__(self, max_norm: float):
        if max_norm <= 0:
            raise ValueError(f"max_norm must be > 0, got {max_norm}")
        self.max_norm = float(max_norm)

    def after_backward(self, trainer, state, batch) -> None:
        trainer.optimizer.clip_grad_norm(self.max_norm)


class EarlyStopping(Callback):
    """Stop when the epoch loss fails to improve by ``min_delta`` for
    ``patience`` consecutive epochs (the historical ``UMGAD.fit`` rule)."""

    def __init__(self, patience: int, min_delta: float = 1e-3,
                 verbose: bool = False):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.verbose = bool(verbose)

    def on_epoch_end(self, trainer, state, epoch) -> None:
        loss = state.last_loss
        if loss < state.best_loss - self.min_delta:
            state.best_loss = loss
            state.stale_epochs = 0
        else:
            state.stale_epochs += 1
            if state.stale_epochs >= self.patience:
                state.stop = True
                state.stop_reason = (
                    f"early stop at epoch {epoch} "
                    f"(no improvement for {state.stale_epochs} epochs)")
                if self.verbose:
                    print(state.stop_reason)


class ProgressLogger(Callback):
    """Print the epoch loss (and components) every ``every`` epochs,
    matching the historical ``UMGAD.fit(verbose=True)`` format."""

    def __init__(self, every: int = 1):
        self.every = max(1, int(every))

    def on_epoch_end(self, trainer, state, epoch) -> None:
        if epoch % self.every == 0:
            parts = state.loss_components[-1] if state.loss_components else {}
            print(f"epoch {epoch:4d} loss {state.last_loss:.4f} "
                  + " ".join(f"{k}={v:.3f}" for k, v in parts.items()))


class Trainer:
    """Generic epoch/batch optimisation loop.

    Parameters
    ----------
    model:
        The :class:`~repro.nn.module.Module` being trained (used only for
        introspection; the optimiser already holds its parameters).
    optimizer:
        A constructed :class:`~repro.nn.optim.Optimizer`.
    batch_strategy:
        A :class:`BatchStrategy`; defaults to :class:`FullGraphBatches`,
        which reproduces the historical full-batch loops exactly.
    callbacks:
        :class:`Callback` instances, invoked in order at each hook.
    """

    def __init__(self, model: Module, optimizer: Optimizer, *,
                 batch_strategy: Optional[BatchStrategy] = None,
                 callbacks: Sequence[Callback] = ()):
        self.model = model
        self.optimizer = optimizer
        self.batch_strategy = batch_strategy or FullGraphBatches()
        self.callbacks: List[Callback] = list(callbacks)

    # ------------------------------------------------------------------
    @staticmethod
    def _split_result(result) -> tuple:
        """Normalise ``loss`` / ``(loss, components)`` returns."""
        if isinstance(result, tuple):
            loss, parts = result
            return loss, dict(parts)
        return result, {}

    # ------------------------------------------------------------------
    def fit(self, graph: Optional[MultiplexGraph], loss_fn: Callable,
            epochs: int) -> TrainState:
        """Run up to ``epochs`` epochs; returns the accumulated state.

        ``loss_fn(batch)`` is called once per batch. ``graph`` may be
        ``None`` only with the full-graph strategy, whose one batch then
        carries no graph.
        """
        state = TrainState()
        if graph is None and \
                not isinstance(self.batch_strategy, FullGraphBatches):
            raise ValueError(
                "minibatch strategies need the training graph; pass graph=")

        for epoch in range(int(epochs)):
            start = time.perf_counter()
            batch_losses: List[float] = []
            parts_sum: Dict[str, float] = {}
            # enable_grad: training must record the tape even when the fit
            # runs inside an ambient no_grad() region (e.g. a
            # drift-triggered refit launched from a scoring loop).
            with enable_grad(), span("train.epoch") as epoch_span:
                epoch_span.set("epoch", epoch)
                for batch in self.batch_strategy.batches(graph, epoch):
                    loss, parts = self._split_result(loss_fn(batch))
                    self.optimizer.zero_grad()
                    if loss.requires_grad:
                        loss.backward()
                    # else: a constant loss (e.g. every component ablated
                    # away) — backward() would raise on the tape-free
                    # tensor, and there is nothing to optimise anyway
                    for callback in self.callbacks:
                        callback.after_backward(self, state, batch)
                    self.optimizer.step()
                    batch_losses.append(float(loss.data))
                    for key, value in parts.items():
                        parts_sum[key] = parts_sum.get(key, 0.0) + float(value)
                epoch_span.set("batches", len(batch_losses))
            count = max(len(batch_losses), 1)
            state.loss_history.append(float(np.mean(batch_losses))
                                      if batch_losses else float("nan"))
            state.loss_components.append(
                {k: v / count for k, v in parts_sum.items()})
            state.epoch_seconds.append(time.perf_counter() - start)
            state.batch_counts.append(len(batch_losses))
            state.epochs_run = epoch + 1
            for callback in self.callbacks:
                callback.on_epoch_end(self, state, epoch)
            if state.stop:
                break
        if state.stop_reason is None and state.epochs_run:
            state.stop_reason = "completed"
        return state
