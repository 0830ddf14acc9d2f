"""The detector contract shared by UMGAD and every baseline.

A detector is fit on a :class:`~repro.graphs.multiplex.MultiplexGraph`
*without labels*, produces per-node anomaly scores (higher = more
anomalous), and can turn scores into 0/1 predictions under either of the
paper's two protocols:

* **unsupervised** — the inflection-point threshold of Sec. IV-E
  (no ground-truth information), used for Table II/III;
* **ground-truth leakage** — top-``k`` with the known anomaly count,
  used for Table V.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .graphs.multiplex import MultiplexGraph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from .core.threshold import ThresholdResult
    from .engine import TrainState


class BaseDetector:
    """Abstract unsupervised graph anomaly detector."""

    #: set by subclasses once :meth:`fit` finishes
    _scores: Optional[np.ndarray] = None

    #: the :class:`~repro.engine.TrainState` of the last engine-trained
    #: fit; ``None`` for detectors that train no network (and for
    #: detectors loaded from a checkpoint)
    train_state: Optional["TrainState"] = None

    #: (scores array, window, result) of the last threshold selection;
    #: keyed by identity so a refit (new scores array) invalidates it
    _threshold_cache: Optional[Tuple[np.ndarray, Optional[int], "ThresholdResult"]] = None

    def fit(self, graph: MultiplexGraph) -> "BaseDetector":  # pragma: no cover
        raise NotImplementedError

    @property
    def loss_history(self) -> List[float]:
        """Per-epoch training loss, read from :attr:`train_state`."""
        state = self.train_state
        return state.loss_history if state is not None else []

    @property
    def loss_components(self) -> List[Dict[str, float]]:
        """Per-epoch loss components, read from :attr:`train_state`."""
        state = self.train_state
        return state.loss_components if state is not None else []

    def decision_scores(self) -> np.ndarray:
        """Per-node anomaly scores from the last :meth:`fit` call."""
        if self._scores is None:
            raise RuntimeError(
                f"{type(self).__name__}.decision_scores() called before fit()"
            )
        return self._scores

    # ------------------------------------------------------------------
    def threshold(self, window: Optional[int] = None) -> "ThresholdResult":
        """Unsupervised inflection-point threshold over the fitted scores.

        The result is cached per (scores, window) so repeated calls —
        including every :meth:`predict` — reuse one selection; serving
        (:mod:`repro.serve`) relies on this to checkpoint and replay the
        fitted :class:`~repro.core.threshold.ThresholdResult`.
        """
        from .core.threshold import select_threshold

        scores = self.decision_scores()
        cached = self._threshold_cache
        if cached is not None and cached[0] is scores and cached[1] == window:
            return cached[2]
        result = select_threshold(scores, window=window)
        self._threshold_cache = (scores, window, result)
        return result

    def predict(self, window: Optional[int] = None) -> np.ndarray:
        """0/1 predictions under the real-unsupervised protocol."""
        result = self.threshold(window=window)
        return (self.decision_scores() >= result.threshold).astype(np.int64)

    def predict_with_known_count(self, num_anomalies: int) -> np.ndarray:
        """0/1 predictions under the ground-truth-leakage protocol."""
        from .eval.metrics import predictions_from_topk

        return predictions_from_topk(self.decision_scores(), num_anomalies)

    def fit_predict(self, graph: MultiplexGraph,
                    window: Optional[int] = None) -> np.ndarray:
        self.fit(graph)
        return self.predict(window=window)

    # ------------------------------------------------------------------
    def save(self, path, graph: Optional[MultiplexGraph] = None):
        """Checkpoint this fitted detector to ``path`` (see
        :mod:`repro.serve.checkpoint`); returns the written path."""
        from .serve.checkpoint import save_checkpoint

        return save_checkpoint(path, self, graph=graph)
