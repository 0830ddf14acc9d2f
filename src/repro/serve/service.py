"""Long-lived detector serving with a fingerprint-keyed LRU result cache.

A :class:`DetectorService` loads a checkpoint (or adopts a fitted detector)
once and then answers repeated requests — full-graph scoring, per-node
lookups, top-k queries, threshold decisions and per-node explanations —
without ever refitting. Results are cached per graph *content* (the sha256
fingerprint from :func:`repro.graphs.io.graph_fingerprint`), so asking
about the same graph twice costs one dict lookup, regardless of object
identity.

The service is **thread-safe** (it sits under the threaded HTTP gateway in
:mod:`repro.server`): cache bookkeeping is guarded by an :class:`~threading.RLock`,
and concurrent misses on the same fingerprint are **dog-pile protected** —
one thread computes, the rest wait on the in-flight result instead of
launching redundant scoring passes. A :meth:`DetectorService.replace_detector`
hot-swap bumps an internal generation counter so scoring passes that were
already running against the old detector cannot poison the new detector's
cache.

The service is also the one place that decides *where* a pass runs: in
this process (the thread tier), or on an ``executor`` such as
:class:`repro.pool.ProcessPool` (the process tier). Both tiers share the
dedup, the generation guard, the LRU and the miss count above.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .. import chaos
from ..detection import BaseDetector
from ..graphs.io import graph_fingerprint
from ..graphs.multiplex import MultiplexGraph
from ..obs.metrics import Collected, family, gauge, metric, stat_families
from ..obs.trace import annotate, span
from .checkpoint import load_checkpoint


class ServiceError(RuntimeError):
    """A serving request the loaded detector cannot answer."""


class NonFiniteScoresError(RuntimeError):
    """A scoring pass returned NaN or infinite scores (never cached).

    Not a :class:`ServiceError`: the request was valid, the pass failed,
    so the gateway answers 500 rather than 409.
    """


@dataclass
class ServiceStats:
    """Cache + refit telemetry for one :class:`DetectorService`."""

    hits: int = metric("counter", "DetectorService cache hits.",
                       name="cache_hits")
    misses: int = metric(
        "counter", "DetectorService cache misses (scoring passes).",
        name="cache_misses")
    evictions: int = metric("counter", "DetectorService LRU evictions.",
                            name="cache_evictions")
    #: hot-swaps performed via :meth:`DetectorService.replace_detector`
    refits: int = metric("counter",
                         "Detector hot-swaps (activations + refits).")
    #: engine epochs spent across those refits (from the detectors'
    #: :class:`repro.engine.TrainState` when available)
    refit_epochs: int = metric("counter",
                               "Training epochs spent across refits.")
    refit_seconds: float = metric(
        "counter", "Training seconds spent across refits.", default=0.0)

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        """JSON-able cache telemetry (perfbench, examples)."""
        return {**asdict(self), "requests": self.requests,
                "hit_rate": self.hit_rate}


@dataclass
class _CacheEntry:
    """Everything derived for one graph, computed lazily on demand.

    Not the graph itself: it and its operator caches are freed once the
    caller drops it, unless an explainer (which keeps it) was built.
    """

    fingerprint: str
    scores: np.ndarray
    threshold: Optional[object] = None          # ThresholdResult
    explainer: Optional[object] = None          # AnomalyExplainer
    order: Optional[np.ndarray] = field(default=None, repr=False)

    def ranking(self) -> np.ndarray:
        if self.order is None:
            self.order = np.argsort(-self.scores)
        return self.order


@dataclass
class _InFlight:
    """One in-progress scoring pass other threads can wait on."""

    done: threading.Event = field(default_factory=threading.Event)
    entry: Optional[_CacheEntry] = None
    error: Optional[BaseException] = None


class DetectorService:
    """Load once, score many times.

    Parameters
    ----------
    model:
        A checkpoint path (anything :func:`repro.serve.checkpoint.load_checkpoint`
        accepts) or an already-fitted :class:`~repro.detection.BaseDetector`.
    cache_size:
        Maximum number of distinct graphs whose results stay cached; the
        least recently used entry is evicted beyond that.
    match_dtype:
        Forwarded to :func:`~repro.serve.checkpoint.load_checkpoint` when
        ``model`` is a path: by default the process adopts the precision
        the checkpoint was trained at, so graphs built afterwards
        fingerprint-match the trained graph (keeping the stored-scores
        fast path for float32 models). This sets the process-global
        autograd default dtype — pass ``False`` when the caller manages
        precision itself (the CLI resolves --dtype up front) or when
        serving mixed-precision checkpoints in one process; call
        :func:`repro.autograd.set_default_dtype` to restore a previous
        precision.
    executor:
        Where cold scoring passes run. ``None`` (the thread tier) runs
        ``score_graph`` in this process; anything with a
        ``score(graph, fingerprint)`` method, such as
        :class:`repro.pool.ProcessPool`, runs them there instead, so
        distinct fingerprints score in parallel across processes. The
        trained graph is always answered here from its stored scores.
    """

    def __init__(self, model, cache_size: int = 8, match_dtype: bool = True,
                 executor=None):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if isinstance(model, BaseDetector):
            self.detector = model
            self.checkpoint_path = None
        else:
            self.detector = load_checkpoint(model, match_dtype=match_dtype)
            self.checkpoint_path = model
        #: fingerprint of the graph the stored decision_scores() belong to
        self.trained_fingerprint: Optional[str] = \
            self._infer_trained_fingerprint(self.detector)
        self.cache_size = cache_size
        self.executor = executor
        self.stats = ServiceStats()
        self._cache: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        # Reentrant: threshold/explain helpers take it while _entry holds it.
        self._lock = threading.RLock()
        # Serialises in-process scoring passes (distinct fingerprints —
        # dog-pile dedup only collapses identical ones); executor passes run
        # outside it, so they stay parallel across processes. A UMGAD pass
        # no longer needs it to stay deterministic: its generator, precision
        # and eval-mode weights are explicit, its operator-cache fills are
        # idempotent and grad mode is per thread. On a 2-core host, a
        # distinct-fingerprint herd of 8 HTTP requests (4 workers per tier)
        # was answered by the process tier (repro.pool) 1.18-1.45x faster
        # than by the thread tier over 9 reps (median 1.26x) with the gate,
        # and 1.05-1.26x over 6 reps (median 1.18x) without it. Re-pricing
        # it, and deleting it, waits for serve-mix to drive the server from
        # an out-of-process client (ROADMAP item 3).
        self._score_gate = threading.Lock()
        self._inflight: dict = {}
        # Bumped by replace_detector so stale scoring passes never cache.
        self._generation = 0

    @staticmethod
    def _infer_trained_fingerprint(detector: BaseDetector) -> Optional[str]:
        header = getattr(detector, "_checkpoint_header", {}) or {}
        fingerprint = header.get("graph_fingerprint")
        if fingerprint is None:
            trained_graph = getattr(detector, "_graph", None)
            if trained_graph is not None:
                fingerprint = graph_fingerprint(trained_graph)
        return fingerprint

    def replace_detector(self, detector: BaseDetector) -> Tuple[int, float]:
        """Hot-swap the served detector (e.g. after a drift-triggered refit).

        Clears the result cache — cached entries belong to the old
        detector — and re-derives the trained-graph fingerprint from the
        new one. The refit's training cost (epochs / wall-clock seconds,
        from the detector's ``train_state``; ``(0, 0.0)`` without one) is
        accumulated into :class:`ServiceStats` and returned, so callers
        (the stream monitor's refit alerts) can report the per-refit cost
        without diffing the cumulative stats.
        """
        if not isinstance(detector, BaseDetector):
            raise TypeError(
                f"replace_detector needs a fitted BaseDetector, got "
                f"{type(detector).__name__}")
        state = detector.train_state
        epochs, seconds = ((int(state.epochs_run), float(state.total_seconds))
                           if state is not None else (0, 0.0))
        fingerprint = self._infer_trained_fingerprint(detector)
        with self._lock:
            self._generation += 1
            self.detector = detector
            self.checkpoint_path = None
            self.trained_fingerprint = fingerprint
            self._cache.clear()
            self.stats.refits += 1
            self.stats.refit_epochs += epochs
            self.stats.refit_seconds += seconds
        return epochs, seconds

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _compute_scores(self, graph: MultiplexGraph,
                        fingerprint: str) -> np.ndarray:
        # Deterministic fault injection: a fault keyed on this fingerprint
        # poisons exactly this request's scoring pass (chaos tests pin
        # that herd-mates on other fingerprints keep scoring normally).
        chaos.fail_point("service.score", key=fingerprint)
        detector = self.detector
        if fingerprint == self.trained_fingerprint and \
                detector._scores is not None:
            annotate("score_source", "stored")
            return detector.decision_scores()
        score_graph = getattr(detector, "score_graph", None)
        if score_graph is None:
            raise ServiceError(
                f"{type(detector).__name__} keeps no reusable networks, so "
                "it can only serve the graph it was fitted on (fingerprint "
                "mismatch); refit or serve a UMGAD checkpoint instead")
        executor = self.executor
        if executor is not None:
            with span("service.score_pass"):
                return executor.score(graph, fingerprint)
        with self._score_gate, span("service.score_pass"):
            return score_graph(graph)

    def _entry(self, graph: MultiplexGraph,
               fingerprint: Optional[str] = None) -> _CacheEntry:
        if fingerprint is None:
            fingerprint = graph_fingerprint(graph)
        leader = False
        with self._lock:
            entry = self._cache.get(fingerprint)
            if entry is not None:
                self.stats.hits += 1
                self._cache.move_to_end(fingerprint)
                annotate("cache", "hit")
                return entry
            waiter = self._inflight.get(fingerprint)
            if waiter is None:
                # This thread becomes the leader and computes.
                leader = True
                waiter = _InFlight()
                self._inflight[fingerprint] = waiter
                generation = self._generation
        if leader:
            annotate("cache", "miss")
            return self._compute_entry(graph, fingerprint, waiter, generation)
        # Follower: another thread is already scoring this fingerprint;
        # wait for its result instead of duplicating the pass (dog-pile
        # protection for the threaded server's worst case — a thundering
        # herd of identical cold requests).
        annotate("cache", "wait")
        waiter.done.wait()
        if waiter.error is not None:
            raise waiter.error
        with self._lock:
            self.stats.hits += 1
        return waiter.entry

    def _compute_entry(self, graph: MultiplexGraph, fingerprint: str,
                       waiter: _InFlight, generation: int) -> _CacheEntry:
        """Leader path: run the scoring pass, publish, wake followers."""
        try:
            scores = self._compute_scores(graph, fingerprint)
        except BaseException as exc:
            with self._lock:
                waiter.error = exc
                self._inflight.pop(fingerprint, None)
            waiter.done.set()
            raise
        entry = error = None
        finite = np.isfinite(scores)
        if finite.all():
            entry = _CacheEntry(fingerprint=fingerprint, scores=scores)
        else:
            bad = np.flatnonzero(~finite)
            error = NonFiniteScoresError(
                f"scoring pass returned {bad.size} non-finite score(s) of "
                f"{scores.size}, first at node {int(bad[0])}")
        with self._lock:
            self.stats.misses += 1
            if entry is not None and self._generation == generation:
                # Skip caching when the detector was hot-swapped mid-pass:
                # these scores belong to the replaced detector.
                self._cache[fingerprint] = entry
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                    self.stats.evictions += 1
            waiter.entry, waiter.error = entry, error
            self._inflight.pop(fingerprint, None)
        waiter.done.set()
        if error is not None:
            raise error
        return entry

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def cache_info(self) -> dict:
        """Occupancy of the result cache, for telemetry.

        ``bytes`` counts the scores and, once a ``top_k`` built it, the
        ranking order of each entry. An explained entry also pins its
        explainer and the graph it holds; those are not counted.
        """
        with self._lock:
            entries = len(self._cache)
            total = 0
            for entry in self._cache.values():
                total += int(entry.scores.nbytes)
                if entry.order is not None:
                    total += int(entry.order.nbytes)
            return {
                "entries": entries,
                "capacity": self.cache_size,
                "bytes": total,
                "inflight": len(self._inflight),
            }

    def collect(self, graphs=()) -> Collected:
        """The ``service_*`` families and the deep-health entry, plus
        per-relation ``propagator_cache_*`` gauges summed over the trained
        graph and ``graphs`` (other long-lived graphs whose operator
        caches grow with traffic, e.g. the stream builder's seed)."""
        with self._lock:
            stats = replace(self.stats)
            cache = self.cache_info()
            trained = self.trained_fingerprint
            warm = trained is not None and self.is_warm(trained)
        entries, nbytes = Counter(), Counter()
        long_lived = (getattr(self.detector, "_graph", None), *graphs)
        for graph in {id(g): g for g in long_lived if g is not None}.values():
            for name, relation in graph:
                info = relation.cache_info()
                entries[name] += info["entries"]
                nbytes[name] += info["bytes"]
        families = stat_families(stats, "service") + [
            gauge("service_cache_entries",
                  "Graphs resident in the DetectorService LRU cache.",
                  cache["entries"]),
            gauge("service_cache_bytes",
                  "Bytes pinned by the DetectorService LRU cache.",
                  cache["bytes"]),
        ]
        if entries:
            relations = sorted(entries)
            families += [
                family("propagator_cache_entries", "gauge",
                       "Lazily-built graph operators resident, by relation.",
                       [({"relation": name}, entries[name])
                        for name in relations]),
                family("propagator_cache_bytes", "gauge",
                       "Bytes held by cached graph operators, by relation.",
                       [({"relation": name}, nbytes[name])
                        for name in relations]),
            ]
        return Collected(families, {
            "warm": warm,
            "cache_entries": cache["entries"],
            "cache_capacity": cache["capacity"],
            "cache_bytes": cache["bytes"],
            "inflight": cache["inflight"],
            "hit_rate": stats.hit_rate,
        })

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def scores(self, graph: MultiplexGraph,
               fingerprint: Optional[str] = None) -> np.ndarray:
        """Per-node anomaly scores for ``graph`` (cached).

        ``fingerprint`` lets callers that already know the graph's content
        hash — the incremental builder in :mod:`repro.stream` maintains it
        in O(delta) — skip the full rehash. It MUST equal
        :func:`~repro.graphs.io.graph_fingerprint` of ``graph``.
        """
        with span("service.scores") as sp:
            entry = self._entry(graph, fingerprint)
            sp.set("nodes", int(entry.scores.size))
            return entry.scores

    def cached_scores(self, fingerprint: str) -> Optional[np.ndarray]:
        """Scores for a fingerprint *without* the graph, or ``None``.

        Answers from the LRU cache, or from the detector's stored fitted
        scores when ``fingerprint`` is the trained graph's. The HTTP
        gateway (:mod:`repro.server`) uses this for fingerprint-only
        ``/v1/score`` requests, which carry no edge/attribute payload and
        therefore can only be served from warm state.
        """
        with self._lock:
            entry = self._cache.get(fingerprint)
            if entry is not None:
                self.stats.hits += 1
                self._cache.move_to_end(fingerprint)
                return entry.scores
            if fingerprint == self.trained_fingerprint and \
                    self.detector._scores is not None:
                self.stats.hits += 1
                return self.detector.decision_scores()
        return None

    def is_warm(self, fingerprint: str) -> bool:
        """True when this fingerprint needs no new scoring pass: its
        scores are cached, already being computed by another thread, or
        stored from the fit. The micro-batcher uses this to skip the
        batching linger — lingering only buys anything when the batch
        would otherwise pay a fresh pass."""
        with self._lock:
            if fingerprint in self._cache or fingerprint in self._inflight:
                return True
            return fingerprint == self.trained_fingerprint and \
                self.detector._scores is not None

    def cached_threshold(self, fingerprint: str):
        """Threshold result for a cached fingerprint, or ``None`` on miss."""
        detector = None
        with self._lock:
            entry = self._cache.get(fingerprint)
            if entry is None and fingerprint == self.trained_fingerprint \
                    and self.detector._scores is not None:
                detector = self.detector
        # Selection is O(n log n) over the scores — run it after releasing
        # the (reentrant) lock so cache hits elsewhere are not blocked.
        if entry is not None:
            return self._entry_threshold(entry)
        if detector is not None:
            return detector.threshold()
        return None

    def score_node(self, graph: MultiplexGraph, node: int) -> float:
        """One node's anomaly score."""
        scores = self.scores(graph)
        node = int(node)
        if not 0 <= node < scores.size:
            raise IndexError(f"node {node} out of range [0, {scores.size})")
        return float(scores[node])

    def top_k(self, graph: MultiplexGraph,
              k: int = 10) -> List[Tuple[int, float]]:
        """The ``k`` highest-scoring nodes as (node, score) pairs."""
        entry = self._entry(graph)
        with self._lock:
            order = entry.ranking()[:max(int(k), 0)]
        return [(int(i), float(entry.scores[i])) for i in order]

    def _entry_threshold(self, entry: _CacheEntry):
        from ..core.threshold import select_threshold

        with self._lock:
            if entry.threshold is not None:
                return entry.threshold
            trained = entry.fingerprint == self.trained_fingerprint
            detector = self.detector
        # Select outside the lock (it is O(n log n) over the scores) and
        # publish under it; concurrent selectors race benignly — first
        # result wins, same inputs either way.
        if trained:
            # reuse the fitted (possibly checkpoint-restored) result
            result = detector.threshold()
        else:
            result = select_threshold(entry.scores)
        with self._lock:
            if entry.threshold is None:
                entry.threshold = result
            return entry.threshold

    def threshold(self, graph: MultiplexGraph):
        """The label-free inflection-point threshold for ``graph``'s scores."""
        return self._entry_threshold(self._entry(graph))

    def predict(self, graph: MultiplexGraph) -> np.ndarray:
        """0/1 anomaly flags under the unsupervised threshold."""
        entry = self._entry(graph)
        result = self._entry_threshold(entry)
        return (entry.scores >= result.threshold).astype(np.int64)

    def explain(self, graph: MultiplexGraph, node: int, top_features: int = 5):
        """Evidence bundle for one node (UMGAD checkpoints only)."""
        from ..core.explain import AnomalyExplainer
        from ..core.model import UMGAD

        if not isinstance(self.detector, UMGAD):
            raise ServiceError(
                f"explanations need a UMGAD checkpoint, got "
                f"{type(self.detector).__name__}")
        entry = self._entry(graph)
        with self._lock:
            explainer = entry.explainer
            detector = self.detector
        if explainer is None:
            # Built outside the lock (full forward passes); first one in
            # publishes, racers discard their copy.
            explainer = AnomalyExplainer(detector, graph,
                                         scores=entry.scores)
            with self._lock:
                if entry.explainer is None:
                    entry.explainer = explainer
                explainer = entry.explainer
        return explainer.explain(node, top_features=top_features)
