"""Online anomaly monitoring over a multiplex event stream.

:class:`StreamMonitor` closes the loop between ingestion and detection:
it consumes events through fixed-size windows, maintains the evolving
graph with an :class:`~repro.stream.builder.IncrementalGraphBuilder`,
scores every window snapshot through a
:class:`~repro.serve.service.DetectorService` (passing the builder's
incrementally-maintained fingerprint so the serve cache never rehashes;
the service runs each scoring pass on the grad-free inference engine —
:func:`repro.autograd.no_grad` — while drift-triggered refits re-enable
gradients through the training engine), tracks per-node score
trajectories, and raises typed alerts:

* :class:`TopKEntrant` — a node entered the top-``k`` ranking that was not
  there in the previous window;
* :class:`ScoreJump` — a node's score jumped by more than ``jump_sigma``
  robust standard deviations of this window's score deltas;
* :class:`DriftAlert` — the score *distribution* drifted from the
  reference window beyond a PSI threshold (a KS statistic is reported
  alongside);
* :class:`RefitAlert` — drift triggered the pluggable refit policy: a new
  detector was fitted on the current snapshot and hot-swapped into the
  service.

Windows are tumbling by default (``stride == window``); a smaller
``stride`` slides the scoring cadence so consecutive snapshots overlap in
event history.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..detection import BaseDetector
from ..obs.metrics import Collected, dict_families, stat_families
from ..obs.trace import span
from ..graphs.multiplex import MultiplexGraph
from ..serve.service import DetectorService, ServiceError
from .builder import IncrementalGraphBuilder
from .events import Event
from .wal import (
    _SNAPSHOT_GLOB,
    WriteAheadLog,
    recover_builder,
    save_snapshot,
    snapshot_meta,
)

#: (stats_dict() key, family, kind, HELP); the wal_* keys need a WAL
_FAMILIES = (
    ("events_consumed", "monitor_events_total", "counter",
     "Stream events consumed."),
    ("windows_scored", "monitor_windows_total", "counter",
     "Stream windows scored."),
    ("alerts_raised", "monitor_alerts_total", "counter",
     "Stream alerts raised."),
    ("buffered", "monitor_buffered_events", "gauge",
     "Events buffered toward the next window."),
    ("wal_last_seq", "wal_last_seq", "gauge",
     "Highest WAL sequence number written."),
    ("recovered", "wal_recovered", "gauge",
     "1 when the stream state was restored from a WAL at startup."),
)

# ---------------------------------------------------------------------------
# Drift statistics
# ---------------------------------------------------------------------------

def psi(reference: np.ndarray, current: np.ndarray, bins: int = 10,
        eps: float = 1e-4) -> float:
    """Population stability index between two score samples.

    Bin edges are the ``bins``-quantiles of ``reference``; PSI is
    ``Σ (p_i − q_i) ln(p_i / q_i)`` over the binned mass. The usual rule
    of thumb: < 0.1 stable, 0.1–0.25 moderate shift, > 0.25 drifted.
    """
    reference = np.asarray(reference, dtype=np.float64).ravel()
    current = np.asarray(current, dtype=np.float64).ravel()
    if reference.size == 0 or current.size == 0:
        raise ValueError("psi needs non-empty score samples")
    quantiles = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.unique(np.quantile(reference, quantiles))
    ref_counts = np.histogram(reference, np.concatenate(
        [[-np.inf], edges, [np.inf]]))[0]
    cur_counts = np.histogram(current, np.concatenate(
        [[-np.inf], edges, [np.inf]]))[0]
    p = ref_counts / reference.size + eps
    q = cur_counts / current.size + eps
    return float(np.sum((p - q) * np.log(p / q)))


def ks_statistic(reference: np.ndarray, current: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (max CDF distance)."""
    reference = np.sort(np.asarray(reference, dtype=np.float64).ravel())
    current = np.sort(np.asarray(current, dtype=np.float64).ravel())
    if reference.size == 0 or current.size == 0:
        raise ValueError("ks_statistic needs non-empty score samples")
    grid = np.concatenate([reference, current])
    cdf_ref = np.searchsorted(reference, grid, side="right") / reference.size
    cdf_cur = np.searchsorted(current, grid, side="right") / current.size
    return float(np.abs(cdf_ref - cdf_cur).max())


# ---------------------------------------------------------------------------
# Alerts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopKEntrant:
    """A node newly entered the top-``k`` anomaly ranking."""

    node: int
    score: float
    rank: int

    kind = "top_k_entrant"


@dataclass(frozen=True)
class ScoreJump:
    """A node's score jumped far beyond this window's typical delta."""

    node: int
    previous: float
    current: float
    jump: float

    kind = "score_jump"


@dataclass(frozen=True)
class DriftAlert:
    """The score distribution drifted from the reference window."""

    psi: float
    ks: float
    threshold: float

    kind = "drift"


@dataclass(frozen=True)
class RefitAlert:
    """Drift triggered the refit policy; the service detector was swapped.

    ``epochs`` / ``seconds`` report what the refit's training run cost
    (from the new detector's :class:`repro.engine.TrainState`; zero when
    the refit callable returned a detector without engine telemetry).
    """

    psi: float
    epochs: int = 0
    seconds: float = 0.0

    kind = "refit"


def alert_dict(alert) -> dict:
    """JSON-able form of any alert (adds the ``kind`` discriminator)."""
    return {"kind": alert.kind, **asdict(alert)}


# ---------------------------------------------------------------------------
# Window reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowReport:
    """Everything the monitor derived from one scored window."""

    index: int
    events: Dict[str, int]            # ApplyStats.to_dict() of this window
    num_nodes: int
    total_edges: int
    fingerprint: str
    score_mean: float
    score_max: float
    top: Tuple[Tuple[int, float], ...]
    alerts: Tuple[object, ...]
    psi: Optional[float]
    ks: Optional[float]
    refit: bool
    seconds: float

    def to_dict(self) -> dict:
        return {
            "window": self.index,
            "events": dict(self.events),
            "num_nodes": self.num_nodes,
            "total_edges": self.total_edges,
            "fingerprint": self.fingerprint,
            "score_mean": self.score_mean,
            "score_max": self.score_max,
            "top": [{"node": node, "score": score} for node, score in self.top],
            "alerts": [alert_dict(a) for a in self.alerts],
            "psi": self.psi,
            "ks": self.ks,
            "refit": self.refit,
            "seconds": self.seconds,
        }

    def render(self) -> str:
        """One-paragraph human-readable summary."""
        counts = self.events
        psi_part = f" psi={self.psi:.3f}" if self.psi is not None else ""
        lines = [
            f"window {self.index:3d} | "
            f"+{counts['added_edges']}/-{counts['removed_edges']} edges, "
            f"+{counts['added_nodes']} nodes, "
            f"{counts['updated_attrs']} attr updates | "
            f"n={self.num_nodes} E={self.total_edges} | "
            f"max={self.score_max:.3f} mean={self.score_mean:.3f}"
            f"{psi_part} | {len(self.alerts)} alert(s) "
            f"[{self.seconds * 1e3:.1f} ms]"
        ]
        for alert in self.alerts:
            payload = alert_dict(alert)
            kind = payload.pop("kind")
            details = " ".join(f"{k}={v:.4g}" if isinstance(v, float)
                               else f"{k}={v}" for k, v in payload.items())
            lines.append(f"  ! {kind}: {details}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The monitor
# ---------------------------------------------------------------------------

class StreamMonitor:
    """Consume an event stream, score windows, raise alerts.

    Parameters
    ----------
    service:
        A :class:`DetectorService` whose detector can score new graphs
        (a UMGAD checkpoint, or any detector exposing ``score_graph``).
    builder:
        The :class:`IncrementalGraphBuilder` holding the evolving graph
        (pre-seeded with the base graph, or empty for bootstrap streams).
    window:
        Span of event history (in events) that top-k-entrant and
        score-jump comparisons cover: each snapshot is compared against
        the snapshot from ``~window`` events earlier.
    stride:
        Events between scored snapshots; defaults to ``window`` (tumbling
        windows — every comparison is against the immediately previous
        snapshot). A smaller stride slides the cadence: snapshots fire
        every ``stride`` events while comparisons still span the trailing
        ``window``. Must satisfy ``1 <= stride <= window``.
    top_k:
        Ranking size used for :class:`TopKEntrant` alerts.
    jump_sigma:
        :class:`ScoreJump` fires when a node's score delta exceeds this
        many robust standard deviations (MAD-based) of the window's deltas.
    psi_threshold:
        :class:`DriftAlert` fires when PSI vs the reference window exceeds
        this value.
    refit:
        Optional ``graph -> fitted BaseDetector`` callable. When drift
        fires and the cooldown has elapsed, the monitor refits on the
        current snapshot, hot-swaps the service detector, and resets the
        drift reference.
    refit_cooldown:
        Minimum number of windows between refits.
    history:
        How many recent windows of scores to keep for trajectories.
    wal:
        Optional :class:`~repro.stream.wal.WriteAheadLog`. Every ingested
        batch is durably logged *before* it is buffered, and a ``window``
        marker (carrying the builder fingerprint and monitor counters) is
        written after each scored window — the invariants
        :func:`open_monitor` relies on to resume. A monitor whose WAL is
        empty writes an initial snapshot of a non-empty seed builder, so
        recovery never needs the original base graph.
    snapshot_every:
        Windows between builder snapshots (WAL segments covered by a
        snapshot are pruned). 0 disables periodic snapshots.
    """

    def __init__(self, service: DetectorService,
                 builder: IncrementalGraphBuilder, *,
                 window: int = 500, stride: Optional[int] = None,
                 top_k: int = 10, jump_sigma: float = 6.0,
                 psi_threshold: float = 0.25, psi_bins: int = 10,
                 max_jump_alerts: int = 20,
                 refit: Optional[Callable[..., BaseDetector]] = None,
                 refit_cooldown: int = 5, history: int = 32,
                 wal: Optional[WriteAheadLog] = None,
                 snapshot_every: int = 10):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        stride = window if stride is None else stride
        if not 1 <= stride <= window:
            raise ValueError(
                f"stride must be in [1, window={window}], got {stride}")
        self.service = service
        self.builder = builder
        self.window = int(window)
        self.stride = int(stride)
        self.top_k = int(top_k)
        self.jump_sigma = float(jump_sigma)
        self.psi_threshold = float(psi_threshold)
        self.psi_bins = int(psi_bins)
        self.max_jump_alerts = int(max_jump_alerts)
        self.refit = refit
        self.refit_cooldown = int(refit_cooldown)

        self.windows_scored = 0
        self.events_consumed = 0
        self.alerts_raised = 0
        #: events :meth:`ingest` has logged (with a WAL) and buffered since
        #: this monitor was built; a caller whose batch raised reads how
        #: much of it was kept from the difference
        self.events_logged = 0
        #: recent reports only (bounded like score history) — long-running
        #: monitors must not grow linearly in windows scored; callers that
        #: need every report keep the ones run()/ingest() hand them
        self.reports: Deque[WindowReport] = deque(maxlen=history)
        self._buffer: List[Event] = []
        self._history: Deque[Tuple[int, np.ndarray]] = deque(maxlen=history)
        self._reference: Optional[np.ndarray] = None
        # Trailing (scores, top-k set) snapshots; the oldest entry is
        # ~window events back and is what jump/entrant alerts compare to.
        self._recent: Deque[Tuple[np.ndarray, set]] = deque(
            maxlen=max(1, round(self.window / self.stride)))
        self._last_refit_window = -10**9
        self.wal = wal
        self.snapshot_every = int(snapshot_every)
        #: True when this monitor's state was restored from disk
        self.recovered = False
        if wal is not None and wal.last_seq == 0 \
                and builder.num_nodes > 0 \
                and not any(wal.directory.glob(_SNAPSHOT_GLOB)):
            # A builder seeded from a base graph is not reconstructible
            # from the (empty) WAL alone: checkpoint it now, or the first
            # crash would be unrecoverable.
            self._write_snapshot()

    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[Event]) -> List[WindowReport]:
        """Durably log one ingested batch, then buffer it, scoring every
        window that fills. This is the WAL-ordered write path: events are
        on disk before any of them can affect monitor state. Batches that
        span several windows are logged in window-sized chunks so no WAL
        record ever crosses a ``window`` marker — the invariant that lets
        a mid-batch snapshot record an empty pending buffer."""
        events = list(events)
        reports: List[WindowReport] = []
        start = 0
        while start < len(events):
            chunk = events[start:start + self.stride - len(self._buffer)]
            start += len(chunk)
            if self.wal is not None:
                self.wal.append(
                    "events",
                    {"events": [event.to_dict() for event in chunk]})
            self.events_logged += len(chunk)
            self._buffer.extend(chunk)
            if len(self._buffer) >= self.stride:
                # Unbuffer before applying: a window whose scoring raises
                # has still applied its events, and must not apply them
                # again with the next window.
                batch, self._buffer = self._buffer, []
                reports.append(self._score_window(batch))
        return reports

    def run(self, events: Iterable[Event]) -> Iterator[WindowReport]:
        """Lazily consume ``events``, yielding a report every ``stride``
        events. Call :meth:`flush` afterwards to score a partial tail.
        With a WAL, events are logged in stride-sized batches."""
        batch: List[Event] = []
        for event in events:
            batch.append(event)
            if len(batch) >= self.stride:
                for report in self.ingest(batch):
                    yield report
                batch = []
        if batch:
            for report in self.ingest(batch):
                yield report

    def flush(self) -> Optional[WindowReport]:
        """Score whatever partial window is buffered, if anything."""
        if not self._buffer:
            return None
        batch, self._buffer = self._buffer, []
        return self._score_window(batch)

    def checkpoint(self) -> None:
        """Snapshot current state to the WAL directory (e.g. at shutdown).

        Buffered-but-unscored events are stored inside the snapshot, so
        a clean shutdown leaves nothing to replay."""
        if self.wal is not None:
            self._write_snapshot()

    def _write_snapshot(self, snapshot=None,
                        pending: Optional[List[Event]] = None) -> None:
        """Checkpoint builder state at the WAL's current head."""
        if self.builder.num_nodes == 0:
            return
        if snapshot is None:
            snapshot = self.builder.snapshot()
        meta = snapshot_meta(
            self.builder, record_seq=self.wal.last_seq,
            windows_scored=self.windows_scored,
            events_consumed=self.events_consumed,
            alerts_raised=self.alerts_raised,
            pending=self._buffer if pending is None else pending)
        save_snapshot(self.wal.directory, snapshot, meta)
        self.wal.prune(self.wal.last_seq)

    def trajectory(self, node: int) -> List[Tuple[int, float]]:
        """``(window_index, score)`` history of one node (recent windows)."""
        return [(index, float(scores[node]))
                for index, scores in self._history if node < scores.size]

    @property
    def buffered(self) -> int:
        """Events held toward the next window (not yet scored)."""
        return len(self._buffer)

    def stats_dict(self) -> Dict[str, int]:
        """JSON-able monitor counters (the serve gateway's /metrics feed)."""
        stats = {
            "events_consumed": self.events_consumed,
            "windows_scored": self.windows_scored,
            "alerts_raised": self.alerts_raised,
            "buffered": self.buffered,
            "num_nodes": self.builder.num_nodes,
        }
        if self.wal is not None:
            stats["recovered"] = int(self.recovered)
            stats["wal_last_seq"] = self.wal.last_seq
        return stats

    def collect(self) -> Collected:
        """The ``monitor_*`` families, plus its WAL's ``wal_*`` families;
        :meth:`stats_dict` is the deep-health entry."""
        stats = self.stats_dict()
        families = dict_families(stats, _FAMILIES)
        if self.wal is not None:
            families += stat_families(self.wal.stats, "wal")
        return Collected(families, stats)

    # ------------------------------------------------------------------
    def _score_window(self, batch: List[Event]) -> WindowReport:
        with span("stream.window") as window_span:
            window_span.set("window", self.windows_scored)
            window_span.set("events", len(batch))
            report = self._score_window_body(batch)
            window_span.set("alerts", len(report.alerts))
            window_span.set("refit", report.refit)
            return report

    def _score_window_body(self, batch: List[Event]) -> WindowReport:
        start = time.perf_counter()
        with span("stream.apply"):
            stats = self.builder.apply(batch)
            self.events_consumed += len(batch)
            snapshot = self.builder.snapshot()
            fingerprint = self.builder.fingerprint()
        scores = self.service.scores(snapshot, fingerprint=fingerprint)

        index = self.windows_scored
        alerts: List[object] = []

        # --- distribution drift + refit policy ----------------------------
        # Evaluated first: a refit replaces ``scores``, and every ranking,
        # alert and statistic below must describe the detector the report
        # actually reflects.
        psi_value = ks_value = None
        refitted = False
        if self._reference is None:
            self._reference = scores
        else:
            psi_value = psi(self._reference, scores, bins=self.psi_bins)
            ks_value = ks_statistic(self._reference, scores)
            if psi_value > self.psi_threshold:
                alerts.append(DriftAlert(psi=psi_value, ks=ks_value,
                                         threshold=self.psi_threshold))
                cooled = (index - self._last_refit_window
                          >= self.refit_cooldown)
                if self.refit is not None and cooled:
                    detector = self.refit(snapshot)
                    epochs, seconds = self.service.replace_detector(detector)
                    self._last_refit_window = index
                    self._reference = None   # re-baseline on the next window
                    refitted = True
                    alerts.append(RefitAlert(psi=psi_value, epochs=epochs,
                                             seconds=seconds))
                    scores = self.service.scores(snapshot,
                                                 fingerprint=fingerprint)
                    # old-detector snapshots are not a meaningful baseline
                    self._recent.clear()

        order = np.argsort(-scores)
        k = min(self.top_k, scores.size)
        top = tuple((int(i), float(scores[i])) for i in order[:k])
        current_top = {node for node, _ in top}

        # Baseline for jump/entrant comparisons: the snapshot ~window
        # events back (the oldest retained one; with tumbling windows
        # that is simply the previous snapshot).
        base_scores, base_top = (self._recent[0] if self._recent
                                 else (None, None))

        # --- new top-k entrants -------------------------------------------
        if base_top is not None:
            for rank, (node, score) in enumerate(top):
                if node not in base_top:
                    alerts.append(TopKEntrant(node=node, score=score,
                                              rank=rank))

        # --- per-node score jumps -----------------------------------------
        if base_scores is not None:
            common = min(base_scores.size, scores.size)
            deltas = scores[:common] - base_scores[:common]
            if common:
                center = float(np.median(deltas))
                sigma = 1.4826 * float(np.median(np.abs(deltas - center)))
                if sigma <= 0.0:
                    sigma = max(float(deltas.std()), 1e-12)
                cutoff = center + self.jump_sigma * sigma
                jumpers = np.flatnonzero(deltas > cutoff)
                jumpers = jumpers[np.argsort(-deltas[jumpers])]
                for node in jumpers[:self.max_jump_alerts]:
                    alerts.append(ScoreJump(
                        node=int(node),
                        previous=float(base_scores[node]),
                        current=float(scores[node]),
                        jump=float(deltas[node])))

        self._history.append((index, scores))
        self._recent.append((scores, current_top))
        self.windows_scored += 1
        self.alerts_raised += len(alerts)

        if self.wal is not None:
            # The marker commits this window: recovery applies the logged
            # events up to here and verifies the same fingerprint. A crash
            # between apply and this append replays the window's events as
            # pending (at-least-once scoring, never lost, never doubled
            # into the builder).
            self.wal.append("window", {
                "fingerprint": fingerprint,
                "windows_scored": self.windows_scored,
                "events_consumed": self.events_consumed,
                "alerts_raised": self.alerts_raised,
            })
            if self.snapshot_every and \
                    self.windows_scored % self.snapshot_every == 0:
                self._write_snapshot(snapshot, pending=[])

        report = WindowReport(
            index=index,
            events=stats.to_dict(),
            num_nodes=snapshot.num_nodes,
            total_edges=snapshot.total_edges(),
            fingerprint=fingerprint,
            score_mean=float(scores.mean()),
            score_max=float(scores.max()),
            top=top,
            alerts=tuple(alerts),
            psi=psi_value,
            ks=ks_value,
            refit=refitted,
            seconds=time.perf_counter() - start,
        )
        self.reports.append(report)
        return report


def open_monitor(service: DetectorService, *,
                 wal: Optional[WriteAheadLog] = None,
                 base_graph: Optional[MultiplexGraph] = None,
                 **monitor_kwargs) -> StreamMonitor:
    """Start a :class:`StreamMonitor`, resuming ``wal``'s state if any.

    A ``wal`` that holds records or a snapshot is the durable truth about
    what was already ingested: the monitor is rebuilt from its snapshot
    plus record replay, bitwise-identical to the crashed run (events past
    the last window marker come back as the pending buffer). Otherwise
    the builder starts from ``base_graph``, or empty with the served
    detector's relation schema. The caller opens the WAL, so fsync stays
    its choice. Extra kwargs go to the constructor.

    Raises :class:`ServiceError` when a fresh builder needs a schema (no
    base graph) and the detector records none; recovery needs one only
    when the WAL holds no snapshot yet.
    """
    if base_graph is not None:
        names = base_graph.relation_names
        num_features = base_graph.num_features
    else:
        names = getattr(service.detector, "_relation_names", None)
        num_features = getattr(service.detector, "_num_features", None)
    if wal is not None and (wal.last_seq > 0
                            or any(wal.directory.glob(_SNAPSHOT_GLOB))):
        state = recover_builder(wal, relation_names=names,
                                num_features=num_features)
        monitor = StreamMonitor(service, state.builder, wal=wal,
                                **monitor_kwargs)
        monitor.windows_scored = state.windows_scored
        monitor.events_consumed = state.events_consumed
        monitor.alerts_raised = state.alerts_raised
        monitor._buffer = list(state.pending)
        monitor.recovered = state.recovered
        return monitor
    if base_graph is not None:
        builder = IncrementalGraphBuilder.from_graph(base_graph)
    elif names and num_features:
        builder = IncrementalGraphBuilder(relation_names=names,
                                          num_features=num_features)
    else:
        raise ServiceError(
            "the served checkpoint records no relation schema; start from "
            "an initial graph snapshot (--graph) instead")
    return StreamMonitor(service, builder, wal=wal, **monitor_kwargs)
