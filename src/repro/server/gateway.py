"""The serving gateway: request handling logic behind the HTTP layer.

:class:`Gateway` wires every fast path grown in PRs 1–4 into one
queryable object — checkpointed :class:`~repro.serve.service.DetectorService`
scoring behind a :class:`~repro.server.batcher.MicroBatcher`, stream
ingestion through :class:`~repro.stream.IncrementalGraphBuilder` +
:class:`~repro.stream.StreamMonitor`, and a
:class:`~repro.serve.registry.ModelRegistry` for listing and hot-swapping
named checkpoints. It speaks plain dicts, not HTTP: the
:mod:`repro.server.app` handler translates payloads and maps
:class:`GatewayError` / :class:`~repro.server.batcher.AdmissionError` to
status codes, which keeps all of this directly unit-testable without a
socket.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, List, Optional

from .. import chaos
from ..graphs.io import graph_fingerprint
from ..graphs.multiplex import MultiplexGraph
from ..obs.hist import DURATION_BOUNDS, Histogram
from ..obs.metrics import (Collected, counter, family, gauge, histogram,
                           render)
from ..obs import runtime
from ..obs.trace import TraceStore, annotate, span
from ..serve.registry import ModelRegistry
from ..serve.service import DetectorService, ServiceError
from ..stream.events import parse_event
from ..stream.monitor import StreamMonitor, open_monitor
from ..stream.wal import WriteAheadLog
from .batcher import DeadlineExceeded, MicroBatcher
from .breaker import CircuitBreaker
from .protocol import (
    ProtocolError,
    graph_from_payload,
    parse_nodes,
    score_response,
)
from .slo import SLOObjective, SLOTracker

#: endpoints whose latency burns the SLO — infrastructure endpoints
#: (metrics scrapes, health probes) are excluded by listing what counts
SLO_ENDPOINTS = frozenset({"score", "events", "models", "activate",
                           "traces"})

SERVER_NAME = "repro-server"
API_VERSION = "v1"

#: fingerprints whose last known-good scores back degraded answers
_STALE_CACHE_SIZE = 64


class GatewayError(RuntimeError):
    """A request the gateway refuses, with the HTTP status to send."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = int(status)


class Gateway:
    """Everything the HTTP endpoints do, minus the HTTP.

    Parameters
    ----------
    service:
        The detector service answering score requests (thread-safe).
    registry:
        Optional :class:`ModelRegistry` backing the ``/v1/models``
        endpoints; without one those endpoints return 409.
    active_model:
        Name to report for the currently served checkpoint (when it came
        from the registry).
    base_graph:
        Optional initial snapshot seeding the event-stream builder; when
        omitted, the builder bootstraps an empty graph from the served
        detector's relation schema on the first ``/v1/events`` request.
    workers / max_queue / linger_ms:
        Forwarded to the :class:`MicroBatcher`.
    exec_tier:
        ``"thread"`` (default) scores in-process; ``"process"`` forks a
        :class:`repro.pool.ProcessPool` of ``worker_procs`` scoring
        processes, each loading its own copy of the active checkpoint,
        and makes it ``service``'s executor — distinct-fingerprint passes
        then run in true parallel. Falls back to the thread tier
        (recorded in ``pool_fallback_reason`` and the startup log) when
        the workers cannot be started.
    worker_procs:
        Scoring processes for the process tier (ignored for threads).
    request_timeout:
        Seconds a score request may wait on its batch before the gateway
        gives up with a 503.
    window / stride / top_k / psi_threshold / jump_sigma:
        Forwarded to the :class:`StreamMonitor` (first events request).
    slo_window / slo_p99_seconds / slo_error_ratio / slo_sustain:
        The per-endpoint SLO: tumbling windows of ``slo_window`` requests
        are judged against the p99/error objectives; ``slo_sustain``
        consecutive violating windows flip ``/healthz`` to 503.
    """

    def __init__(self, service: DetectorService, *,
                 registry: Optional[ModelRegistry] = None,
                 active_model: Optional[str] = None,
                 base_graph: Optional[MultiplexGraph] = None,
                 workers: int = 2, max_queue: int = 64,
                 linger_ms: float = 2.0, request_timeout: float = 60.0,
                 window: int = 500, stride: Optional[int] = None,
                 top_k: int = 10, psi_threshold: float = 0.25,
                 jump_sigma: float = 6.0, trace_capacity: int = 128,
                 slo_window: int = 100, slo_p99_seconds: float = 2.5,
                 slo_error_ratio: float = 0.02, slo_sustain: int = 2,
                 wal_dir=None, snapshot_every: int = 10,
                 wal_fsync: bool = True,
                 breaker_failures: int = 3,
                 breaker_reset_seconds: float = 30.0,
                 exec_tier: str = "thread",
                 worker_procs: int = 2):
        self.service = service
        self.registry = registry
        self.active_model = active_model
        if exec_tier not in ("thread", "process"):
            raise ValueError(
                f"exec_tier must be 'thread' or 'process', got {exec_tier!r}")
        # The pool must exist before ANY thread this constructor starts
        # (the batcher's workers): the default start method is
        # fork, and forking a multi-threaded process is where the dragons
        # live. Pool startup failure is a degradation, not an error — the
        # thread tier serves every request the process tier would.
        self.pool = None
        self.exec_tier = "thread"
        self.pool_fallback_reason: Optional[str] = None
        if exec_tier == "process":
            from ..pool import PoolUnavailable, ProcessPool
            try:
                self.pool = ProcessPool(service.detector,
                                        workers=worker_procs)
                self.exec_tier = "process"
                service.executor = self.pool
            except PoolUnavailable as exc:
                self.pool_fallback_reason = str(exc)
        self.batcher = MicroBatcher(service, workers=workers,
                                    max_queue=max_queue, linger_ms=linger_ms)
        self.request_timeout = float(request_timeout)
        self._monitor_kwargs = dict(window=window, stride=stride, top_k=top_k,
                                    psi_threshold=psi_threshold,
                                    jump_sigma=jump_sigma,
                                    snapshot_every=snapshot_every)
        self._base_graph = base_graph
        self._wal_dir = wal_dir
        self._wal_fsync = bool(wal_fsync)
        self.monitor: Optional[StreamMonitor] = None
        self._monitor_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._requests: Dict[tuple, int] = {}
        #: ring buffer of completed request traces (GET /v1/traces)
        self.traces = TraceStore(trace_capacity)
        self._hist_lock = threading.Lock()
        self._endpoint_hist: Dict[str, Histogram] = {}
        self._stage_hist: Dict[str, Histogram] = {}
        #: per-endpoint rolling/tumbling SLO bookkeeping (healthz + /metrics)
        self.slo = SLOTracker(
            window=slo_window,
            objective=SLOObjective(p99_seconds=slo_p99_seconds,
                                   error_ratio=slo_error_ratio),
            sustain=slo_sustain)
        #: per-fingerprint circuit breaker: repeated scoring failures for
        #: one graph trip it open, after which requests for that graph are
        #: answered from the stale-score cache (degraded) or refused (503)
        #: instead of burning batch capacity on a known failure
        self.breaker = CircuitBreaker(failure_threshold=breaker_failures,
                                      reset_timeout=breaker_reset_seconds)
        self._stale_lock = threading.Lock()
        #: last known-good scores per fingerprint (LRU-bounded): the
        #: degraded-mode answer while a breaker is open
        self._stale_scores: "OrderedDict[str, object]" = OrderedDict()
        self._degraded_served = 0
        self._started = time.monotonic()
        if wal_dir is not None:
            # Recover stream state at startup, not on the first request:
            # a restarted server resumes exactly where the crash left it
            # (a corrupt WAL fails fast here). Without a schema source the
            # monitor stays lazy, as before.
            with self._monitor_lock:
                try:
                    self._ensure_monitor()
                except GatewayError:
                    pass

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def record(self, endpoint: str, status: int,
               seconds: Optional[float] = None) -> None:
        """Count one answered request (called by the HTTP handler).

        ``seconds`` — the request's wall duration — additionally feeds the
        per-endpoint latency histogram exported at ``/metrics`` and the
        SLO tracker (server faults — status >= 500 — burn the error
        budget; 4xx is load shedding doing its job).
        """
        with self._counter_lock:
            key = (endpoint, int(status))
            self._requests[key] = self._requests.get(key, 0) + 1
        if seconds is not None:
            with self._hist_lock:
                hist = self._endpoint_hist.get(endpoint)
                if hist is None:
                    hist = self._endpoint_hist[endpoint] = \
                        Histogram(DURATION_BOUNDS)
            hist.observe(seconds)
            if endpoint in SLO_ENDPOINTS:
                self.slo.observe(endpoint, seconds,
                                 error=int(status) >= 500)

    def observe_trace(self, payload: dict) -> None:
        """Fold one completed trace's span durations into the per-stage
        latency histograms (span names are a small static set, so the
        metric cardinality stays bounded)."""
        for span_dict in payload.get("spans", ()):
            name = span_dict["name"]
            with self._hist_lock:
                hist = self._stage_hist.get(name)
                if hist is None:
                    hist = self._stage_hist[name] = \
                        Histogram(DURATION_BOUNDS)
            hist.observe(span_dict["wall_ms"] / 1e3)

    # ------------------------------------------------------------------
    # GET /v1/traces
    # ------------------------------------------------------------------
    def traces_payload(self, last: Optional[int] = None,
                       trace_id: Optional[str] = None) -> dict:
        """Recently completed traces, newest first (``GET /v1/traces``)."""
        if trace_id is not None:
            found = self.traces.get(trace_id)
            if found is None:
                raise GatewayError(f"trace {trace_id!r} not found "
                                   "(ring capacity "
                                   f"{self.traces.capacity})", 404)
            return {"traces": [found]}
        if last is not None and (last < 1):
            raise GatewayError("'last' must be a positive integer", 400)
        return {"traces": self.traces.last(last),
                "capacity": self.traces.capacity,
                "stored": len(self.traces)}

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    # ------------------------------------------------------------------
    # POST /v1/score
    # ------------------------------------------------------------------
    def score(self, payload: dict,
              deadline_ms: Optional[float] = None) -> dict:
        # Latency-injection site: a `latency` fault here simulates a slow
        # dependency in front of scoring (deadline/SLO tests lean on it).
        chaos.fail_point("gateway.score")
        if not isinstance(payload, dict):
            raise GatewayError("request body must be a JSON object", 400)
        top_k = payload.get("top_k")
        if top_k is not None and (not isinstance(top_k, int)
                                  or isinstance(top_k, bool) or top_k < 1):
            raise GatewayError("'top_k' must be a positive integer", 400)
        want_threshold = bool(payload.get("threshold", False))
        degraded = False

        if "graph" in payload:
            try:
                graph = graph_from_payload(payload["graph"])
            except ProtocolError as exc:
                raise GatewayError(str(exc), 400) from None
            fingerprint = graph_fingerprint(graph)
            nodes = self._parse_nodes(payload, graph.num_nodes)
            if not self.breaker.allow(fingerprint):
                # Breaker open for this graph: don't spend a batch slot on
                # a known failure — answer from the stale cache, degraded.
                scores = self._stale_lookup(fingerprint)
                if scores is None:
                    raise GatewayError(
                        f"scoring fingerprint {fingerprint[:12]}… keeps "
                        "failing (circuit open) and no stale scores are "
                        "cached; retry after the breaker's reset timeout",
                        503)
                degraded = True
                self._degraded_served += 1
                annotate("degraded", True)
                annotate("score_source", "stale_cache")
            else:
                deadline = (time.monotonic() + float(deadline_ms) / 1e3
                            if deadline_ms is not None else None)
                # AdmissionError (429/503) and DeadlineExceeded (504)
                # propagate to the HTTP layer as-is.
                future = self.batcher.submit(graph, fingerprint,
                                             deadline=deadline)
                try:
                    with span("batcher.wait"):
                        scores = future.result(timeout=self.request_timeout)
                except FutureTimeoutError:
                    raise GatewayError(
                        f"scoring did not finish within "
                        f"{self.request_timeout:.0f}s", 503) from None
                except DeadlineExceeded:
                    raise
                except (ServiceError, ValueError) as exc:
                    # ServiceError: the detector keeps no reusable
                    # networks; ValueError: the graph doesn't match the
                    # model's schema (feature/relation count). Both are
                    # "this model cannot answer this request", not server
                    # bugs — but a streak of them trips this
                    # fingerprint's breaker all the same.
                    self.breaker.record_failure(fingerprint)
                    raise GatewayError(str(exc), 409) from None
                except Exception:
                    self.breaker.record_failure(fingerprint)
                    raise
                self.breaker.record_success(fingerprint)
                self._stale_store(fingerprint, scores)
                batch_info = getattr(future, "obs_batch", None)
                if batch_info is not None:
                    annotate("batch_size", batch_info["batch_size"])
                    annotate("coalesced", batch_info["coalesced"])
            threshold = self._threshold_for(fingerprint, scores) \
                if want_threshold else None
        elif "fingerprint" in payload:
            fingerprint = str(payload["fingerprint"])
            scores = self.service.cached_scores(fingerprint)
            if scores is None:
                raise GatewayError(
                    f"fingerprint {fingerprint[:12]}… is not cached; "
                    "include the inline 'graph' payload instead", 404)
            annotate("score_source", "warm_cache")
            nodes = self._parse_nodes(payload, scores.size)
            threshold = self._threshold_for(fingerprint, scores) \
                if want_threshold else None
        else:
            raise GatewayError(
                "score request needs 'graph' (inline edge lists + "
                "attributes) or 'fingerprint' (warm-cache lookup)", 400)

        return score_response(fingerprint, scores, nodes=nodes,
                              top_k=top_k, threshold=threshold,
                              degraded=degraded)

    def _stale_store(self, fingerprint: str, scores) -> None:
        """Remember the last known-good scores for degraded answers."""
        with self._stale_lock:
            self._stale_scores[fingerprint] = scores
            self._stale_scores.move_to_end(fingerprint)
            while len(self._stale_scores) > _STALE_CACHE_SIZE:
                self._stale_scores.popitem(last=False)

    def _stale_lookup(self, fingerprint: str):
        with self._stale_lock:
            scores = self._stale_scores.get(fingerprint)
            if scores is not None:
                self._stale_scores.move_to_end(fingerprint)
            return scores

    def _threshold_for(self, fingerprint: str, scores):
        """Threshold consistent with the exact ``scores`` being returned.

        Prefer the service's cached/fitted result; when the entry was
        already evicted (or skipped caching because a hot-swap raced the
        pass), select directly on the array in hand — never by re-scoring,
        which would bypass the batcher/admission queue and could pair a
        new detector's threshold with old-detector scores.
        """
        threshold = self.service.cached_threshold(fingerprint)
        if threshold is not None:
            return threshold
        from ..core.threshold import select_threshold

        try:
            return select_threshold(scores)
        except ValueError as exc:   # e.g. too few scores to select on
            raise GatewayError(f"cannot select a threshold: {exc}",
                               409) from None

    @staticmethod
    def _parse_nodes(payload: dict, num_nodes: int):
        try:
            return parse_nodes(payload.get("nodes"), num_nodes)
        except ProtocolError as exc:
            raise GatewayError(str(exc), 400) from None

    # ------------------------------------------------------------------
    # POST /v1/events
    # ------------------------------------------------------------------
    def ingest_events(self, payload: dict) -> dict:
        if not isinstance(payload, dict):
            raise GatewayError("request body must be a JSON object", 400)
        raw = payload.get("events")
        if not isinstance(raw, list) or not raw:
            raise GatewayError(
                "'events' must be a non-empty list of event objects "
                "(see repro.stream.events)", 400)
        try:
            events = [parse_event(item) for item in raw]
        except (ValueError, TypeError) as exc:
            raise GatewayError(f"bad event: {exc}", 400) from None

        with self._monitor_lock:
            monitor = self._ensure_monitor()
            try:
                reports = monitor.ingest(events)
                if payload.get("flush"):
                    tail = monitor.flush()
                    if tail is not None:
                        reports.append(tail)
            except (ValueError, ServiceError) as exc:
                raise GatewayError(f"event stream rejected: {exc}",
                                   409) from None
            return {
                "accepted": len(events),
                "reports": [report.to_dict() for report in reports],
                "alerts": sum(len(report.alerts) for report in reports),
                "monitor": monitor.stats_dict(),
            }

    def _ensure_monitor(self) -> StreamMonitor:
        """Build the stream monitor lazily on the first events request.

        With a WAL directory configured, prior stream state (snapshot +
        log replay) takes precedence over the ``base_graph`` seed — the
        log is the durable truth about what this server already ingested.
        """
        if self.monitor is not None:
            return self.monitor
        wal = None
        if self._wal_dir is not None:
            wal = WriteAheadLog(self._wal_dir, fsync=self._wal_fsync)
        try:
            self.monitor = open_monitor(self.service, wal=wal,
                                        base_graph=self._base_graph,
                                        **self._monitor_kwargs)
        except ServiceError as exc:
            raise GatewayError(f"cannot accept events: {exc}", 409) from None
        finally:
            if self.monitor is None and wal is not None:
                wal.close()
        return self.monitor

    # ------------------------------------------------------------------
    # GET /v1/models + POST /v1/models/{name}/activate
    # ------------------------------------------------------------------
    def _require_registry(self) -> ModelRegistry:
        if self.registry is None:
            raise GatewayError(
                "no model registry configured; start the server with "
                "--registry to manage named checkpoints", 409)
        return self.registry

    def list_models(self) -> dict:
        registry = self._require_registry()
        models: List[dict] = []
        for info in registry.list_models():
            models.append({
                "name": info.name,
                "detector": info.detector,
                "format_version": info.format_version,
                "num_nodes": info.num_nodes,
                "size_bytes": info.size_bytes,
                "active": info.name == self.active_model,
            })
        return {"models": models, "active": self.active_model}

    def activate(self, name: str) -> dict:
        registry = self._require_registry()
        try:
            # The process precision was resolved at server start; adopting
            # a checkpoint's dtype mid-flight would silently re-type every
            # later request's graph, so hot-swaps keep the current dtype.
            detector = registry.load(name, match_dtype=False)
        except KeyError as exc:
            raise GatewayError(str(exc.args[0]), 404) from None
        pool_reply = {}
        if self.pool is not None:
            # Retarget the scoring processes *before* the service swaps:
            # a pass dispatched after the service's generation bump then
            # cannot run on the old weights and be cached as the new
            # model's. Each worker reloads under its dispatch lock, so a
            # batch in flight finishes on the weights it started with.
            try:
                pool_reply["pool_generation"] = \
                    self.pool.publish_detector(detector)
            except Exception as exc:  # noqa: BLE001 - degraded, not fatal
                # A worker that missed the reload is respawned from the
                # new payload by the pool itself. Surface the partial swap
                # instead of failing the activation.
                pool_reply["pool_error"] = str(exc)
        epochs, seconds = self.service.replace_detector(detector)
        self.active_model = name
        return {
            "activated": name,
            "detector": type(detector).__name__,
            "refit_epochs": epochs,
            "refit_seconds": seconds,
            **pool_reply,
        }

    # ------------------------------------------------------------------
    # GET /healthz + GET /metrics
    # ------------------------------------------------------------------
    def _collect(self) -> Dict[str, Collected]:
        """One ``collect()`` per live component, keyed by its deep-health
        name: a scrape and a deep probe each read every component once."""
        collected = {
            "service": self.service.collect(graphs=(self._base_graph,)),
            "batcher": self.batcher.collect(),
            "runtime": runtime.collect(),
            "slo": self.slo.collect(),
            "breaker": self.breaker.collect(),
        }
        if self.pool is not None:
            collected["pool"] = self.pool.collect()
        monitor = self.monitor
        if monitor is not None:
            collected["stream"] = monitor.collect()
        return collected

    def health(self, deep: bool = False) -> dict:
        """``GET /healthz`` payload; ``deep=True`` adds per-component
        status (``?deep=1``). ``status`` rolls up the SLO tracker —
        ``failing`` (sustained burn) makes the HTTP layer answer 503."""
        if deep:
            components = {name: entry.health
                          for name, entry in self._collect().items()}
            if self.pool is None and self.pool_fallback_reason is not None:
                components["pool"] = {"fallback": "thread",
                                      "reason": self.pool_fallback_reason}
            status = components["slo"]["status"]
            depth = components["batcher"]["queue_depth"]
        else:
            status, depth = self.slo.status(), self.batcher.queue_depth
        payload = {
            "status": status,
            "server": SERVER_NAME,
            "api": API_VERSION,
            "detector": type(self.service.detector).__name__,
            "active_model": self.active_model,
            "uptime_seconds": self.uptime_seconds,
            "queue_depth": depth,
            "exec_tier": self.exec_tier,
        }
        if deep:
            payload["components"] = components
        return payload

    def metrics_text(self) -> str:
        collected = self._collect()
        families = [
            gauge("server_uptime_seconds",
                  "Seconds since the gateway started.", self.uptime_seconds),
            gauge("server_queue_depth",
                  "Admitted score requests not yet resolved.",
                  collected["batcher"].health["queue_depth"]),
            counter("degraded_responses_total",
                    "Score responses served from stale scores.",
                    self._degraded_served),
        ]
        with self._counter_lock:
            requests = sorted(self._requests.items())
        if requests:
            families.append(family(
                "server_requests_total", "counter",
                "HTTP requests answered, by endpoint and status.",
                [({"endpoint": endpoint, "status": str(status)}, count)
                 for (endpoint, status), count in requests]))
        chaos_stats = chaos.stats()
        if chaos_stats:
            families.append(family(
                "chaos_triggers_total", "counter",
                "Faults fired by the chaos injection layer, by point.",
                [({"point": point}, info["triggered"])
                 for point, info in sorted(chaos_stats.items())]))
        with self._hist_lock:
            endpoint_series = [({"endpoint": name}, hist.snapshot())
                               for name, hist
                               in sorted(self._endpoint_hist.items())]
            stage_series = [({"stage": name}, hist.snapshot())
                            for name, hist
                            in sorted(self._stage_hist.items())]
        if endpoint_series:
            families.append(histogram(
                "http_request_duration_seconds",
                "Wall time per answered HTTP request, by endpoint.",
                endpoint_series))
        if stage_series:
            families.append(histogram(
                "stage_duration_seconds",
                "Wall time per traced pipeline stage (span name).",
                stage_series))
        for entry in collected.values():
            families += entry.families
        return render(families)

    # ------------------------------------------------------------------
    def close(self) -> dict:
        """Shut everything down; returns the aggregated shutdown report.

        The report carries what did *not* die cleanly — leaked batcher
        threads, killed worker processes — so the app/CLI layer can log
        a dirty shutdown instead of dropping it.
        """
        report: Dict[str, dict] = {"batcher": self.batcher.close()}
        if self.pool is not None:
            self.service.executor = None
            report["pool"] = self.pool.close()
        monitor = self.monitor
        if monitor is not None and monitor.wal is not None:
            # A clean shutdown checkpoints the stream state: restart
            # recovers instantly from the snapshot with nothing to replay.
            monitor.checkpoint()
            monitor.wal.close()
        return report


__all__ = ["API_VERSION", "Gateway", "GatewayError", "SERVER_NAME"]
