"""Request micro-batching with admission control over a DetectorService.

The serving gateway's core concurrency engine. Concurrent ``score``
requests are grouped **by graph fingerprint**: the first request for a
fingerprint opens a batch group and enqueues it for a worker; requests
arriving inside the group's bounded *linger window* join the open group
instead of queueing their own scoring pass. A worker then runs **one**
:meth:`~repro.serve.service.DetectorService.scores` call per group and
fans the resulting array out to every waiting future — N identical
concurrent requests cost one scoring pass instead of N.

Workers cannot die: any exception while a worker handles a group, in
the scoring pass or in the batcher's own bookkeeping, fails that group's
unanswered requests once and the worker takes the next group. Expired
**deadlines** (propagated from the ``X-Repro-Deadline-Ms`` header) drop
requests whose caller already gave up instead of scoring them, and
:meth:`MicroBatcher.close` reports workers that outlive the join timeout
(wedged in a scoring pass) instead of silently leaking them.

Two protections keep the pool healthy under load:

* **admission control** — the total number of admitted-but-unresolved
  requests is bounded by ``max_queue``; beyond it, :meth:`MicroBatcher.submit`
  raises :class:`AdmissionError` with HTTP status 429 (and 503 once the
  batcher is draining for shutdown). Rejecting at admission is what keeps
  latency bounded: a request that cannot be served soon is refused
  immediately rather than parked on an unbounded queue.
* **dog-pile dedup below** — :class:`~repro.serve.service.DetectorService`
  additionally deduplicates in-flight passes per fingerprint on either
  execution tier, so even groups that split across workers (e.g. a burst
  longer than one linger window) collapse to a single computation.

Everything is stdlib: ``threading`` + ``queue`` + ``concurrent.futures.Future``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional

from ..graphs.io import graph_fingerprint
from ..graphs.multiplex import MultiplexGraph
from ..obs.hist import BATCH_SIZE_BOUNDS, DURATION_BOUNDS, Histogram
from ..obs.log import get_logger
from ..obs.metrics import (Collected, counter, gauge, histogram, metric,
                           stat_families)
from ..obs.trace import current_span, current_trace, span, use_span
from ..serve.service import DetectorService

_log = get_logger("repro.server.batcher")

#: seconds close() waits for each worker before declaring it leaked
_JOIN_TIMEOUT = 30.0


class AdmissionError(RuntimeError):
    """A request refused at admission (queue full or server draining).

    ``status`` is the HTTP status the gateway maps this to: 429 when the
    admission queue is full (back off and retry), 503 when the batcher is
    shutting down (the server is going away).
    """

    def __init__(self, message: str, status: int = 429):
        super().__init__(message)
        self.status = int(status)


class DeadlineExceeded(RuntimeError):
    """A request dropped because its caller's deadline already passed.

    The gateway maps this to HTTP 504: scoring a request whose client
    has given up wastes a batch slot that a live request could use, so
    expired entries are dropped at batch assembly instead of scored.
    """

    status = 504


@dataclass
class BatcherStats:
    """Counters for one :class:`MicroBatcher` (exported via /metrics)."""

    submitted: int = metric("counter", "Score requests admitted.")
    completed: int = metric("counter", "Score requests answered.")
    failed: int = metric("counter", "Score requests failed in scoring.")
    rejected: int = metric("counter", "Score requests refused at admission.")
    batches: int = metric("counter", "Scoring passes run (batched groups).")
    coalesced: int = metric("counter", "Requests that joined an open batch.")
    largest_batch: int = metric(
        "gauge", "Largest batch answered by one scoring pass.")
    expired: int = metric(
        "counter", "Score requests dropped on an expired deadline.")
    #: workers still alive after close() exhausted its join timeout
    leaked_workers: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class _Group:
    """One open batch: every future here is answered by one scoring pass."""

    __slots__ = ("fingerprint", "graph", "futures", "deadline",
                 "submit_times", "deadlines", "obs_parent")

    def __init__(self, fingerprint: str, graph: MultiplexGraph,
                 future: Future, deadline: float,
                 request_deadline: Optional[float] = None):
        self.fingerprint = fingerprint
        self.graph = graph
        self.futures: List[Future] = [future]
        self.deadline = deadline
        #: per-future admission timestamps (monotonic) for queue-wait stats
        self.submit_times: List[float] = [time.monotonic()]
        #: per-future caller deadlines (monotonic, None = no deadline)
        self.deadlines: List[Optional[float]] = [request_deadline]
        # The leader request's ambient span: worker threads adopt it so
        # the batch span lands in that request's trace. None when the
        # leader was untraced.
        self.obs_parent = current_span()


class MicroBatcher:
    """Coalesce concurrent same-fingerprint score requests into one pass.

    Parameters
    ----------
    service:
        The (thread-safe) :class:`DetectorService` that answers batches.
    workers:
        CPU worker threads draining the group queue.
    max_queue:
        Admission bound: maximum admitted-but-unresolved requests across
        all groups. Submissions beyond it raise :class:`AdmissionError`
        (HTTP 429).
    linger_ms:
        How long a group stays open for joiners after its first request
        (the classic micro-batching latency/throughput trade: a few
        milliseconds of added latency buys request coalescing). A group
        has no size cap: admission (``max_queue``) bounds it, and every
        member gets the same array from one pass.
    """

    def __init__(self, service: DetectorService, *, workers: int = 2,
                 max_queue: int = 64, linger_ms: float = 2.0):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if linger_ms < 0:
            raise ValueError(f"linger_ms must be >= 0, got {linger_ms}")
        self.service = service
        self.workers = int(workers)
        self.max_queue = int(max_queue)
        self._linger = float(linger_ms) / 1000.0
        self.stats = BatcherStats()
        #: cumulative wall seconds workers spent processing groups (linger
        #: included — a lingering worker is occupied); feeds the
        #: utilization gauge: busy_seconds / (workers * uptime)
        self._busy_seconds = 0.0
        self._started = time.monotonic()
        #: seconds between a request's admission and its batch starting
        self.queue_wait = Histogram(DURATION_BOUNDS)
        #: requests answered per scoring pass
        self.batch_sizes = Histogram(BATCH_SIZE_BOUNDS)
        self._lock = threading.Lock()
        self._groups: Dict[str, _Group] = {}
        self._pending = 0
        self._closed = False
        self._close_report: dict = {"workers_joined": 0,
                                    "leaked_workers": [],
                                    "pending_at_close": 0}
        self._queue: "queue.SimpleQueue[Optional[_Group]]" = queue.SimpleQueue()
        self._threads = [
            threading.Thread(target=self._run, daemon=True,
                             name=f"repro-batcher-{i}")
            for i in range(self.workers)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Admitted requests not yet resolved (the admission meter)."""
        with self._lock:
            return self._pending

    @property
    def busy_seconds(self) -> float:
        """Cumulative wall seconds workers spent on batch groups."""
        with self._lock:
            return self._busy_seconds

    def collect(self) -> Collected:
        """The ``batcher_*`` families and the deep-health entry."""
        with self._lock:
            stats = replace(self.stats)
            depth, closed, busy = self._pending, self._closed, \
                self._busy_seconds
        capacity = self.workers * (time.monotonic() - self._started)
        utilization = busy / capacity if capacity > 0 else 0.0
        families = stat_families(stats, "batcher") + [
            gauge("batcher_workers", "Batcher worker threads.", self.workers),
            counter("batcher_busy_seconds_total",
                    "Wall seconds workers spent on batch groups.", busy),
            gauge("batcher_utilization_ratio",
                  "Share of worker capacity spent on batch groups.",
                  utilization),
        ]
        if self.queue_wait.count:
            families.append(histogram(
                "batcher_queue_wait_seconds",
                "Seconds between request admission and its batch starting.",
                self.queue_wait))
        if self.batch_sizes.count:
            families.append(histogram(
                "batcher_batch_size", "Requests answered per scoring pass.",
                self.batch_sizes))
        return Collected(families, {
            "queue_depth": depth, "max_queue": self.max_queue,
            "workers": self.workers, "busy_seconds": busy,
            "utilization": utilization, "closed": closed})

    # ------------------------------------------------------------------
    def submit(self, graph: MultiplexGraph,
               fingerprint: Optional[str] = None,
               deadline: Optional[float] = None) -> Future:
        """Admit one score request; resolves to the per-node score array.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp after
        which the caller no longer wants the answer (propagated from the
        ``X-Repro-Deadline-Ms`` request header). An already-expired
        deadline raises :class:`DeadlineExceeded` immediately; one that
        expires while queued drops the entry at batch assembly.

        Raises :class:`AdmissionError` instead of queueing when the
        admission bound is hit (429) or the batcher is draining (503).
        """
        if deadline is not None and time.monotonic() >= deadline:
            with self._lock:
                self.stats.expired += 1
            raise DeadlineExceeded(
                "request deadline expired before admission")
        if fingerprint is None:
            fingerprint = graph_fingerprint(graph)
        future: Future = Future()
        enqueue = None
        with self._lock:
            if self._closed:
                self.stats.rejected += 1
                raise AdmissionError(
                    "server is shutting down; request not admitted",
                    status=503)
            if self._pending >= self.max_queue:
                self.stats.rejected += 1
                raise AdmissionError(
                    f"admission queue full ({self._pending} pending, "
                    f"bound {self.max_queue}); retry later", status=429)
            self._pending += 1
            self.stats.submitted += 1
            group = self._groups.get(fingerprint)
            if group is not None:
                group.futures.append(future)
                group.submit_times.append(time.monotonic())
                group.deadlines.append(deadline)
                self.stats.coalesced += 1
                # Followers ride the leader's scoring pass; their traces
                # point at the leader's trace/span instead of duplicating
                # the batch span.
                if group.obs_parent is not None:
                    trace = current_trace()
                    if trace is not None:
                        trace.link("coalesced_into",
                                   group.obs_parent.trace_id,
                                   group.obs_parent.span_id)
            else:
                enqueue = _Group(fingerprint, graph, future,
                                 time.monotonic() + self._linger,
                                 request_deadline=deadline)
                self._groups[fingerprint] = enqueue
        if enqueue is not None:
            self._queue.put(enqueue)
        return future

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            group = self._queue.get()
            if group is None:
                return
            work_started = time.monotonic()
            try:
                self._process(group)
            except BaseException as exc:
                # A scoring error or a fault in the bookkeeping around it:
                # either way the group fails once and this thread lives.
                self._fail(group, exc)
            with self._lock:
                self._busy_seconds += time.monotonic() - work_started

    def _fail(self, group: _Group, exc: BaseException) -> None:
        """Fail the group's unanswered futures with ``exc``."""
        with self._lock:
            if self._groups.get(group.fingerprint) is group:
                del self._groups[group.fingerprint]
            unresolved = [f for f in group.futures if not f.done()]
            self.stats.failed += len(unresolved)
            self._pending -= len(unresolved)
        for future in unresolved:
            future.set_exception(exc)

    def _process(self, group: _Group) -> None:
        # Hold the group open until its linger deadline so concurrent
        # requests can still join; joiners append under the lock. When
        # the service is already warm for this fingerprint (cached, in
        # flight, or the trained graph) there is no pass to amortise —
        # answer immediately instead of taxing the request with linger.
        delay = group.deadline - time.monotonic()
        if delay > 0 and not self.service.is_warm(group.fingerprint):
            time.sleep(delay)
        with self._lock:
            if self._groups.get(group.fingerprint) is group:
                del self._groups[group.fingerprint]
            futures = list(group.futures)
            submit_times = list(group.submit_times)
            deadlines = list(group.deadlines)
        batch_started = time.monotonic()
        # Drop entries whose caller's deadline passed while they queued:
        # scoring them would spend batch capacity on answers nobody is
        # waiting for.
        live: List[Future] = []
        live_times: List[float] = []
        expired: List[Future] = []
        for future, submitted, request_deadline in zip(
                futures, submit_times, deadlines):
            if request_deadline is not None and batch_started >= request_deadline:
                expired.append(future)
            else:
                live.append(future)
                live_times.append(submitted)
        if expired:
            with self._lock:
                self.stats.expired += len(expired)
                self._pending -= len(expired)
            for future in expired:
                future.set_exception(DeadlineExceeded(
                    "request deadline expired while queued for batching"))
        if not live:
            return
        futures, submit_times = live, live_times
        for submitted in submit_times:
            self.queue_wait.observe(batch_started - submitted)
        self.batch_sizes.observe(len(futures))
        # The scoring pass runs under the leader request's span (if it
        # was traced); the span records a scoring error on its way to
        # _run's handler.
        with use_span(group.obs_parent), span("batcher.batch") as sp:
            sp.set("batch_size", len(futures))
            sp.set("coalesced", len(futures) - 1)
            scores = self.service.scores(group.graph, group.fingerprint)
        batch_info = {
            "batch_size": len(futures),
            "coalesced": len(futures) - 1,
            "queue_wait_ms": (batch_started - submit_times[0]) * 1e3,
        }
        with self._lock:
            self.stats.batches += 1
            self.stats.completed += len(futures)
            self.stats.largest_batch = max(self.stats.largest_batch,
                                           len(futures))
            self._pending -= len(futures)
        for future in futures:
            future.obs_batch = batch_info
            future.set_result(scores)

    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> dict:
        """Stop admitting, drain queued groups, stop the workers.

        Already-admitted requests are still answered (the shutdown
        sentinels sit behind every queued group in FIFO order); new
        submissions fail with a 503 :class:`AdmissionError`.

        Returns a shutdown report —
        ``{"workers_joined", "leaked_workers", "pending_at_close"}`` —
        so callers (gateway → app shutdown) can *propagate* a dirty
        shutdown instead of dropping it; ``leaked_workers`` lists the
        thread names still alive after the join timeout. Calling again
        returns the first close's report.
        """
        with self._lock:
            if self._closed:
                return dict(self._close_report)
            self._closed = True
            pending_at_close = self._pending
        for _ in self._threads:
            self._queue.put(None)
        leaked: List[str] = []
        joined = 0
        if wait:
            for thread in self._threads:
                thread.join(timeout=_JOIN_TIMEOUT)
            leaked = [t.name for t in self._threads if t.is_alive()]
            joined = len(self._threads) - len(leaked)
            if leaked:
                # A worker wedged in a scoring pass past the join timeout
                # is a real leak (daemon thread holding arbitrary state) —
                # surface it instead of returning as if shutdown was clean.
                with self._lock:
                    self.stats.leaked_workers += len(leaked)
                _log.error("batcher.leaked_workers", workers=leaked,
                           timeout_s=_JOIN_TIMEOUT)
        report = {
            "workers_joined": joined,
            "leaked_workers": leaked,
            "pending_at_close": pending_at_close,
        }
        with self._lock:
            self._close_report = report
        return dict(report)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = ["AdmissionError", "BatcherStats", "DeadlineExceeded",
           "MicroBatcher"]
