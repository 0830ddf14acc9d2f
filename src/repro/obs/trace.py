"""Context-local request tracing: the `repro.obs` span API.

A **trace** is one logical operation — an HTTP request, a CLI run, a
stream window — identified by a ``trace_id`` and holding a tree of
**spans**. A span measures one pipeline stage (wall *and* CPU time) plus
free-form attributes. Spans nest through a :mod:`contextvars` context
variable, so instrumentation points never thread a handle around:

    with start_trace("http.score") as trace:
        with span("service.scores"):
            with span("score.masked_group"):
                ...

**Zero overhead when disabled** is the design contract: :func:`span`
first reads the ambient context, and when no trace is active it returns
the module-level :data:`NOOP_SPAN` singleton — no object allocation, no
clock reads, no attribute dict. Instrumented hot paths therefore cost
one contextvar lookup when nobody is tracing, and ``tests/test_obs.py``
checks that they allocate nothing. Tracing never touches RNG state or numeric
code, so traced and untraced scores are bitwise identical.

Cross-thread propagation is explicit: a producer captures
:func:`current_span` and a worker adopts it with :func:`use_span` — this
is how the micro-batcher's worker threads attach batch/scoring spans to
the leader request's trace (see :mod:`repro.server.batcher`).

``REPRO_TRACE=0`` hard-disables tracing process-wide — :func:`start_trace`
then yields ``None`` and every span is a no-op.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: spans kept per trace before further ones are counted, not stored
#: (bounds memory for traced training runs with thousands of epochs)
MAX_SPANS = 512

_TRACE_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

_current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_span", default=None)


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "1").strip().lower() not in (
        "0", "false", "no", "off")


_enabled = _env_enabled()


def set_tracing(enabled: bool) -> None:
    """Process-wide master switch (overrides the ``REPRO_TRACE`` env)."""
    global _enabled
    _enabled = bool(enabled)


def tracing_enabled() -> bool:
    return _enabled


def sanitize_trace_id(value: Optional[str]) -> Optional[str]:
    """A caller-supplied trace id, or ``None`` when absent/unusable.

    Ids are opaque tokens that end up in headers, logs and JSON — restrict
    them to ``[A-Za-z0-9._-]{1,64}`` so a hostile header can't inject
    newlines into either.
    """
    if value is None:
        return None
    value = str(value).strip()
    return value if _TRACE_ID_PATTERN.match(value) else None


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return os.urandom(8).hex()


class _NoopSpan:
    """The disabled-tracing span: one shared instance, every method inert."""

    __slots__ = ()

    recording = False
    trace_id = None
    span_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def __repr__(self) -> str:
        return "<noop span>"


#: the singleton every :func:`span` call returns while tracing is inactive
NOOP_SPAN = _NoopSpan()


class Span:
    """One timed stage inside a :class:`Trace` (use as a context manager).

    Wall time comes from :func:`time.perf_counter`, CPU time from
    :func:`time.thread_time` (the executing thread only, so a span that
    waits on a lock or a future shows near-zero CPU against real wall).
    """

    __slots__ = ("trace", "name", "span_id", "parent_id", "attributes",
                 "start_offset", "wall_seconds", "cpu_seconds",
                 "_t0", "_cpu0", "_token")

    recording = True

    def __init__(self, trace: "Trace", name: str,
                 parent_id: Optional[str]):
        self.trace = trace
        self.name = name
        self.span_id = trace._next_span_id()
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = {}
        self.start_offset = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._token = None

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute (positional on purpose: the no-op variant
        must not pay a kwargs dict)."""
        self.attributes[key] = value
        return self

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        self.start_offset = self._t0 - self.trace._t0
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        _current.reset(self._token)
        self.wall_seconds = time.perf_counter() - self._t0
        self.cpu_seconds = time.thread_time() - self._cpu0
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self.trace._finish(self)
        return False

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_offset * 1e3,
            "wall_ms": self.wall_seconds * 1e3,
            "cpu_ms": self.cpu_seconds * 1e3,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"trace={self.trace_id})")


class Trace:
    """One traced operation: an id plus the spans completed under it.

    Spans may finish on any thread (the batcher's workers adopt request
    traces), so completion bookkeeping is lock-protected. At most
    ``max_spans`` spans are retained; the overflow is counted in
    ``dropped`` so truncation is visible rather than silent.
    """

    def __init__(self, name: str, trace_id: Optional[str] = None,
                 max_spans: int = MAX_SPANS):
        self.name = name
        self.trace_id = trace_id or new_trace_id()
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.max_spans = int(max_spans)
        self.spans: List[Span] = []
        self.links: List[dict] = []
        self.dropped = 0
        self.duration_seconds: Optional[float] = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _next_span_id(self) -> str:
        return format(next(self._ids), "x")

    def _finish(self, span_: Span) -> None:
        with self._lock:
            if len(self.spans) < self.max_spans:
                self.spans.append(span_)
            else:
                self.dropped += 1

    def link(self, kind: str, trace_id: str,
             span_id: Optional[str] = None) -> None:
        """Reference another trace (e.g. the batch a request coalesced
        into lives in the leader request's trace)."""
        with self._lock:
            self.links.append({"kind": kind, "trace_id": trace_id,
                               "span_id": span_id})

    def to_dict(self) -> dict:
        with self._lock:
            spans = [s.to_dict() for s in self.spans]
            links = [dict(l) for l in self.links]
            dropped = self.dropped
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_ms": (self.duration_seconds * 1e3
                            if self.duration_seconds is not None else None),
            "spans": spans,
            "links": links,
            "dropped": dropped,
        }


def current_span() -> Optional[Span]:
    """The ambient span, or ``None`` when no trace is active here."""
    return _current.get()


def current_trace() -> Optional[Trace]:
    span_ = _current.get()
    return span_.trace if span_ is not None else None


def annotate(key: str, value: Any) -> None:
    """Attach an attribute to the ambient span; no-op when untraced."""
    span_ = _current.get()
    if span_ is not None:
        span_.attributes[key] = value


def span(name: str):
    """A child span of the ambient one — or :data:`NOOP_SPAN` if none.

    The untraced path allocates nothing: one contextvar read, then the
    shared singleton. Attributes go through :meth:`Span.set` (positional)
    so disabled call sites don't build kwargs dicts either.
    """
    parent = _current.get()
    if parent is None:
        return NOOP_SPAN
    return Span(parent.trace, name, parent.span_id)


@contextmanager
def use_span(span_: Optional[Span]) -> Iterator[None]:
    """Adopt ``span_`` as the ambient parent on this thread.

    The explicit cross-thread handoff: a worker thread wraps its work in
    ``use_span(captured)`` so new spans land in the capturing request's
    trace. ``None`` (or a no-op span) makes this a plain no-op.
    """
    if span_ is None or not getattr(span_, "recording", False):
        yield
        return
    token = _current.set(span_)
    try:
        yield
    finally:
        _current.reset(token)


@contextmanager
def start_trace(name: str, trace_id: Optional[str] = None,
                store: Optional["TraceStore"] = None,
                max_spans: int = MAX_SPANS) -> Iterator[Optional[Trace]]:
    """Open a new trace with a root span named ``name``.

    Yields the :class:`Trace` (or ``None`` when tracing is disabled
    process-wide). On exit the root span closes, the trace duration is
    stamped, and — when ``store`` is given — a JSON-able snapshot is
    published to it, even if the traced body raised.
    """
    if not _enabled:
        yield None
        return
    trace = Trace(name, trace_id=trace_id, max_spans=max_spans)
    root = Span(trace, name, parent_id=None)
    root.__enter__()
    try:
        yield trace
    except BaseException as exc:
        root.__exit__(type(exc), exc, None)
        trace.duration_seconds = root.wall_seconds
        if store is not None:
            store.add(trace)
        raise
    root.__exit__(None, None, None)
    trace.duration_seconds = root.wall_seconds
    if store is not None:
        store.add(trace)


class TraceStore:
    """Thread-safe ring buffer of recently completed traces.

    Stores :meth:`Trace.to_dict` snapshots (plain JSON-able dicts), so
    consumers — ``GET /v1/traces``, the ``repro trace`` CLI — can't
    observe a trace mid-mutation.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._traces: "deque[dict]" = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def add(self, trace: Trace) -> None:
        snapshot = trace.to_dict()
        with self._lock:
            self._traces.append(snapshot)

    def last(self, n: Optional[int] = None) -> List[dict]:
        """The most recent ``n`` traces, newest first."""
        with self._lock:
            items = list(self._traces)
        items.reverse()
        if n is not None:
            items = items[:max(int(n), 0)]
        return items

    def get(self, trace_id: str) -> Optional[dict]:
        with self._lock:
            for item in reversed(self._traces):
                if item["trace_id"] == trace_id:
                    return item
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


__all__ = [
    "MAX_SPANS",
    "NOOP_SPAN",
    "Span",
    "Trace",
    "TraceStore",
    "annotate",
    "current_span",
    "current_trace",
    "new_trace_id",
    "sanitize_trace_id",
    "set_tracing",
    "span",
    "start_trace",
    "tracing_enabled",
    "use_span",
]
