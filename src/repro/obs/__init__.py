"""``repro.obs`` — stdlib-only observability for the whole stack.

Small pieces, threaded through every serving/streaming/scoring
layer:

* :mod:`repro.obs.trace` — context-local request tracing (trace/span
  ids, wall + CPU time, attributes, cross-thread handoff) with a no-op
  fast path that costs one contextvar read when nothing is traced;
* :mod:`repro.obs.hist` — thread-safe histograms with Prometheus
  ``_bucket``/``_sum``/``_count`` semantics and log-spaced bounds;
* :mod:`repro.obs.log` — structured JSONL logging stamped with the
  active trace/span ids;
* :mod:`repro.obs.promlint` — a strict text-exposition validator used
  by tests and CI to lint the real ``/metrics`` payload, plus the shared
  :func:`parse_families` reader;
* :mod:`repro.obs.profile` — per-stage cost tables (``REPRO_PROFILE=1``)
  and span-tree rendering (``repro trace``);
* :mod:`repro.obs.runtime` — process telemetry (RSS, GC, threads, FDs,
  a worker's private memory), read fresh by each ``/metrics`` scrape
  and deep health probe.

Environment switches: ``REPRO_TRACE=0`` disables tracing process-wide,
``REPRO_PROFILE=1`` prints the CLI cost table, ``REPRO_LOG=<path>`` /
``REPRO_LOG_LEVEL`` steer the structured logger.
"""

from .hist import (
    BATCH_SIZE_BOUNDS,
    DURATION_BOUNDS,
    Histogram,
    HistogramSnapshot,
    log_spaced_bounds,
)
from .log import StructLogger, configure, get_logger
from .profile import aggregate_spans, render_profile, render_trace_tree
from .promlint import (
    assert_valid_exposition,
    parse_families,
    validate_exposition,
)
from .runtime import peak_rss_bytes, rss_bytes
from .trace import (
    NOOP_SPAN,
    Span,
    Trace,
    TraceStore,
    annotate,
    current_span,
    current_trace,
    new_trace_id,
    sanitize_trace_id,
    set_tracing,
    span,
    start_trace,
    tracing_enabled,
    use_span,
)

__all__ = [
    "BATCH_SIZE_BOUNDS",
    "DURATION_BOUNDS",
    "Histogram",
    "HistogramSnapshot",
    "NOOP_SPAN",
    "Span",
    "StructLogger",
    "Trace",
    "TraceStore",
    "aggregate_spans",
    "annotate",
    "assert_valid_exposition",
    "configure",
    "current_span",
    "current_trace",
    "get_logger",
    "log_spaced_bounds",
    "new_trace_id",
    "parse_families",
    "peak_rss_bytes",
    "render_profile",
    "render_trace_tree",
    "rss_bytes",
    "sanitize_trace_id",
    "set_tracing",
    "span",
    "start_trace",
    "tracing_enabled",
    "use_span",
    "validate_exposition",
]
