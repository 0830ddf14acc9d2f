"""HTTP serving gateway: the network surface over every fast path.

After PRs 1–4 the repo could score graphs from checkpoints
(:mod:`repro.serve`), keep them current under event streams
(:mod:`repro.stream`) and run inference grad-free — but only in-process.
:mod:`repro.server` exposes all of it as a threaded, stdlib-only HTTP
JSON API:

* :mod:`repro.server.batcher` — :class:`MicroBatcher`, the concurrency
  engine: same-fingerprint score requests coalesce inside a bounded
  linger window into **one** scoring pass on a worker pool, behind a
  bounded admission queue (429/503 under overload);
* :mod:`repro.server.gateway` — :class:`Gateway`, the HTTP-agnostic
  request logic (score / events / models / health / metrics);
* :mod:`repro.server.app` — the :mod:`http.server`-based threaded HTTP
  layer (:class:`ReproServer`, :class:`ServerThread`, :func:`make_server`);
* :mod:`repro.server.client` — :class:`ServerClient`, a pure-python
  stdlib client;
* :mod:`repro.server.protocol` — the JSON wire format (full-precision
  score serialisation: HTTP-served scores are bitwise-identical to
  in-process ``score_graph`` output);
* ``/metrics`` and ``GET /healthz?deep=1`` come from one ``collect()``
  per component, rendered by :mod:`repro.obs.metrics` (Prometheus text
  exposition: counters, gauges and latency histograms);
* :mod:`repro.server.slo` — rolling-window p50/p99 latency + error-rate
  SLO tracking per endpoint (``slo_*`` burn gauges at ``/metrics``,
  ``GET /healthz?deep=1`` component health, 503 on sustained burn);
* :mod:`repro.server.breaker` — :class:`CircuitBreaker`, per-fingerprint
  failure-streak tracking: tripped fingerprints are answered from the
  stale-score cache (flagged ``degraded: true``) while half-open probes
  test recovery.

Resilience: a batcher worker survives any fault in its group (the
group's requests fail, the thread takes the next group);
``X-Repro-Deadline-Ms`` deadlines drop expired requests (504);
:class:`ServerClient` retries transient failures with jittered
exponential backoff honouring ``Retry-After``; :mod:`repro.chaos` fault
points make every one of these paths deterministically testable.

Observability (:mod:`repro.obs`) is threaded through every layer: traced
requests echo ``X-Repro-Trace-Id``, completed traces are served at
``GET /v1/traces``, and per-endpoint/per-stage latency histograms ride
along on ``/metrics``.

Start one from the CLI with ``python -m repro.cli serve --model model.npz``.
"""

from .app import (
    DEADLINE_HEADER,
    ReproServer,
    ServerThread,
    TRACE_HEADER,
    make_server,
)
from .batcher import (
    AdmissionError,
    BatcherStats,
    DeadlineExceeded,
    MicroBatcher,
)
from .breaker import CircuitBreaker
from .client import ServerClient, ServerClientError
from .gateway import API_VERSION, Gateway, GatewayError, SERVER_NAME
from .protocol import ProtocolError, graph_from_payload, graph_payload
from .slo import EndpointStatus, SLOObjective, SLOTracker, WindowSummary

__all__ = [
    "API_VERSION",
    "AdmissionError",
    "BatcherStats",
    "CircuitBreaker",
    "DEADLINE_HEADER",
    "DeadlineExceeded",
    "EndpointStatus",
    "Gateway",
    "GatewayError",
    "MicroBatcher",
    "ProtocolError",
    "ReproServer",
    "SERVER_NAME",
    "SLOObjective",
    "SLOTracker",
    "ServerClient",
    "ServerClientError",
    "ServerThread",
    "TRACE_HEADER",
    "WindowSummary",
    "graph_from_payload",
    "graph_payload",
    "make_server",
]
