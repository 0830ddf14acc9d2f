"""Threaded HTTP JSON API over a :class:`~repro.server.gateway.Gateway`.

Built entirely on :mod:`http.server` — one handler thread per connection
(:class:`ThreadingHTTPServer`), keep-alive HTTP/1.1 with explicit
``Content-Length`` on every response, JSON request/response bodies.

Endpoints::

    POST /v1/score                     node/graph scoring (micro-batched)
    POST /v1/events                    stream events -> window reports + alerts
    GET  /v1/models                    registry listing
    POST /v1/models/{name}/activate    hot-swap the served checkpoint
    GET  /healthz                      liveness + SLO rollup (?deep=1 for
                                       per-component detail; 503 on
                                       sustained SLO burn)
    GET  /metrics                      Prometheus text exposition
    GET  /v1/traces                    recently completed request traces

Every traced request (everything except ``/metrics`` and ``/v1/traces``)
echoes its trace id on the ``X-Repro-Trace-Id`` response header; clients
may supply the header to pick the id themselves.

Error contract: every failure is an HTTP response with a JSON
``{"error": ...}`` body — 400 malformed payloads, 404 unknown resources,
409 requests the loaded model cannot answer, 429 admission-queue overflow,
503 shutdown/timeout, 500 bugs. A failed ``POST /v1/events`` adds
``accepted``, the count of the batch's events that were kept. Overload
never silently drops a connection; the 429 path is exercised by
``tests/test_server.py``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import chaos
from ..obs.log import get_logger
from ..obs.trace import annotate, sanitize_trace_id, start_trace
from ..serve.checkpoint import CheckpointError
from ..serve.service import ServiceError
from .batcher import AdmissionError, DeadlineExceeded
from .gateway import Gateway, GatewayError, SERVER_NAME

#: request/response header carrying the request's trace id; clients may
#: supply their own (sanitized) id to stitch server traces into theirs
TRACE_HEADER = "X-Repro-Trace-Id"

#: request header carrying the caller's remaining time budget in
#: milliseconds; expired entries are dropped (504) instead of scored
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

_ACTIVATE_PATTERN = re.compile(
    r"^/v1/models/(?P<name>[A-Za-z0-9][A-Za-z0-9._-]*)/activate$")

_MAX_BODY_BYTES = 64 * 1024 * 1024  # refuse absurd inline graph payloads

_log = get_logger("repro.server.app")


class ServerHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the gateway; maps exceptions to statuses."""

    server_version = SERVER_NAME
    protocol_version = "HTTP/1.1"

    @property
    def gateway(self) -> Gateway:
        return self.server.gateway  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str,
              endpoint: str) -> None:
        # Simulated transport fault: raising ConnectionResetError here
        # drops the connection before any response bytes, exactly what a
        # killed server mid-response looks like to the client.
        chaos.fail_point("http.reset", key=endpoint)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header(TRACE_HEADER, trace_id)
        if status in (429, 503):
            # Both are transient-by-contract: queue overflow (429) and
            # shutdown/timeout/open-breaker (503). Clients honouring
            # Retry-After (see ServerClient) back off instead of hammering.
            self.send_header("Retry-After", "1")
        if self.close_connection:
            # Tell the client this connection is done (undrained body);
            # http.client then reconnects transparently on the next call.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        started = getattr(self, "_request_started", None)
        self.gateway.record(
            endpoint, status,
            seconds=(time.perf_counter() - started)
            if started is not None else None)

    def _send_json(self, status: int, payload: dict, endpoint: str) -> None:
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError as exc:
            # NaN/Infinity have no JSON spelling; answer a valid 500
            # rather than a body strict parsers reject.
            status = 500
            body = json.dumps({"error": f"internal error: {exc}"}).encode(
                "utf-8")
        self._send(status, body, "application/json", endpoint)

    def _send_error_json(self, status: int, message: str,
                         endpoint: str) -> None:
        self._send_json(status, {"error": message}, endpoint)

    def _read_json_body(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            # No framing information: any body bytes would desync the
            # next keep-alive request, so drop the connection after the
            # error response.
            self.close_connection = True
            raise GatewayError("request needs a Content-Length header", 400)
        try:
            length = int(length)
        except ValueError:
            self.close_connection = True
            raise GatewayError("invalid Content-Length header", 400) from None
        if length < 0 or length > _MAX_BODY_BYTES:
            # Refusing to read the body leaves it in the stream; close
            # instead of letting it masquerade as the next request line.
            self.close_connection = True
            raise GatewayError(
                f"request body too large (> {_MAX_BODY_BYTES} bytes)", 400)
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise GatewayError(f"request body is not valid JSON: {exc}",
                               400) from None
        if not isinstance(payload, dict):
            raise GatewayError("request body must be a JSON object", 400)
        return payload

    def _drain_body(self) -> None:
        """Consume an unused request body so keep-alive framing survives.

        A POST whose body is never read would leave those bytes in the
        stream, and the next request on the connection would parse them
        as its request line.
        """
        length = self.headers.get("Content-Length")
        if length is None:
            return
        try:
            remaining = int(length)
        except ValueError:
            self.close_connection = True
            return
        if remaining > _MAX_BODY_BYTES:
            # Not worth reading out; close so the tail cannot desync the
            # next keep-alive request.
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 1 << 16))
            if not chunk:
                break
            remaining -= len(chunk)

    def _dispatch(self, endpoint: str, handler, traced: bool = True) -> None:
        """Run one endpoint handler under the uniform error contract.

        When ``traced`` (the default), the handler runs inside a request
        trace: a sanitized client-supplied ``X-Repro-Trace-Id`` is adopted
        (a fresh id is minted otherwise), the completed trace lands in the
        gateway's ring buffer for ``GET /v1/traces``, its span durations
        feed the per-stage histograms, and the id echoes back on the
        response header. ``/metrics`` and ``/v1/traces`` themselves pass
        ``traced=False`` so reading telemetry never pollutes it.
        """
        trace = None
        trace_cm = start_trace(
            f"http.{endpoint}",
            trace_id=sanitize_trace_id(self.headers.get(TRACE_HEADER)),
            store=self.gateway.traces) if traced else None
        if trace_cm is not None:
            trace = trace_cm.__enter__()
            if trace is not None:
                self._trace_id = trace.trace_id
                annotate("endpoint", endpoint)
        try:
            status, payload = handler()
        except GatewayError as exc:
            status, payload = exc.status, {"error": str(exc), **exc.fields}
        except AdmissionError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except DeadlineExceeded as exc:
            status, payload = 504, {"error": str(exc)}
        except (ServiceError, CheckpointError) as exc:
            status, payload = 409, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the 500 safety net
            status, payload = 500, {
                "error": f"internal error: {type(exc).__name__}: {exc}"}
        if trace_cm is not None:
            annotate("status", status)
            trace_cm.__exit__(None, None, None)
            if trace is not None:
                self.gateway.observe_trace(trace.to_dict())
        try:
            self._send_json(status, payload, endpoint)
        except (BrokenPipeError, ConnectionResetError):
            # Client went away before the response (common on the 429
            # path under overload); drop the connection quietly but keep
            # the metrics honest.
            self.close_connection = True
            self.gateway.record(endpoint, status)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._request_started = time.perf_counter()
        self._trace_id = None
        parsed = urlparse(self.path)
        path = parsed.path
        if path == "/healthz":
            query = parse_qs(parsed.query)
            deep = query.get("deep", ["0"])[0] not in ("0", "", "false")
            self._dispatch("healthz",
                           lambda: self._health_response(deep))
        elif path == "/metrics":
            try:
                text = self.gateway.metrics_text()
            except Exception as exc:  # noqa: BLE001
                self._send_error_json(
                    500, f"internal error: {type(exc).__name__}: {exc}",
                    "metrics")
            else:
                self._send(200, text.encode("utf-8"),
                           "text/plain; version=0.0.4; charset=utf-8",
                           "metrics")
        elif path == "/v1/models":
            self._dispatch("models", lambda: (200,
                                              self.gateway.list_models()))
        elif path == "/v1/traces":
            query = parse_qs(parsed.query)
            self._dispatch("traces", lambda: (200, self._traces_response(
                query)), traced=False)
        else:
            self._send_error_json(404, f"no such endpoint: GET {path}",
                                  "unknown")

    def _health_response(self, deep: bool) -> Tuple[int, dict]:
        """``/healthz`` [+ ``?deep=1``]: 503 once the SLO burn sustains —
        load balancers should stop sending traffic to a burning instance."""
        payload = self.gateway.health(deep=deep)
        status = 503 if payload.get("status") == "failing" else 200
        return status, payload

    def _traces_response(self, query: dict) -> dict:
        last = query.get("last", [None])[0]
        if last is not None:
            try:
                last = int(last)
            except ValueError:
                raise GatewayError("'last' must be an integer",
                                   400) from None
        return self.gateway.traces_payload(
            last=last, trace_id=query.get("id", [None])[0])

    def _deadline_ms(self) -> Optional[float]:
        """Parse ``X-Repro-Deadline-Ms`` (None when absent or malformed).

        A malformed deadline is treated as no deadline rather than a 400:
        the header is an optimisation hint, and refusing the request over
        it would turn a client-side formatting bug into an outage.
        """
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
        return value if value > 0 else None

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._request_started = time.perf_counter()
        self._trace_id = None
        path = urlparse(self.path).path
        if path == "/v1/score":
            deadline_ms = self._deadline_ms()
            self._dispatch(
                "score",
                lambda: (200, self.gateway.score(self._read_json_body(),
                                                 deadline_ms=deadline_ms)))
        elif path == "/v1/events":
            self._dispatch(
                "events",
                lambda: (200,
                         self.gateway.ingest_events(self._read_json_body())))
        else:
            match = _ACTIVATE_PATTERN.match(path)
            if match is not None:
                name = match.group("name")
                self._drain_body()  # activate takes no body; keep framing
                self._dispatch(
                    "activate",
                    lambda: (200, self.gateway.activate(name)))
            else:
                self._drain_body()
                self._send_error_json(404, f"no such endpoint: POST {path}",
                                      "unknown")


class ReproServer(ThreadingHTTPServer):
    """Threading HTTP server owning one :class:`Gateway`."""

    daemon_threads = True
    # Ephemeral-port test servers restart fast; avoid TIME_WAIT bind errors.
    allow_reuse_address = True
    # socketserver's default listen backlog is 5: a 16-connection burst
    # would overflow it, and the dropped SYNs come back as connection
    # resets or 1s retransmit stalls. Size it for thundering herds.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], gateway: Gateway,
                 verbose: bool = False):
        super().__init__(address, ServerHandler)
        self.gateway = gateway
        self.verbose = verbose

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def close(self) -> dict:
        """Stop accepting, drain admitted work, release the socket.

        The gateway's shutdown report (leaked batcher threads, killed
        pool workers) is logged here — a dirty shutdown used to vanish
        silently — and returned to the caller.
        Idempotent: repeated calls return the first report unlogged.
        """
        previous = getattr(self, "_close_report", None)
        if previous is not None:
            self.server_close()
            return dict(previous)
        report = self.gateway.close()
        self._close_report = report
        self.server_close()
        batcher = report.get("batcher", {})
        pool = report.get("pool", {})
        dirty = bool(batcher.get("leaked_workers")) or \
            bool(pool.get("workers_killed"))
        if dirty:
            _log.error("server.dirty_shutdown",
                       leaked_threads=batcher.get("leaked_workers", []),
                       pending_at_close=batcher.get("pending_at_close", 0),
                       pool_workers_killed=pool.get("workers_killed", 0))
        else:
            _log.info("server.shutdown_clean",
                      batcher_workers_joined=batcher.get(
                          "workers_joined", 0),
                      pool_workers_stopped=pool.get("workers_stopped", 0))
        return report


def make_server(gateway: Gateway, host: str = "127.0.0.1", port: int = 0,
                verbose: bool = False) -> ReproServer:
    """Bind a :class:`ReproServer` (``port=0`` picks an ephemeral port)."""
    return ReproServer((host, port), gateway, verbose=verbose)


class ServerThread:
    """A running server on a background thread (tests, notebooks, CI).

    Usage::

        with ServerThread(gateway) as server:
            client = ServerClient(port=server.port)
            ...
    """

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False):
        self.server = make_server(gateway, host=host, port=port,
                                  verbose=verbose)
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True, name="repro-server")
        self._thread.start()
        return self

    def stop(self) -> dict:
        """Stop serving; returns the server's shutdown report."""
        self.server.shutdown()
        report = self.server.close()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        return report

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


__all__ = ["DEADLINE_HEADER", "ReproServer", "ServerHandler", "ServerThread",
           "TRACE_HEADER", "make_server"]
