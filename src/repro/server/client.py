"""Pure-python client for the repro serving gateway (stdlib only).

One :class:`ServerClient` wraps one keep-alive :class:`http.client.HTTPConnection`.
Connections are **not** thread-safe — a load generator should create one
client per worker thread.

Scores come back exactly as the server computed them: JSON floats
round-trip float64 bit patterns, so ``np.asarray(response["scores"])`` is
bitwise-identical to the server-side array.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Dict, Iterable, List, Optional, Union

from .gateway import SERVER_NAME

TRACE_HEADER = "X-Repro-Trace-Id"

#: statuses worth retrying: 429 is always safe (the request was never
#: admitted), 503 only for idempotent requests (it may have run)
_RETRY_STATUSES = (429, 503)


class ServerClientError(RuntimeError):
    """A non-2xx response from the serving gateway."""

    def __init__(self, status: int, message: str,
                 trace_id: Optional[str] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.message = message
        #: server-side trace id of the failed request, when traced —
        #: look it up via ``client.traces(trace_id=...)``
        self.trace_id = trace_id


class ServerClient:
    """Minimal JSON client for every gateway endpoint.

    After every call, :attr:`last_headers` holds the response headers and
    :attr:`last_trace_id` the server's ``X-Repro-Trace-Id`` (``None`` for
    untraced endpoints), so callers can correlate any response with its
    server-side trace in ``GET /v1/traces``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 timeout: float = 60.0, retries: int = 0,
                 backoff_base: float = 0.1, backoff_max: float = 2.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        #: transient-failure retries per request (0 = fail fast, the
        #: default — overload tests assert raw 429s). 429 responses are
        #: always retryable; 503s and connection resets only for
        #: idempotent requests, which may safely run twice.
        self.retries = int(retries)
        #: backoff schedule: min(backoff_max, base * 2^attempt) scaled by
        #: a [0.5, 1.5) jitter factor; a server Retry-After header
        #: overrides the computed delay
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        #: response headers of the most recent request
        self.last_headers: Dict[str, str] = {}
        #: server trace id of the most recent request, if traced
        self.last_trace_id: Optional[str] = None
        #: HTTP status of the most recent request
        self.last_status: Optional[int] = None
        #: transparent reconnect-retries taken after a dead keep-alive
        #: connection (idempotent requests only; independent of `retries`)
        self.reconnects = 0
        #: backoff retries actually taken (429/503/reset)
        self.retries_taken = 0
        self._connection: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 trace_id: Optional[str] = None,
                 accept_statuses: tuple = (),
                 idempotent: Optional[bool] = None):
        """One logical request = one reconnect-retry + ``retries`` backoffs.

        Two independent retry layers:

        * **dead keep-alive reconnect** — a server may close an idle
          keep-alive connection between calls; the failure surfaces only
          when the next request hits the dead socket. For idempotent
          requests, reconnect and resend once, transparently (always on,
          not counted against ``retries``). Non-idempotent requests
          (``/v1/events`` mutates stream state) surface the error: the
          server may have processed the request before the reset.
        * **backoff retries** — up to ``retries`` attempts on 429
          (always: the request was refused at admission, it never ran),
          and on 503/connection-reset for idempotent requests only.
          Delays are jittered exponential, overridden upward by a server
          ``Retry-After`` header.
        """
        if idempotent is None:
            idempotent = method == "GET"
        attempts = 0
        reconnect_budget = 1 if idempotent else 0
        while True:
            reused = self._connection is not None
            try:
                return self._once(method, path, payload, trace_id,
                                  accept_statuses)
            except ServerClientError as exc:
                if exc.status not in _RETRY_STATUSES:
                    raise
                if exc.status == 503 and not idempotent:
                    raise
                if attempts >= self.retries:
                    raise
                delay = self._retry_delay(
                    attempts, self.last_headers.get("Retry-After"))
                attempts += 1
                self.retries_taken += 1
                time.sleep(delay)
            except (http.client.HTTPException, OSError):
                if not idempotent:
                    raise
                if reused and reconnect_budget > 0:
                    # The keep-alive connection died while idle; _once
                    # already dropped it, so the next attempt reconnects.
                    reconnect_budget -= 1
                    self.reconnects += 1
                    continue
                if attempts >= self.retries:
                    raise
                delay = self._retry_delay(attempts, None)
                attempts += 1
                self.retries_taken += 1
                time.sleep(delay)

    def _retry_delay(self, attempt: int,
                     retry_after: Optional[str]) -> float:
        delay = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        delay *= 0.5 + random.random()   # jitter: desynchronise herds
        if retry_after is not None:
            try:
                # Honour the server's hint (delta-seconds form), bounded
                # so a silly header cannot park the client for minutes.
                delay = max(delay, min(float(retry_after), 30.0))
            except ValueError:
                pass
        return delay

    def _once(self, method: str, path: str,
              payload: Optional[dict] = None,
              trace_id: Optional[str] = None,
              accept_statuses: tuple = ()):
        body = None
        headers = {"Accept": "application/json"}
        if trace_id is not None:
            headers[TRACE_HEADER] = str(trace_id)
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connect()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            status = response.status
            content_type = response.headers.get("Content-Type", "")
            self.last_headers = dict(response.headers.items())
            self.last_trace_id = response.headers.get(TRACE_HEADER)
            self.last_status = status
            raw = response.read()
        except (http.client.HTTPException, OSError):
            # A dead keep-alive connection is not retryable mid-request;
            # drop it so the next call reconnects, and surface the error.
            self.close()
            raise
        if "application/json" in content_type:
            data = json.loads(raw)
        else:
            data = raw.decode("utf-8")
        if status >= 400 and status not in accept_statuses:
            message = data.get("error", str(data)) \
                if isinstance(data, dict) else str(data)
            raise ServerClientError(status, message,
                                    trace_id=self.last_trace_id)
        return data

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def score(self, graph: Optional[dict] = None, *,
              fingerprint: Optional[str] = None,
              nodes: Optional[List[int]] = None,
              top_k: Optional[int] = None,
              threshold: bool = False,
              trace_id: Optional[str] = None) -> dict:
        """POST /v1/score.

        ``graph`` is the inline payload form (see
        :func:`repro.server.protocol.graph_payload`, or pass a
        :class:`~repro.graphs.multiplex.MultiplexGraph` and it is
        serialised for you); ``fingerprint`` alone performs a warm-cache
        lookup. ``trace_id`` is forwarded as ``X-Repro-Trace-Id`` so the
        server-side trace adopts the caller's id.
        """
        if graph is None and fingerprint is None:
            raise ValueError("score() needs a graph payload or a fingerprint")
        payload: dict = {}
        if graph is not None:
            if not isinstance(graph, dict):
                from .protocol import graph_payload

                graph = graph_payload(graph)
            payload["graph"] = graph
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        if nodes is not None:
            payload["nodes"] = [int(node) for node in nodes]
        if top_k is not None:
            payload["top_k"] = int(top_k)
        if threshold:
            payload["threshold"] = True
        # Scoring is a read-only computation: safe to resend after a
        # connection reset or 503, so it opts into the idempotent retries.
        return self._request("POST", "/v1/score", payload,
                             trace_id=trace_id, idempotent=True)

    def events(self, events: Iterable[Union[dict, object]],
               flush: bool = False) -> dict:
        """POST /v1/events — accepts event objects or their dict forms."""
        serialised = [event if isinstance(event, dict) else event.to_dict()
                      for event in events]
        payload: dict = {"events": serialised}
        if flush:
            payload["flush"] = True
        # NOT idempotent: a reset after the server ingested the batch
        # would double-apply every event on resend. Surface the error and
        # let the caller decide (the WAL makes server-side state durable).
        return self._request("POST", "/v1/events", payload,
                             idempotent=False)

    def models(self) -> dict:
        """GET /v1/models."""
        return self._request("GET", "/v1/models")

    def activate(self, name: str) -> dict:
        """POST /v1/models/{name}/activate.

        Activation converges (activating the active model is a no-op), so
        it is safe to resend and opts into the idempotent retries.
        """
        return self._request("POST", f"/v1/models/{name}/activate", {},
                             idempotent=True)

    def health(self) -> dict:
        """GET /healthz."""
        return self._request("GET", "/healthz")

    def healthz(self, deep: bool = False) -> dict:
        """GET /healthz [?deep=1] — returns the payload even on 503.

        A 503 here is the health check *working* (sustained SLO burn, see
        the payload's ``status`` field), not a transport failure, so it is
        surfaced as data rather than a raised :class:`ServerClientError`;
        check ``client.last_status`` or ``payload["status"]``.
        """
        path = "/healthz?deep=1" if deep else "/healthz"
        return self._request("GET", path, accept_statuses=(503,))

    def metrics(self) -> str:
        """GET /metrics (raw Prometheus text)."""
        return self._request("GET", "/metrics")

    def metrics_parsed(self) -> Dict[str, dict]:
        """GET /metrics parsed into family dicts.

        Reuses the promlint parser: ``{family: {"type", "help",
        "samples": [{"name", "labels", "value"}, ...]}}``, histogram
        ``_bucket``/``_sum``/``_count`` samples grouped under their base
        family.
        """
        from ..obs.promlint import parse_families

        return parse_families(self.metrics())

    def traces(self, last: Optional[int] = None,
               trace_id: Optional[str] = None) -> dict:
        """GET /v1/traces — recently completed request traces.

        ``last`` limits to the N newest; ``trace_id`` fetches one specific
        trace (404 → :class:`ServerClientError` when it fell out of the
        ring).
        """
        params = []
        if last is not None:
            params.append(f"last={int(last)}")
        if trace_id is not None:
            params.append(f"id={trace_id}")
        query = ("?" + "&".join(params)) if params else ""
        return self._request("GET", f"/v1/traces{query}")

    def __repr__(self) -> str:
        return (f"ServerClient({SERVER_NAME} at "
                f"http://{self.host}:{self.port})")


__all__ = ["ServerClient", "ServerClientError", "TRACE_HEADER"]
