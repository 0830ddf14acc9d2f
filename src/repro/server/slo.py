"""Rolling-window SLO tracking for the HTTP gateway.

The gateway feeds every request outcome (endpoint, latency, error) into
an :class:`SLOTracker`. Per endpoint the tracker keeps:

* a **rolling ring** of the last ``window`` observations — powering the
  live ``slo_latency_p50_seconds`` / ``slo_latency_p99_seconds`` /
  ``slo_error_ratio`` gauges at ``/metrics``;
* **tumbling windows**: every ``window``-th observation completes a
  :class:`WindowSummary` (p50/p99/error-rate vs the objective) appended
  to a bounded history — the "ledger of last N windows" surfaced by
  ``GET /healthz?deep=1``.

Health rolls up as:

* ``failing`` — some endpoint's last ``sustain`` completed windows *all*
  violated the objective (sustained burn → ``/healthz`` returns 503);
* ``degraded`` — the most recent completed window violated, or the live
  ring currently violates with enough samples to judge;
* ``ok`` — otherwise.

Errors are server faults (HTTP status >= 500); client errors (4xx) are
load shedding working as intended and do not burn the SLO.

Quantiles use the nearest-rank method (no interpolation): exact on the
small windows involved and stable for gating.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import Collected, family


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile ``q`` in [0, 1] of non-empty ``values``."""
    if not values:
        raise ValueError("nearest_rank needs at least one value")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class SLOObjective:
    """The target a window is judged against."""

    p99_seconds: float = 2.5
    error_ratio: float = 0.02

    def to_dict(self) -> dict:
        return {"p99_seconds": self.p99_seconds,
                "error_ratio": self.error_ratio}


@dataclass(frozen=True)
class WindowSummary:
    """One completed tumbling window of an endpoint."""

    endpoint: str
    index: int               # completed-window sequence number (per endpoint)
    samples: int
    p50_seconds: float
    p99_seconds: float
    error_ratio: float
    compliant: bool
    completed_unix: float

    def to_dict(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "index": self.index,
            "samples": self.samples,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
            "error_ratio": self.error_ratio,
            "compliant": self.compliant,
            "completed_unix": self.completed_unix,
        }


class _EndpointState:
    __slots__ = ("ring", "observations", "windows", "burn_windows",
                 "history")

    def __init__(self, window: int, history: int):
        # (seconds, error) pairs; maxlen keeps the live view rolling
        self.ring: Deque[Tuple[float, bool]] = deque(maxlen=window)
        self.observations = 0
        self.windows = 0
        self.burn_windows = 0
        self.history: Deque[WindowSummary] = deque(maxlen=history)


@dataclass(frozen=True)
class EndpointStatus:
    """Live view of one endpoint's rolling ring + window counters."""

    endpoint: str
    samples: int
    p50_seconds: Optional[float]
    p99_seconds: Optional[float]
    error_ratio: Optional[float]
    compliant: bool
    judged: bool             # enough samples to judge compliance
    windows: int
    burn_windows: int
    burning: bool            # last `sustain` windows all violated

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
            "error_ratio": self.error_ratio,
            "compliant": self.compliant,
            "judged": self.judged,
            "windows": self.windows,
            "burn_windows": self.burn_windows,
            "burning": self.burning,
        }


#: (EndpointStatus.to_dict() key, family, kind, HELP); an endpoint whose
#: value is None (an empty ring) is left out of that family
_ENDPOINT_FAMILIES = (
    ("p50_seconds", "slo_latency_p50_seconds", "gauge",
     "Rolling-window p50 latency, by endpoint."),
    ("p99_seconds", "slo_latency_p99_seconds", "gauge",
     "Rolling-window p99 latency, by endpoint."),
    ("error_ratio", "slo_error_ratio", "gauge",
     "Rolling-window 5xx share, by endpoint."),
    ("samples", "slo_window_samples", "gauge",
     "Observations in the rolling window, by endpoint."),
    ("compliant", "slo_compliant", "gauge",
     "1 when the rolling window meets the objective."),
    ("windows", "slo_windows_total", "counter",
     "Completed tumbling SLO windows, by endpoint."),
    ("burn_windows", "slo_burn_windows_total", "counter",
     "Completed windows that violated the objective."),
)


class SLOTracker:
    """Thread-safe per-endpoint latency/error SLO bookkeeping."""

    def __init__(self, *, window: int = 100,
                 objective: Optional[SLOObjective] = None,
                 sustain: int = 2, history: int = 16,
                 min_samples: Optional[int] = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if sustain < 1:
            raise ValueError(f"sustain must be >= 1, got {sustain}")
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        self.window = int(window)
        self.objective = objective or SLOObjective()
        self.sustain = int(sustain)
        self.history = int(history)
        # live compliance needs this many ring samples before judging
        self.min_samples = (max(1, self.window // 5)
                            if min_samples is None else max(1, min_samples))
        self._lock = threading.Lock()
        self._endpoints: Dict[str, _EndpointState] = {}

    # ------------------------------------------------------------------
    def _summary(self, values: Sequence[Tuple[float, bool]]
                 ) -> Tuple[float, float, float]:
        latencies = [seconds for seconds, _error in values]
        errors = sum(1 for _seconds, error in values if error)
        return (nearest_rank(latencies, 0.50),
                nearest_rank(latencies, 0.99),
                errors / len(values))

    def _violates(self, p99: float, error_ratio: float) -> bool:
        return (p99 > self.objective.p99_seconds
                or error_ratio > self.objective.error_ratio)

    def observe(self, endpoint: str, seconds: float,
                error: bool = False) -> Optional[WindowSummary]:
        """Record one request; returns the window it completed, if any."""
        with self._lock:
            state = self._endpoints.get(endpoint)
            if state is None:
                state = _EndpointState(self.window, self.history)
                self._endpoints[endpoint] = state
            state.ring.append((float(seconds), bool(error)))
            state.observations += 1
            if state.observations % self.window:
                return None
            # tumbling window complete: the ring holds exactly the last
            # `window` observations right now
            p50, p99, error_ratio = self._summary(tuple(state.ring))
            state.windows += 1
            compliant = not self._violates(p99, error_ratio)
            if not compliant:
                state.burn_windows += 1
            summary = WindowSummary(
                endpoint=endpoint, index=state.windows,
                samples=len(state.ring), p50_seconds=p50, p99_seconds=p99,
                error_ratio=error_ratio, compliant=compliant,
                completed_unix=time.time())
            state.history.append(summary)
            return summary

    # ------------------------------------------------------------------
    def _endpoint_status_locked(self, endpoint: str,
                                state: _EndpointState) -> EndpointStatus:
        ring = tuple(state.ring)
        if ring:
            p50, p99, error_ratio = self._summary(ring)
        else:
            p50 = p99 = error_ratio = None
        judged = len(ring) >= self.min_samples
        compliant = True
        if judged and p99 is not None:
            compliant = not self._violates(p99, error_ratio)
        recent = list(state.history)[-self.sustain:]
        burning = (len(recent) >= self.sustain
                   and all(not summary.compliant for summary in recent))
        return EndpointStatus(
            endpoint=endpoint, samples=len(ring), p50_seconds=p50,
            p99_seconds=p99, error_ratio=error_ratio, compliant=compliant,
            judged=judged, windows=state.windows,
            burn_windows=state.burn_windows, burning=burning)

    def endpoint_status(self, endpoint: str) -> Optional[EndpointStatus]:
        with self._lock:
            state = self._endpoints.get(endpoint)
            if state is None:
                return None
            return self._endpoint_status_locked(endpoint, state)

    def statuses(self) -> Dict[str, EndpointStatus]:
        return self._read()[0]

    def _read(self) -> Tuple[Dict[str, EndpointStatus], List[WindowSummary]]:
        """One locked read: per-endpoint statuses, by endpoint, and every
        retained window, oldest first."""
        with self._lock:
            statuses = {endpoint: self._endpoint_status_locked(endpoint,
                                                               state)
                        for endpoint, state in sorted(self._endpoints.items())}
            merged = [summary for state in self._endpoints.values()
                      for summary in state.history]
        merged.sort(key=lambda summary: summary.completed_unix)
        return statuses, merged

    def windows(self, limit: Optional[int] = None) -> List[WindowSummary]:
        """Completed windows across endpoints, oldest first."""
        merged = self._read()[1]
        return merged if limit is None else merged[-limit:]

    @staticmethod
    def _rollup(statuses: Dict[str, EndpointStatus],
                windows: List[WindowSummary]) -> str:
        last = {summary.endpoint: summary for summary in windows}
        if any(status.burning for status in statuses.values()):
            return "failing"
        for status in statuses.values():
            window = last.get(status.endpoint)
            if window is not None and not window.compliant:
                return "degraded"
            if status.judged and not status.compliant:
                return "degraded"
        return "ok"

    def status(self) -> str:
        """``ok`` | ``degraded`` | ``failing`` rolled up over endpoints."""
        return self._rollup(*self._read())

    def last_window(self, endpoint: str) -> Optional[WindowSummary]:
        with self._lock:
            state = self._endpoints.get(endpoint)
            if state is None or not state.history:
                return None
            return state.history[-1]

    def snapshot(self, window_limit: int = 8) -> dict:
        """The deep-health payload fragment."""
        return self.collect(window_limit).health

    def collect(self, window_limit: int = 8) -> Collected:
        """Per-endpoint ``slo_*`` families and the deep-health fragment
        (its ``status`` is the rollup ``/healthz`` reports)."""
        statuses, windows = self._read()
        endpoints = {endpoint: status.to_dict()
                     for endpoint, status in statuses.items()}
        families = []
        for key, name, kind, help_text in _ENDPOINT_FAMILIES:
            series = [({"endpoint": endpoint}, row[key])
                      for endpoint, row in endpoints.items()
                      if row[key] is not None]
            if series:
                families.append(family(name, kind, help_text, series))
        if endpoints:
            families.append(family(
                "slo_objective_p99_seconds", "gauge",
                "Configured p99 latency objective, by endpoint.",
                [({"endpoint": endpoint}, self.objective.p99_seconds)
                 for endpoint in endpoints]))
        return Collected(families, {
            "status": self._rollup(statuses, windows),
            "objective": self.objective.to_dict(),
            "window": self.window,
            "sustain": self.sustain,
            "endpoints": endpoints,
            "windows": [summary.to_dict()
                        for summary in windows[-window_limit:]],
        })


__all__ = [
    "EndpointStatus",
    "SLOObjective",
    "SLOTracker",
    "WindowSummary",
    "nearest_rank",
]
