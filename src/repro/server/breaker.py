"""Per-fingerprint circuit breaker with stale-score degradation.

When scoring a particular graph keeps failing (a poisoned payload, a
checkpoint that rejects its schema, an injected fault), retrying every
request into the same failure burns batch capacity and latency budget for
nothing. :class:`CircuitBreaker` tracks consecutive failures **per
fingerprint** and, once a key trips, answers from the last known-good
scores instead — flagged ``degraded: true`` in the response — while
periodic *half-open* probes test whether the underlying fault has
cleared.

State machine (classic three-state breaker, one per fingerprint)::

    closed --[failure_threshold consecutive failures]--> open
    open   --[reset_timeout elapsed]-->                  half_open
    half_open --[probe succeeds]-->                      closed
    half_open --[probe fails]-->                         open (timer resets)

``closed`` passes every request through. ``open`` refuses them (the
gateway then serves stale scores, or 503 when none exist). ``half_open``
lets exactly one probe request through; its outcome decides the next
state. The clock is injectable so tests drive transitions without
sleeping.

Keys are bounded: least-recently-touched breaker entries are evicted
past ``max_keys``, so an adversarial stream of unique fingerprints
cannot grow the table without limit.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..obs.metrics import Collected, dict_families

#: (snapshot() key, family, kind, HELP)
_FAMILIES = (
    ("keys", "breaker_keys", "gauge",
     "Fingerprints tracked by the circuit breaker."),
    ("open", "breaker_open", "gauge", "Fingerprints currently tripped open."),
    ("trips", "breaker_trips_total", "counter",
     "Closed-to-open breaker transitions."),
    ("rejections", "breaker_rejections_total", "counter",
     "Requests refused by an open breaker."),
)

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class _Entry:
    __slots__ = ("state", "failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None
        #: True while the single half-open probe is in flight
        self.probing = False


class CircuitBreaker:
    """Track per-key failure streaks; trip open; probe half-open.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip a key from closed to open.
    reset_timeout:
        Seconds an open key waits before allowing a half-open probe.
    max_keys:
        Bound on tracked keys (LRU eviction beyond it).
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(self, failure_threshold: int = 3,
                 reset_timeout: float = 30.0, max_keys: int = 256,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be > 0, got {reset_timeout}")
        if max_keys < 1:
            raise ValueError(f"max_keys must be >= 1, got {max_keys}")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.max_keys = int(max_keys)
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: keys that ever tripped open (monotonic counter for /metrics)
        self.trips = 0
        #: requests refused because their key was open
        self.rejections = 0

    # ------------------------------------------------------------------
    def _entry(self, key: str) -> _Entry:
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry()
            while len(self._entries) > self.max_keys:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return entry

    def allow(self, key: str) -> bool:
        """May a request for ``key`` reach the service right now?

        Open keys refuse until ``reset_timeout`` elapses, then exactly one
        caller gets ``True`` as the half-open probe; the rest keep getting
        ``False`` until the probe's outcome is recorded.
        """
        with self._lock:
            entry = self._entry(key)
            if entry.state == CLOSED:
                return True
            if entry.state == OPEN:
                elapsed = self._clock() - (entry.opened_at or 0.0)
                if elapsed >= self.reset_timeout:
                    entry.state = HALF_OPEN
                    entry.probing = True
                    return True
                self.rejections += 1
                return False
            # half-open: one probe at a time
            if entry.probing:
                self.rejections += 1
                return False
            entry.probing = True
            return True

    def record_success(self, key: str) -> None:
        """A request for ``key`` succeeded: reset the streak, close."""
        with self._lock:
            entry = self._entry(key)
            entry.failures = 0
            entry.probing = False
            entry.state = CLOSED
            entry.opened_at = None

    def record_failure(self, key: str) -> None:
        """A request for ``key`` failed: extend the streak, maybe trip."""
        with self._lock:
            entry = self._entry(key)
            entry.failures += 1
            entry.probing = False
            if entry.state == HALF_OPEN:
                # failed probe: back to open, timer restarts
                entry.state = OPEN
                entry.opened_at = self._clock()
            elif entry.state == CLOSED and \
                    entry.failures >= self.failure_threshold:
                entry.state = OPEN
                entry.opened_at = self._clock()
                self.trips += 1

    # ------------------------------------------------------------------
    def state(self, key: str) -> str:
        """Current state of ``key`` (untracked keys are closed)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.state if entry is not None else CLOSED

    def snapshot(self) -> Dict[str, object]:
        """Aggregate view for /metrics and deep health."""
        with self._lock:
            by_state = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
            for entry in self._entries.values():
                by_state[entry.state] += 1
            return {
                "keys": len(self._entries),
                "open": by_state[OPEN],
                "half_open": by_state[HALF_OPEN],
                "closed": by_state[CLOSED],
                "trips": self.trips,
                "rejections": self.rejections,
            }

    def collect(self) -> Collected:
        """The ``breaker_*`` families; the snapshot is the health entry."""
        snap = self.snapshot()
        return Collected(dict_families(snap, _FAMILIES), snap)


__all__ = ["CLOSED", "CircuitBreaker", "HALF_OPEN", "OPEN"]
