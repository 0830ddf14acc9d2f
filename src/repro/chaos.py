"""Deterministic fault injection for resilience testing.

Production failures — a checkpoint that will not read, a worker process
dying mid-batch, a dependency that suddenly takes 50 ms, a peer resetting
the connection — are rare enough that the code paths handling them rot
unexercised. This module plants named **fault points** at those sites so
tests (and operators reproducing an incident) can trigger the failure
*deterministically*: a fault fires an exact number of times, optionally
only for requests matching a key (e.g. one graph fingerprint), and then
disarms, so "fail twice then recover" scenarios — the shape every retry,
watchdog and circuit-breaker test needs — are a one-line setup.

Instrumented sites (grep for :func:`fail_point`)::

    checkpoint.load     repro.serve.checkpoint.load_checkpoint  (IOError)
    service.score       DetectorService scoring pass            (key=fingerprint)
    gateway.score       Gateway.score entry (stage latency)
    http.reset          HTTP handler (connection reset, no response)
    pool.dispatch       ProcessPool.score before sending to a worker
    pool.worker         pool worker process before scoring a batch

Faults are configured programmatically (:func:`configure`) or from the
environment at import time::

    REPRO_CHAOS="checkpoint.load:ioerror:1,gateway.score:latency:0.05"

Each entry is ``point:mode[:param]`` where ``param`` is the trigger count
for error modes (default 1; ``inf`` = never disarm) and the sleep seconds
for ``latency``. Modes: ``error`` (:class:`ChaosError`), ``ioerror``
(:class:`OSError`), ``reset`` (:class:`ConnectionResetError`),
``latency`` (sleep).

The disabled-state contract matches :mod:`repro.obs.trace`: when nothing
is armed, :func:`fail_point` is a single module-global read — no locks,
no allocation — so permanently-instrumented hot paths cost nothing in
production.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional


class ChaosError(RuntimeError):
    """The generic injected failure (``mode="error"``)."""


#: exception classes by error-mode name
_ERROR_MODES = {
    "error": ChaosError,
    "ioerror": OSError,
    "reset": ConnectionResetError,
}

_LATENCY = "latency"
_MODES = frozenset(_ERROR_MODES) | {_LATENCY}


class _Fault:
    """One armed fault point (internal; guarded by the module lock)."""

    __slots__ = ("point", "mode", "remaining", "seconds", "key", "message",
                 "hits", "triggered")

    def __init__(self, point: str, mode: str, *, count: Optional[int],
                 seconds: float, key: Optional[str], message: Optional[str]):
        self.point = point
        self.mode = mode
        self.remaining = count          # None = never disarms
        self.seconds = seconds
        self.key = key
        self.message = message
        self.hits = 0                   # times the point was reached
        self.triggered = 0              # times the fault actually fired


_lock = threading.Lock()
_faults: Dict[str, _Fault] = {}
#: all-time trigger counts, kept across reset() so /metrics stays monotonic
_trigger_totals: Dict[str, int] = {}
#: fast-path gate — False means fail_point() returns after one global read
_active = False


def configure(point: str, mode: str = "error", *, count: Optional[int] = 1,
              seconds: float = 0.0, key: Optional[str] = None,
              message: Optional[str] = None) -> None:
    """Arm one fault point.

    Parameters
    ----------
    point:
        The fault-point name (see the module docstring for the sites).
    mode:
        ``error`` / ``ioerror`` / ``reset`` raise the matching exception;
        ``latency`` sleeps ``seconds`` instead of raising.
    count:
        Triggers before the fault disarms itself (``None`` = unlimited).
        Counted faults are what make "fail N times then succeed"
        scenarios deterministic.
    seconds:
        Sleep duration for ``latency`` mode.
    key:
        When given, the fault only fires for :func:`fail_point` calls
        whose ``key`` starts with this prefix (e.g. a graph fingerprint),
        so one poisoned request can fail while its neighbours succeed.
    message:
        Override the raised exception's message.
    """
    global _active
    if mode not in _MODES:
        raise ValueError(f"unknown chaos mode {mode!r}; "
                         f"pick one of {sorted(_MODES)}")
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1 or None, got {count}")
    if seconds < 0:
        raise ValueError(f"seconds must be >= 0, got {seconds}")
    with _lock:
        _faults[point] = _Fault(point, mode, count=count, seconds=seconds,
                                key=key, message=message)
        _active = True


def reset() -> None:
    """Disarm every fault point (test teardown)."""
    global _active
    with _lock:
        _faults.clear()
        _active = False


def active() -> bool:
    """True when at least one fault point is armed."""
    return _active


def stats() -> Dict[str, Dict[str, int]]:
    """Per-point telemetry: ``{point: {hits, triggered, armed}}``.

    ``triggered`` is all-time (monotonic across :func:`reset`), which is
    what the ``/metrics`` counter contract needs.
    """
    with _lock:
        out: Dict[str, Dict[str, int]] = {}
        for point, total in _trigger_totals.items():
            out[point] = {"hits": 0, "triggered": total, "armed": 0}
        for point, fault in _faults.items():
            slot = out.setdefault(point,
                                  {"hits": 0, "triggered": 0, "armed": 0})
            slot["hits"] = fault.hits
            slot["armed"] = 1
        return out


def install_from_env(spec: Optional[str] = None) -> int:
    """Arm faults from a ``REPRO_CHAOS``-style spec; returns faults armed.

    ``spec`` defaults to ``os.environ["REPRO_CHAOS"]``. Entries are
    comma- or semicolon-separated ``point:mode[:param]``; a malformed
    entry raises :class:`ValueError` naming it (a chaos config typo must
    not silently disable the experiment).
    """
    if spec is None:
        spec = os.environ.get("REPRO_CHAOS", "")
    armed = 0
    for raw in spec.replace(";", ",").split(","):
        entry = raw.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) < 2:
            raise ValueError(
                f"bad REPRO_CHAOS entry {entry!r}: expected "
                f"'point:mode[:param]'")
        point, mode, param = parts[0], parts[1], (parts[2] if len(parts) > 2
                                                  else None)
        if mode == _LATENCY:
            seconds = float(param) if param is not None else 0.01
            configure(point, mode, count=None, seconds=seconds)
        else:
            if param is None:
                count: Optional[int] = 1
            elif param.lower() in ("inf", "forever"):
                count = None
            else:
                count = int(param)
            configure(point, mode, count=count)
        armed += 1
    return armed


def fail_point(point: str, key: Optional[str] = None) -> None:
    """Trigger ``point``'s configured fault, if armed and matching.

    Free when chaos is idle (one module-global read). Raising modes raise
    their exception; ``latency`` sleeps and returns. A counted fault that
    reaches zero remaining triggers disarms itself.
    """
    if not _active:
        return
    sleep_for = 0.0
    raise_exc: Optional[BaseException] = None
    with _lock:
        fault = _faults.get(point)
        if fault is None:
            return
        fault.hits += 1
        if fault.key is not None and (key is None
                                      or not key.startswith(fault.key)):
            return
        if fault.remaining is not None:
            if fault.remaining <= 0:
                return
            fault.remaining -= 1
            if fault.remaining == 0:
                # Leave the spent fault registered so stats() still shows
                # it, but it can never fire again.
                pass
        fault.triggered += 1
        _trigger_totals[point] = _trigger_totals.get(point, 0) + 1
        if fault.mode == _LATENCY:
            sleep_for = fault.seconds
        else:
            message = fault.message or (
                f"chaos: injected {fault.mode} at fault point {point!r}")
            raise_exc = _ERROR_MODES[fault.mode](message)
    if sleep_for > 0:
        time.sleep(sleep_for)
    if raise_exc is not None:
        raise raise_exc


# Arm faults named in the environment at import time: the serving/stream
# processes read their chaos config once at startup, exactly like
# REPRO_TRACE / REPRO_LOG.
if os.environ.get("REPRO_CHAOS"):
    install_from_env()


__all__ = ["ChaosError", "active", "configure", "fail_point",
           "install_from_env", "reset", "stats"]
