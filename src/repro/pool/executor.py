"""Process-pool leader: fork scoring workers over a shared checkpoint.

:class:`ProcessPool` is the leader half of the process execution tier.
It publishes the active detector's checkpoint payload into shared memory
once (:class:`~repro.pool.shm.SharedModelStore`), forks ``workers``
scoring processes that attach it zero-copy, and dispatches scoring work
over per-worker pipes:

* **Sticky routing** — a fingerprint always lands on the same worker
  (crc32 modulo pool size), so *distinct* fingerprints fan out across
  processes (the herd case the thread tier serializes on the GIL).
  Workers cache no results: the leader's
  :class:`~repro.serve.service.DetectorService` caches and dedups, and
  dispatches here only the passes it cannot answer.
* **Generation pinning** — every dispatch holds a reference on the
  checkpoint generation it was routed against; ``publish_detector()``
  hot-swaps all workers to a new generation and the old segments are
  unlinked only when the last in-flight batch drains.
* **Crash rescue** — a worker that dies mid-batch (EOF/broken pipe/recv
  timeout) is killed, respawned from the current manifest, and the batch
  retried a bounded number of times; a watchdog respawns workers that die
  *idle*. SIGKILLed workers leak nothing — the leader owns the segments.
* **Chaos** — ``pool.dispatch`` (leader, pre-send) and ``pool.worker``
  (child, pre-score) fail points let the fault-injection suite exercise
  both sides of the pipe.

The pool raises :class:`PoolUnavailable` from ``__init__`` when the
platform has no usable POSIX shared memory; the gateway catches that and
falls back to the in-process thread tier.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import zlib
from typing import List, Optional

import numpy as np

from .. import chaos
from ..graphs.multiplex import MultiplexGraph
from ..obs.metrics import Collected, dict_families, family
from ..obs.trace import span
from ..serve.checkpoint import checkpoint_payload
from .shm import (
    SharedMemoryError,
    SharedModelStore,
    list_segments,
    reclaim_stale_segments,
    shm_available,
)
from .worker import encode_graph, rebuild_error, worker_main

#: environment override for the multiprocessing start method
_START_ENV = "REPRO_POOL_START"

#: how long to wait for a freshly spawned worker's "ready" handshake
_READY_TIMEOUT = 60.0

#: default ceiling on one batch's round trip before the worker is
#: declared wedged and respawned (scoring a cold graph is seconds, not
#: minutes, at the dataset sizes this project serves)
_DEFAULT_SCORE_TIMEOUT = 300.0

#: how many times a batch is retried after a worker crash
_MAX_RETRIES = 2

_WATCHDOG_INTERVAL = 1.0


class PoolUnavailable(RuntimeError):
    """The process tier cannot run here (no shm, spawn failure, closed)."""


class _Worker:
    """Leader-side handle for one scoring process."""

    __slots__ = ("worker_id", "process", "conn", "lock", "requests",
                 "errors", "respawns", "generation")

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.respawns = 0
        self.generation: Optional[int] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def rss_bytes(self) -> int:
        """Resident set size of the worker process (Linux; 0 elsewhere)."""
        if not self.alive:
            return 0
        try:
            with open(f"/proc/{self.process.pid}/statm") as fh:
                fields = fh.read().split()
            return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
        except (OSError, IndexError, ValueError):
            return 0


#: (stats() key, family, kind, HELP) of the pool-level families
_POOL_FAMILIES = (
    ("workers", "pool_workers", "gauge",
     "Scoring worker processes configured."),
    ("workers_alive", "pool_workers_alive", "gauge",
     "Scoring worker processes currently alive."),
    ("dispatches", "pool_dispatches_total", "counter",
     "Batches dispatched to worker processes."),
    ("retries", "pool_retries_total", "counter",
     "Batches retried after a worker crash or stall."),
    ("worker_deaths", "pool_worker_deaths_total", "counter",
     "Worker processes that died and were respawned."),
    ("shm_generation", "pool_generation", "gauge",
     "Active shared-checkpoint generation."),
    ("shm_generations_live", "pool_shm_generations_live", "gauge",
     "Checkpoint generations still mapped (in-flight batches pin retired "
     "ones)."),
    ("shm_segments", "pool_shm_segments", "gauge",
     "Shared-memory segments currently linked."),
    ("shm_bytes", "pool_shm_bytes", "gauge",
     "Bytes of checkpoint payload in shared memory (one copy per machine)."),
    ("shm_refs", "pool_shm_refs", "gauge",
     "In-flight batch references pinning generations."),
    ("shm_retired_unlinked", "pool_shm_retired_total", "counter",
     "Retired generations whose segments were unlinked."),
)

#: (worker_infos() key, family, kind, HELP) of the per-worker families
_WORKER_FAMILIES = (
    ("alive", "pool_worker_alive", "gauge",
     "1 when the scoring worker process is alive, by worker."),
    ("requests", "pool_worker_requests_total", "counter",
     "Batches answered, by worker process."),
    ("respawns", "pool_worker_respawns_total", "counter",
     "Times the worker slot was respawned, by worker."),
    ("rss_bytes", "pool_worker_resident_memory_bytes", "gauge",
     "Resident set size of the scoring worker, by worker."),
)


class ProcessPool:
    """N forked scoring workers sharing one shm copy of the checkpoint.

    Parameters
    ----------
    detector:
        The fitted detector to publish (must be checkpointable — the pool
        serializes it through :func:`repro.serve.checkpoint.checkpoint_payload`).
    workers:
        Number of scoring processes.
    graph:
        Optional training graph, forwarded to ``checkpoint_payload`` so
        the published header carries the trained-graph fingerprint.
    score_timeout:
        Seconds one dispatched batch may take before its worker is
        declared wedged and respawned.
    start_method:
        multiprocessing start method; defaults to ``$REPRO_POOL_START``,
        then ``fork`` where available (workers then inherit nothing but
        page-table entries). Create the pool **before** starting any
        threads when using fork.
    """

    def __init__(self, detector, workers: int = 2,
                 graph: Optional[MultiplexGraph] = None,
                 score_timeout: float = _DEFAULT_SCORE_TIMEOUT,
                 start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not shm_available():
            raise PoolUnavailable(
                "POSIX shared memory is unavailable; process tier cannot "
                "run here (falling back to threads is the caller's job)")
        self.reclaimed_segments = reclaim_stale_segments()
        self.score_timeout = float(score_timeout)
        self._lock = threading.Lock()
        self._closed = False
        self.dispatches = 0
        self.retries = 0
        self.worker_deaths = 0

        method = start_method or os.environ.get(_START_ENV)
        if method is None:
            method = ("fork" if "fork" in
                      multiprocessing.get_all_start_methods() else None)
        self._ctx = (multiprocessing.get_context(method)
                     if method else multiprocessing.get_context())

        self._store = SharedModelStore()
        try:
            header, payload = checkpoint_payload(detector, graph)
            self._store.publish(header, payload)
            self._workers: List[_Worker] = []
            for worker_id in range(int(workers)):
                worker = _Worker(worker_id)
                self._spawn(worker)
                self._workers.append(worker)
        except PoolUnavailable:
            self._abort()
            raise
        except (SharedMemoryError, OSError, ValueError) as exc:
            self._abort()
            raise PoolUnavailable(f"process pool startup failed: {exc}") \
                from exc

        self._watchdog_stop = threading.Event()
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-pool-watchdog", daemon=True)
        self._watchdog.start()

    def _abort(self) -> None:
        """Best-effort teardown for a pool that never finished starting."""
        for worker in getattr(self, "_workers", []):
            if worker.process is not None and worker.process.is_alive():
                worker.process.kill()
        try:
            self._store.close()
        except SharedMemoryError:  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker: _Worker) -> None:
        """(Re)start one worker from the current manifest. Caller must
        hold ``worker.lock`` when respawning a live slot."""
        manifest = self._store.manifest()
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, manifest, worker.worker_id),
            name=f"repro-pool-worker-{worker.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_READY_TIMEOUT):
            process.kill()
            raise PoolUnavailable(
                f"worker {worker.worker_id} did not come up within "
                f"{_READY_TIMEOUT:.0f}s")
        reply = parent_conn.recv()
        if reply[0] != "ready":
            process.kill()
            raise PoolUnavailable(
                f"worker {worker.worker_id} failed to initialise: {reply!r}")
        worker.process = process
        worker.conn = parent_conn
        worker.generation = reply[2]

    def _respawn(self, worker: _Worker) -> None:
        """Kill (if needed) and restart a crashed/wedged worker."""
        if worker.process is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        worker.respawns += 1
        self.worker_deaths += 1
        self._spawn(worker)

    def _watch(self) -> None:
        """Respawn workers that die while idle (OOM kill, stray signal)."""
        while not self._watchdog_stop.wait(_WATCHDOG_INTERVAL):
            for worker in self._workers:
                if self._closed:
                    return
                if worker.alive:
                    continue
                # A dispatcher holding the lock is already handling this
                # death; only the watchdog path needs to volunteer.
                if worker.lock.acquire(blocking=False):
                    try:
                        if not worker.alive and not self._closed:
                            try:
                                self._respawn(worker)
                            except PoolUnavailable:
                                # Spawning will be retried next tick; the
                                # dispatcher path surfaces hard failures.
                                pass
                    finally:
                        worker.lock.release()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pick(self, fingerprint: str) -> _Worker:
        """Sticky fingerprint → worker routing."""
        index = zlib.crc32(fingerprint.encode()) % len(self._workers)
        return self._workers[index]

    def score(self, graph: MultiplexGraph, fingerprint: str) -> np.ndarray:
        """Score one (graph, fingerprint) batch on a worker process.

        Bitwise-identical to ``detector.score_graph(graph)`` in this
        process, for every graph — the trained one too: answering it from
        stored scores is the service's job. Worker-side exceptions are
        re-raised here with their original type, crashes are retried on a
        respawned worker.
        """
        if self._closed:
            raise PoolUnavailable("process pool is closed")
        chaos.fail_point("pool.dispatch", key=fingerprint)
        payload = encode_graph(graph)
        request_id = None
        last_exc: Optional[BaseException] = None
        for attempt in range(_MAX_RETRIES + 1):
            worker = self._pick(fingerprint)
            generation = self._store.acquire()
            try:
                with span("pool.dispatch") as sp:
                    sp.set("pool.worker", worker.worker_id)
                    sp.set("pool.generation", generation)
                    sp.set("pool.attempt", attempt)
                    with worker.lock:
                        request_id = f"{fingerprint[:12]}:{self.dispatches}"
                        self.dispatches += 1
                        try:
                            worker.conn.send(
                                ("score", request_id, payload, fingerprint))
                            if not worker.conn.poll(self.score_timeout):
                                raise TimeoutError(
                                    f"worker {worker.worker_id} exceeded "
                                    f"{self.score_timeout:.0f}s")
                            reply = worker.conn.recv()
                        except (BrokenPipeError, EOFError, OSError,
                                TimeoutError) as exc:
                            worker.errors += 1
                            last_exc = exc
                            self.retries += 1
                            self._respawn(worker)
                            continue
                    if reply[0] == "err":
                        worker.errors += 1
                        raise rebuild_error(reply[2], reply[3])
                    _ok, _rid, scores, telemetry = reply
                    worker.requests += 1
                    with span("pool.worker_score") as ws:
                        ws.set("pool.worker", telemetry["worker"])
                        ws.set("pool.wall_ms",
                               round(telemetry["wall_ms"], 3))
                        ws.set("pool.generation", telemetry["generation"])
                    return scores
            finally:
                self._store.release(generation)
        raise PoolUnavailable(
            f"batch failed after {_MAX_RETRIES + 1} attempts "
            f"(last worker error: {last_exc})")

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def publish_detector(self, detector,
                         graph: Optional[MultiplexGraph] = None) -> int:
        """Publish a new checkpoint generation and retarget all workers.

        Atomic per worker: each reload happens under that worker's
        dispatch lock, so a batch either runs wholly on the old weights
        or wholly on the new ones. Old segments are unlinked once the
        last in-flight reference drains. Returns the new generation id.
        """
        if self._closed:
            raise PoolUnavailable("process pool is closed")
        header, payload = checkpoint_payload(detector, graph)
        manifest = self._store.publish(header, payload)
        failures: List[str] = []
        for worker in self._workers:
            with worker.lock:
                try:
                    worker.conn.send(("reload", manifest))
                    if not worker.conn.poll(_READY_TIMEOUT):
                        raise TimeoutError("reload timed out")
                    reply = worker.conn.recv()
                except (BrokenPipeError, EOFError, OSError,
                        TimeoutError) as exc:
                    # A respawn attaches the *new* manifest — the swap
                    # still converges.
                    try:
                        self._respawn(worker)
                    except PoolUnavailable as spawn_exc:
                        failures.append(
                            f"worker {worker.worker_id}: {exc} "
                            f"(respawn failed: {spawn_exc})")
                    continue
                if reply[0] == "reloaded":
                    worker.generation = reply[2]
                else:
                    failures.append(
                        f"worker {worker.worker_id}: {reply[2]}: {reply[3]}")
        if failures:
            raise PoolUnavailable(
                "hot swap incomplete: " + "; ".join(failures))
        return int(manifest["generation"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def generation(self) -> int:
        return int(self._store.current_generation or 0)

    def worker_infos(self) -> List[dict]:
        """Per-worker liveness/throughput/memory snapshot (for /healthz
        deep mode, ``pool_*`` metrics and the runtime sampler)."""
        infos = []
        for worker in self._workers:
            infos.append({
                "worker": worker.worker_id,
                "pid": worker.pid,
                "alive": worker.alive,
                "requests": worker.requests,
                "errors": worker.errors,
                "respawns": worker.respawns,
                "generation": worker.generation,
                "rss_bytes": worker.rss_bytes(),
            })
        return infos

    def stats(self) -> dict:
        """Pool-level counters + shm store stats (one flat dict)."""
        shm = self._store.stats()
        return {
            "workers": len(self._workers),
            "workers_alive": sum(1 for w in self._workers if w.alive),
            "dispatches": self.dispatches,
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "reclaimed_at_startup": len(self.reclaimed_segments),
            **{f"shm_{key}": value for key, value in shm.items()},
        }

    def collect(self) -> Collected:
        """The ``pool_*`` families; :meth:`stats` plus the per-worker
        :meth:`worker_infos` are the deep-health entry."""
        stats, infos = self.stats(), self.worker_infos()
        families = dict_families(stats, _POOL_FAMILIES)
        if infos:
            families += [family(name, kind, help_text,
                                [({"worker": str(info["worker"])},
                                  int(info[key])) for info in infos])
                         for key, name, kind, help_text in _WORKER_FAMILIES]
        return Collected(families, {**stats, "worker_infos": infos})

    def ping(self) -> List[dict]:
        """Round-trip every worker's pipe; returns their pong payloads."""
        pongs = []
        for worker in self._workers:
            with worker.lock:
                try:
                    worker.conn.send(("ping", "ping"))
                    if worker.conn.poll(5.0):
                        reply = worker.conn.recv()
                        if reply[0] == "pong":
                            pongs.append(reply[2])
                except (BrokenPipeError, EOFError, OSError):
                    continue
        return pongs

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> dict:
        """Stop workers, unlink segments, report what did not die cleanly.

        Returns ``{"workers_stopped", "workers_killed", "leaked_segments"}``
        — the caller (gateway → app shutdown) logs a non-empty kill/leak
        report instead of dropping it.
        """
        with self._lock:
            if self._closed:
                return {"workers_stopped": 0, "workers_killed": 0,
                        "leaked_segments": []}
            self._closed = True
        self._watchdog_stop.set()
        self._watchdog.join(timeout=5.0)
        stopped = killed = 0
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            with worker.lock:
                if worker.conn is not None:
                    try:
                        worker.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
                if worker.process is not None:
                    worker.process.join(
                        timeout=max(0.1, deadline - time.monotonic()))
                    if worker.process.is_alive():
                        worker.process.kill()
                        worker.process.join(timeout=5.0)
                        killed += 1
                    else:
                        stopped += 1
                if worker.conn is not None:
                    try:
                        worker.conn.close()
                    except OSError:  # pragma: no cover
                        pass
        self._store.close()
        leaked = [name for name in list_segments()
                  if f"-{os.getpid()}-" in name]
        return {"workers_stopped": stopped, "workers_killed": killed,
                "leaked_segments": leaked}


__all__ = ["PoolUnavailable", "ProcessPool"]
