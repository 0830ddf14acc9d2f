"""Process-pool leader: scoring workers, each with its own checkpoint copy.

:class:`ProcessPool` is the leader half of the process execution tier.
It serializes the active detector once with
:func:`~repro.serve.checkpoint.checkpoint_payload`, starts ``workers``
scoring processes that each load that ``(header, payload)`` through the
same :func:`~repro.serve.checkpoint.detector_from_payload` path a file
load takes, and dispatches scoring work over per-worker pipes:

* **Idle dispatch** — a batch goes to the first worker whose lock is
  free and waits on a busy one only when every worker is busy, so
  *distinct* fingerprints fan out across processes (the herd case the
  thread tier serializes on the GIL). Workers cache no results: the
  leader's :class:`~repro.serve.service.DetectorService` caches and
  dedups, and dispatches here only the passes it cannot answer.
* **Hot swap** — ``publish_detector()`` bumps the generation and sends
  the new payload to each worker under that worker's dispatch lock, so
  a batch runs wholly on the old weights or wholly on the new ones.
* **Crash rescue** — a worker that dies mid-batch (EOF/broken pipe/recv
  timeout) is killed, respawned from the newest payload, and the batch
  retried a bounded number of times; a watchdog respawns workers that die
  *idle*.
* **Chaos** — ``pool.dispatch`` (leader, pre-send) and ``pool.worker``
  (child, pre-score) fail points let the fault-injection suite exercise
  both sides of the pipe.

The pool raises :class:`PoolUnavailable` from ``__init__`` when a worker
cannot be started; the gateway catches that and falls back to the
in-process thread tier.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from typing import List, Optional

import numpy as np

from .. import chaos
from ..graphs.multiplex import MultiplexGraph
from ..obs.metrics import Collected, dict_families, family
from ..obs.runtime import private_memory_bytes
from ..obs.trace import span
from ..serve.checkpoint import checkpoint_payload
from .worker import encode_graph, rebuild_error, worker_main

#: multiprocessing start method: fork where the platform has it (a
#: forked worker inherits the payload instead of unpickling it), else the
#: platform default
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else None)

#: how long to wait for a freshly spawned worker's "ready" handshake
_READY_TIMEOUT = 60.0

#: ceiling on one batch's round trip before the worker is declared
#: wedged and respawned (scoring a cold graph is seconds, not minutes, at
#: the dataset sizes this project serves)
_SCORE_TIMEOUT = 300.0

#: how many times a batch is retried after a worker crash
_MAX_RETRIES = 2

_WATCHDOG_INTERVAL = 1.0


class PoolUnavailable(RuntimeError):
    """The process tier cannot run here (spawn failure, closed)."""


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

    def private_bytes(self) -> Optional[int]:
        """Memory the worker does not share with the leader (``None``
        when it is dead or the probe cannot be answered)."""
        return private_memory_bytes(self.process.pid) if self.alive else None


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
    ("generation", "pool_generation", "gauge",
     "Active shared-checkpoint generation."),
)

#: (worker_infos() key, family, kind, HELP) of the per-worker families
_WORKER_FAMILIES = (
    ("alive", "pool_worker_alive", "gauge",
     "1 when the scoring worker process is alive, by worker."),
    ("requests", "pool_worker_requests_total", "counter",
     "Batches answered, by worker process."),
    ("respawns", "pool_worker_respawns_total", "counter",
     "Times the worker slot was respawned, by worker."),
    ("private_bytes", "pool_worker_private_memory_bytes", "gauge",
     "Memory the scoring worker does not share with the leader "
     "(smaps_rollup Private_Clean + Private_Dirty), by worker."),
)


class ProcessPool:
    """N scoring worker processes, each holding its own checkpoint copy.

    Parameters
    ----------
    detector:
        The fitted detector to serve (must be checkpointable — the pool
        serializes it through :func:`repro.serve.checkpoint.checkpoint_payload`).
    workers:
        Number of scoring processes. Create the pool **before** starting
        any threads: workers are forked where the platform allows.
    """

    def __init__(self, detector, workers: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._lock = threading.Lock()
        self._closed = False
        self.dispatches = 0
        self.retries = 0
        self.worker_deaths = 0
        self._ctx = multiprocessing.get_context(_START_METHOD)
        #: (generation, header, payload) every (re)spawn starts from;
        #: replaced whole by publish_detector so a reader sees one triple
        self._checkpoint = (1, *checkpoint_payload(detector))
        #: where a batch waits when every worker is busy
        self._rotation = itertools.count()
        self._workers = [_Worker(worker_id) for worker_id in range(workers)]
        try:
            for worker in self._workers:
                self._spawn(worker)
        except PoolUnavailable:
            self._abort()
            raise

        self._watchdog_stop = threading.Event()
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-pool-watchdog", daemon=True)
        self._watchdog.start()

    def _abort(self) -> None:
        """Best-effort teardown for a pool that never finished starting."""
        for worker in self._workers:
            if worker.process is not None and worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker: _Worker) -> None:
        """(Re)start one worker from the newest checkpoint. Caller must
        hold ``worker.lock`` when respawning a live slot."""
        generation, header, payload = self._checkpoint
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker.worker_id, generation, header, payload),
            name=f"repro-pool-worker-{worker.worker_id}",
            daemon=True,
        )
        try:
            process.start()
        except OSError as exc:  # fork/spawn refused (EAGAIN, ENOMEM)
            parent_conn.close()
            raise PoolUnavailable(
                f"worker {worker.worker_id} could not start: {exc}") from exc
        finally:
            child_conn.close()
        reply = None
        if parent_conn.poll(_READY_TIMEOUT):
            try:
                reply = parent_conn.recv()
            except EOFError:  # the worker died before its handshake
                pass
        if reply is None or reply[0] != "ready":
            process.kill()
            process.join(timeout=5.0)
            parent_conn.close()
            raise PoolUnavailable(
                f"worker {worker.worker_id} sent no 'ready' within "
                f"{_READY_TIMEOUT:.0f}s (got {reply!r})")
        worker.process = process
        worker.conn = parent_conn
        worker.generation = reply[2]

    def _respawn(self, worker: _Worker) -> None:
        """Kill (if needed) and restart a crashed/wedged worker."""
        if self._closed:
            raise PoolUnavailable("process pool is closed")
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
    def _acquire(self) -> _Worker:
        """Lock and return an idle worker; wait on a busy one (in
        rotation) only when every worker is busy."""
        for worker in self._workers:
            if worker.lock.acquire(blocking=False):
                return worker
        worker = self._workers[next(self._rotation) % len(self._workers)]
        worker.lock.acquire()
        return worker

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
        last_exc: Optional[BaseException] = None
        for attempt in range(_MAX_RETRIES + 1):
            worker = self._acquire()
            try:
                with span("pool.dispatch") as sp:
                    sp.set("pool.worker", worker.worker_id)
                    sp.set("pool.generation", worker.generation)
                    sp.set("pool.attempt", attempt)
                    with self._lock:  # batches run on several workers
                        self.dispatches += 1
                        request_id = f"{fingerprint[:12]}:{self.dispatches}"
                    try:
                        worker.conn.send(
                            ("score", request_id, payload, fingerprint))
                        if not worker.conn.poll(_SCORE_TIMEOUT):
                            raise TimeoutError(
                                f"worker {worker.worker_id} exceeded "
                                f"{_SCORE_TIMEOUT:.0f}s")
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
                worker.lock.release()
        raise PoolUnavailable(
            f"batch failed after {_MAX_RETRIES + 1} attempts "
            f"(last worker error: {last_exc})")

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def publish_detector(self, detector) -> int:
        """Make ``detector`` the next generation and reload every worker.

        Atomic per worker: each reload happens under that worker's
        dispatch lock, so a batch either runs wholly on the old weights
        or wholly on the new ones. Returns the new generation id.
        """
        if self._closed:
            raise PoolUnavailable("process pool is closed")
        header, payload = checkpoint_payload(detector)
        with self._lock:
            generation = self._checkpoint[0] + 1
            self._checkpoint = (generation, header, payload)
        failures: List[str] = []
        for worker in self._workers:
            with worker.lock:
                try:
                    worker.conn.send(("reload", generation, header, payload))
                    if not worker.conn.poll(_READY_TIMEOUT):
                        raise TimeoutError("reload timed out")
                    reply = worker.conn.recv()
                except (BrokenPipeError, EOFError, OSError,
                        TimeoutError) as exc:
                    # A respawn starts from the *new* payload — the swap
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
        return generation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def generation(self) -> int:
        return self._checkpoint[0]

    def worker_infos(self) -> List[dict]:
        """Per-worker liveness/throughput/memory snapshot, read fresh
        (for ``/healthz`` deep mode and the ``pool_*`` metrics)."""
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
                "private_bytes": worker.private_bytes(),
            })
        return infos

    def stats(self) -> dict:
        """Pool-level counters (one flat dict)."""
        return {
            "workers": len(self._workers),
            "workers_alive": sum(1 for w in self._workers if w.alive),
            "dispatches": self.dispatches,
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "generation": self.generation,
        }

    def collect(self) -> Collected:
        """The ``pool_*`` families; :meth:`stats` plus the per-worker
        :meth:`worker_infos` are the deep-health entry."""
        stats, infos = self.stats(), self.worker_infos()
        families = dict_families(stats, _POOL_FAMILIES)
        for key, name, kind, help_text in _WORKER_FAMILIES:
            # a worker whose probe cannot be answered omits its series
            series = [({"worker": str(info["worker"])}, int(info[key]))
                      for info in infos if info[key] is not None]
            if series:
                families.append(family(name, kind, help_text, series))
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
        """Stop workers, report what did not die cleanly.

        Returns ``{"workers_stopped", "workers_killed"}`` — the caller
        (gateway → app shutdown) logs a non-zero kill count instead of
        dropping it.
        """
        with self._lock:
            if self._closed:
                return {"workers_stopped": 0, "workers_killed": 0}
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
        return {"workers_stopped": stopped, "workers_killed": killed}


__all__ = ["PoolUnavailable", "ProcessPool"]
