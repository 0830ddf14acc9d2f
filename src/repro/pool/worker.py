"""Scoring worker process: attach shared weights, answer batches over a pipe.

One worker = one OS process owning a private GIL. It attaches the
leader's shared-memory checkpoint (:class:`~repro.pool.shm.SharedCheckpoint`),
reconstructs the detector **zero-copy** through the exact
:func:`~repro.serve.checkpoint.detector_from_payload` path a file load
takes, and then loops on its pipe. It keeps no result cache: the
leader's :class:`~repro.serve.service.DetectorService` caches, dedups and
answers the trained graph from stored scores, and dispatches only the
passes it cannot answer.

* ``("score", req_id, graph_payload, fingerprint)`` → runs the
  detector's ``score_graph`` on the graph, the same pass the thread tier
  runs (bitwise parity), and replies ``("ok", req_id, scores, telemetry)``.
* ``("reload", manifest)`` → atomically retargets to a new checkpoint
  generation (hot-swap); the previous generation's mappings are closed
  only after the new detector is live.
* ``("ping", req_id)`` → liveness telemetry.
* ``("stop",)`` → clean exit.

Errors never kill the loop: scoring failures are serialized back as
``("err", req_id, kind, message)`` and re-raised leader-side as the
matching exception type, so the gateway's 409/500/breaker semantics are
identical across tiers. The worker exits via ``os._exit`` so a forked
child can never run the parent's ``atexit`` hooks (test-session teardown,
WAL checkpoints) a second time.

Graphs travel as compact ``(x, {relation: edges})`` payloads, not
pickled objects — lazily-built propagator caches stay out of the pipe.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

from .. import chaos
from ..graphs.graph import RelationGraph
from ..graphs.multiplex import MultiplexGraph
from ..serve.checkpoint import CheckpointError, detector_from_payload
from ..serve.service import ServiceError
from .shm import SharedCheckpoint, SharedMemoryError

#: exception kinds a worker reports that the leader re-raises typed;
#: anything else comes back as a RuntimeError with the original repr
_TYPED_ERRORS = {
    "ServiceError": ServiceError,
    "CheckpointError": CheckpointError,
    "SharedMemoryError": SharedMemoryError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "IndexError": IndexError,
    "ChaosError": chaos.ChaosError,
}


def encode_graph(graph: MultiplexGraph) -> dict:
    """Compact pipe representation: attributes + per-relation edges only."""
    return {
        "x": graph.x,
        "relations": {name: relation.edges
                      for name, relation in graph},
    }


def decode_graph(payload: dict) -> MultiplexGraph:
    """Rebuild the graph a leader encoded; edges are already canonical."""
    x = payload["x"]
    num_nodes = int(x.shape[0])
    relations = {
        name: RelationGraph(num_nodes, edges, name=name, validated=True)
        for name, edges in payload["relations"].items()
    }
    return MultiplexGraph(x=x, relations=relations)


def rebuild_error(kind: str, message: str) -> BaseException:
    """Leader-side: turn a worker's ``("err", ...)`` reply back into a
    typed exception so gateway error mapping matches the thread tier."""
    cls = _TYPED_ERRORS.get(kind)
    if cls is not None:
        return cls(message)
    return RuntimeError(f"worker {kind}: {message}")


class _WorkerState:
    """The attached checkpoint + detector for the current generation."""

    def __init__(self, manifest: dict):
        self.shared = SharedCheckpoint.attach(manifest)
        self.detector = detector_from_payload(
            self.shared.header, self.shared.arrays(),
            source=f"shm:gen{self.shared.generation}", copy=False)
        self.generation = self.shared.generation

    def close(self) -> None:
        # Drop the detector before unmapping the segments its parameters
        # alias.
        self.detector = None
        self.shared.close()


def worker_main(conn, manifest: dict, worker_id: int) -> None:
    """Entry point of one scoring worker process (runs until ``stop``)."""
    # The leader owns lifecycle; a Ctrl-C on the foreground process group
    # must not take workers down mid-batch (close() will).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    state: Optional[_WorkerState] = None
    requests = 0
    try:
        state = _WorkerState(manifest)
        conn.send(("ready", worker_id, state.generation))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # Leader went away without a stop message (crash); there
                # is nobody left to serve.
                break
            op = message[0]
            if op == "stop":
                break
            if op == "score":
                _req, req_id, graph_payload, fingerprint = message
                started = time.perf_counter()
                try:
                    chaos.fail_point("pool.worker", key=fingerprint)
                    graph = decode_graph(graph_payload)
                    scores = state.detector.score_graph(graph)
                except BaseException as exc:  # noqa: BLE001 - serialized
                    conn.send(("err", req_id, type(exc).__name__, str(exc)))
                else:
                    requests += 1
                    conn.send(("ok", req_id, scores, {
                        "worker": worker_id,
                        "generation": state.generation,
                        "wall_ms": (time.perf_counter() - started) * 1e3,
                    }))
            elif op == "reload":
                _req, new_manifest = message
                try:
                    fresh = _WorkerState(new_manifest)
                except BaseException as exc:  # noqa: BLE001 - serialized
                    # Keep serving the old generation — a failed hot-swap
                    # must leave the worker usable, mirroring the
                    # gateway's activate() contract.
                    conn.send(("err", "reload", type(exc).__name__,
                               str(exc)))
                else:
                    old, state = state, fresh
                    if old is not None:
                        old.close()
                    conn.send(("reloaded", worker_id, state.generation))
            elif op == "ping":
                _req, req_id = message
                conn.send(("pong", req_id, {
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "generation": state.generation if state else None,
                    "requests": requests,
                }))
            else:
                conn.send(("err", None, "ProtocolError",
                           f"unknown worker op {op!r}"))
    except BaseException:  # noqa: BLE001 - last-resort: die visibly
        pass
    finally:
        if state is not None:
            state.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
        # NEVER run the forked parent's atexit/teardown machinery here
        # (test-session teardown, WAL checkpointers would fire twice).
        os._exit(0)


__all__ = ["decode_graph", "encode_graph", "rebuild_error", "worker_main"]
