"""Scoring worker process: load the leader's checkpoint, answer batches.

One worker = one OS process owning a private GIL. It receives the
leader's checkpoint ``(header, payload)`` as its process arguments (a
forked worker inherits them, a spawned one unpickles them once) and
builds its own detector through the exact
:func:`~repro.serve.checkpoint.detector_from_payload` path a file load
takes, then loops on its pipe. It keeps no result cache: the leader's
:class:`~repro.serve.service.DetectorService` caches, dedups and answers
the trained graph from stored scores, and dispatches only the passes it
cannot answer.

* ``("score", req_id, graph_payload)`` → runs the
  detector's ``score_graph`` on the graph, the same pass the thread tier
  runs (bitwise parity), and replies ``("ok", req_id, scores, telemetry)``.
* ``("stop",)`` → clean exit.

Those are the only two pipe ops. A worker never changes model: a hot
swap stops it and the leader starts a new one from the new payload.

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

from ..graphs.graph import RelationGraph
from ..graphs.multiplex import MultiplexGraph
from ..serve.checkpoint import CheckpointError, detector_from_payload
from ..serve.service import ServiceError

#: exception kinds a worker reports that the leader re-raises typed;
#: anything else comes back as a RuntimeError with the original repr
_TYPED_ERRORS = {
    "ServiceError": ServiceError,
    "CheckpointError": CheckpointError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "IndexError": IndexError,
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


def worker_main(conn, worker_id: int, generation: int, header: dict,
                payload: dict) -> None:
    """Entry point of one scoring worker process (runs until ``stop``)."""
    # The leader owns lifecycle; a Ctrl-C on the foreground process group
    # must not take workers down mid-batch (close() will).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        detector = detector_from_payload(header, payload,
                                         source=f"pool:gen{generation}")
        conn.send(("ready", worker_id, generation))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # Leader went away without a stop message (crash); there
                # is nobody left to serve.
                break
            if message[0] == "stop":
                break
            _op, req_id, graph_payload = message
            started = time.perf_counter()
            try:
                graph = decode_graph(graph_payload)
                scores = detector.score_graph(graph)
            except BaseException as exc:  # noqa: BLE001 - serialized
                conn.send(("err", req_id, type(exc).__name__, str(exc)))
            else:
                conn.send(("ok", req_id, scores, {
                    "worker": worker_id,
                    "generation": generation,
                    "wall_ms": (time.perf_counter() - started) * 1e3,
                }))
    except BaseException:  # noqa: BLE001 - last-resort: die visibly
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
        # NEVER run the forked parent's atexit/teardown machinery here
        # (test-session teardown, WAL checkpointers would fire twice).
        os._exit(0)


__all__ = ["decode_graph", "encode_graph", "rebuild_error", "worker_main"]
