"""Process-pool execution tier: scoring on more than one core.

The thread tier (:class:`~repro.server.batcher.MicroBatcher` over one
in-process :class:`~repro.serve.service.DetectorService`) coalesces
same-fingerprint herds but serializes *distinct* fingerprints on the
GIL. This package adds the second tier: N worker processes, each with
its own copy of the active checkpoint (a few hundred KB for UMGAD's
networks), so distinct-fingerprint batches score in true parallel.

* :mod:`repro.pool.worker` — the worker-process loop: build the
  detector once from the checkpoint payload it starts with, through the
  standard checkpoint path, then run ``score_graph`` for batches sent
  over a pipe. Workers keep no result cache.
* :mod:`repro.pool.executor` — :class:`ProcessPool`, the leader: idle
  dispatch, crash rescue by the dispatch that finds a worker dead,
  hot swaps that restart each worker on the new payload, the
  ``pool.dispatch`` fail point, shutdown report.

The pool is the ``executor`` of the leader's
:class:`~repro.serve.service.DetectorService`: the service keeps the one
result cache, dedups same-fingerprint passes, guards hot swaps and
answers the trained graph from stored scores on both tiers, and hands
the pool only the passes it cannot answer. Select it with
``repro serve --exec-tier process``; the gateway falls back to threads
when the workers cannot be started.
"""

from .executor import PoolUnavailable, ProcessPool
from .worker import decode_graph, encode_graph

__all__ = [
    "PoolUnavailable",
    "ProcessPool",
    "decode_graph",
    "encode_graph",
]
