"""Process-pool execution tier: shared-memory weights, forked scorers.

The thread tier (:class:`~repro.server.batcher.MicroBatcher` over one
in-process :class:`~repro.serve.service.DetectorService`) coalesces
same-fingerprint herds but serializes *distinct* fingerprints on the
GIL. This package adds the second tier: the active checkpoint's payload
is published once into POSIX shared memory and N forked worker
processes attach it zero-copy, so distinct-fingerprint batches score in
true parallel while the machine still holds exactly one copy of the
weights.

* :mod:`repro.pool.shm` — :class:`SharedCheckpoint` (publish/attach
  zero-copy array views), :class:`SharedModelStore` (refcounted
  hot-swappable generations), stale-segment reclamation.
* :mod:`repro.pool.worker` — the worker-process loop: attach, rebuild
  the detector through the standard checkpoint path, run ``score_graph``
  for batches sent over a pipe. Workers keep no result cache.
* :mod:`repro.pool.executor` — :class:`ProcessPool`, the leader: sticky
  dispatch, crash rescue + watchdog respawn, generation-pinned hot
  swaps, chaos fail points, shutdown leak report.

The pool is the ``executor`` of the leader's
:class:`~repro.serve.service.DetectorService`: the service keeps the one
result cache, dedups same-fingerprint passes, guards hot swaps and
answers the trained graph from stored scores on both tiers, and hands
the pool only the passes it cannot answer. Select it with
``repro serve --exec-tier process``; the gateway falls back to threads
automatically when :func:`shm_available` says no.
"""

from .executor import PoolUnavailable, ProcessPool
from .shm import (
    SHM_PREFIX,
    SharedCheckpoint,
    SharedMemoryError,
    SharedModelStore,
    list_segments,
    reclaim_stale_segments,
    segment_name,
    shm_available,
)
from .worker import decode_graph, encode_graph

__all__ = [
    "SHM_PREFIX",
    "PoolUnavailable",
    "ProcessPool",
    "SharedCheckpoint",
    "SharedMemoryError",
    "SharedModelStore",
    "decode_graph",
    "encode_graph",
    "list_segments",
    "reclaim_stale_segments",
    "segment_name",
    "shm_available",
]
