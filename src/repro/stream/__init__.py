"""Streaming multiplex-graph ingestion + online anomaly monitoring.

The streaming counterpart of :mod:`repro.serve`: where ``serve`` answers
repeated queries about *finished* graphs, ``stream`` keeps a graph — and a
detector's view of it — current while edge/node/attribute events arrive:

* :mod:`repro.stream.events` — typed events (:class:`AddEdge`,
  :class:`RemoveEdge`, :class:`AddNode`, :class:`UpdateAttr`), JSONL event
  logs, and a deterministic synthetic stream generator with injected
  anomalous bursts;
* :mod:`repro.stream.builder` — :class:`IncrementalGraphBuilder`, O(delta)
  event application with capacity-doubling edge arrays, per-relation dirty
  flags, and an incrementally-maintained
  :func:`~repro.graphs.io.graph_fingerprint`;
* :mod:`repro.stream.monitor` — :class:`StreamMonitor`, windowed scoring
  through a :class:`~repro.serve.service.DetectorService` with typed
  alerts (top-k entrants, score jumps, PSI/KS distribution drift) and a
  pluggable drift-triggered refit policy;
* :mod:`repro.stream.wal` — :class:`WriteAheadLog`, CRC-framed segmented
  event logging with periodic builder snapshots and replay-on-startup
  recovery whose restored fingerprint is bitwise-identical to an
  uninterrupted run;
* :func:`open_monitor` — the one way to start a monitor: resume a WAL's
  state when it holds any, else seed from a base graph or the detector's
  relation schema (``repro stream`` and the gateway both use it).
"""

from .builder import ApplyStats, IncrementalGraphBuilder
from .events import (
    AddEdge,
    AddNode,
    BurstRecord,
    Event,
    RemoveEdge,
    StreamTruth,
    UpdateAttr,
    bootstrap_events,
    parse_event,
    read_events,
    synthesize_stream,
    write_events,
)
from .monitor import (
    DriftAlert,
    RefitAlert,
    ScoreJump,
    StreamMonitor,
    TopKEntrant,
    WindowReport,
    alert_dict,
    ks_statistic,
    open_monitor,
    psi,
)
from .wal import (
    RecoveredState,
    WalCorruptionError,
    WalStats,
    WriteAheadLog,
    load_latest_snapshot,
    recover_builder,
    save_snapshot,
    snapshot_meta,
    verify_parity,
)

__all__ = [
    "AddEdge",
    "AddNode",
    "ApplyStats",
    "BurstRecord",
    "DriftAlert",
    "Event",
    "IncrementalGraphBuilder",
    "RecoveredState",
    "RefitAlert",
    "RemoveEdge",
    "ScoreJump",
    "StreamMonitor",
    "StreamTruth",
    "TopKEntrant",
    "UpdateAttr",
    "WalCorruptionError",
    "WalStats",
    "WindowReport",
    "WriteAheadLog",
    "alert_dict",
    "bootstrap_events",
    "ks_statistic",
    "load_latest_snapshot",
    "open_monitor",
    "parse_event",
    "psi",
    "read_events",
    "recover_builder",
    "save_snapshot",
    "snapshot_meta",
    "synthesize_stream",
    "verify_parity",
    "write_events",
]
