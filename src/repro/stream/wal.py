"""Crash-safe persistence for event streams: WAL segments + snapshots.

A :class:`~repro.stream.monitor.StreamMonitor` process that dies loses
its evolving graph — every `/v1/events` ingest since startup. This
module makes that state durable with the classic two-piece recipe:

* an **append-only write-ahead log** (:class:`WriteAheadLog`) records
  every ingested event batch *before* it is applied, in CRC-framed
  records across size-rotated segment files;
* periodic **snapshots** (:func:`save_snapshot`) checkpoint the builder's
  full graph so recovery replays only the WAL suffix, and old segments
  can be pruned.

Record framing (little-endian)::

    segment  := magic(8) base_seq(u64) record*
    record   := length(u32) crc32(u32) payload(length bytes)
    payload  := JSON {"seq": N, "kind": "events"|"window", ...}

``base_seq`` is the log's last sequence number when the segment was
created; records inside continue from ``base_seq + 1``. It makes every
segment self-describing — sequence numbering survives pruning every
record away, and a copied/renamed segment (whose base cannot match its
neighbours) is detected as corruption.

Two record kinds cooperate to make recovery *exact*:

* ``events`` — a batch of ingested events (their ``to_dict`` forms),
  logged before the monitor buffers them;
* ``window`` — a marker written after the monitor applied its buffered
  events to the builder and scored a window. It carries the builder
  fingerprint at that point plus the monitor counters.

Recovery (:func:`recover_builder`) applies events to the builder only up
to the last ``window`` marker; events logged but never covered by a
marker become the restored monitor's pending buffer. That is what makes
the recovered builder's incrementally-maintained fingerprint
**bitwise-identical** to an uninterrupted run: the builder only ever
advances in exactly the batches the original process applied, and each
marker's stored fingerprint is verified during replay.

Durability/corruption contract:

* every append is flushed (and fsynced by default) before returning;
* a **torn tail** — a record cut short by a crash, in the *last*
  segment, with nothing valid after it — is tolerated: replay stops
  cleanly and the torn bytes are truncated on the next append;
* anything else (bad magic, CRC mismatch mid-log, out-of-order or
  duplicate sequence numbers, a short record in a non-final segment)
  raises :class:`WalCorruptionError` naming the file and byte offset.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import zipfile
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..graphs.graph import RelationGraph, check_canonical
from ..graphs.io import _RELATION_PREFIX, graph_fingerprint
from ..graphs.multiplex import MultiplexGraph
from ..obs.log import get_logger
from ..obs.metrics import metric
from .builder import IncrementalGraphBuilder
from .events import Event, parse_event

_MAGIC = b"RPROWAL1"
_BASE = struct.Struct("<Q")             # segment base sequence number
_HEADER = struct.Struct("<II")          # payload length, crc32(payload)
#: hard ceiling on one record's payload — a length field beyond this is
#: garbage (torn or corrupt), never a legitimate record
_MAX_RECORD = 64 * 1024 * 1024

_SEGMENT_FMT = "wal-{:08d}.seg"
_SEGMENT_GLOB = "wal-*.seg"
_SNAPSHOT_FMT = "snap-{:012d}.npz"
_SNAPSHOT_GLOB = "snap-*.npz"
#: snapshot archive key holding the JSON metadata blob
SNAPSHOT_META_KEY = "__wal_meta__"

_log = get_logger("stream.wal")


class WalCorruptionError(RuntimeError):
    """The log is damaged beyond the tolerated torn tail.

    ``path`` and ``offset`` name the first damaged byte so an operator
    can inspect (or surgically truncate) the exact segment.
    """

    def __init__(self, message: str, *, path=None, offset: Optional[int] = None):
        location = ""
        if path is not None:
            location = f" [{path}" + (f" @ byte {offset}]" if offset is not None
                                      else "]")
        super().__init__(message + location)
        self.path = None if path is None else str(path)
        self.offset = offset


@dataclass
class WalStats:
    """Counters for one :class:`WriteAheadLog` (exported via /metrics)."""

    appends: int = metric("counter", "Records durably appended to the WAL.")
    bytes_written: int = metric("counter", "Bytes written to WAL segments.",
                                name="bytes")
    segments_created: int = metric("counter", "WAL segment files created.")
    segments_pruned: int = metric("counter",
                                  "WAL segments deleted after snapshots.")
    records_replayed: int = metric("counter",
                                   "Records replayed during recovery.")
    #: 1 when opening the log truncated a torn tail record
    torn_tail_truncated: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


_HEADER_BYTES = len(_MAGIC) + _BASE.size


@dataclass
class _Segment:
    """One parsed segment: header base, intact records, torn-tail offset."""

    base_seq: Optional[int]              # None: header itself was torn
    records: List[Tuple[int, dict]]      # (byte offset, record dict)
    torn_offset: Optional[int]           # first torn byte, None if clean


def _read_segment(path: pathlib.Path, *, last_segment: bool) -> _Segment:
    """Parse one segment file.

    Tolerated torn tails (only in the newest segment) are reported via
    ``torn_offset``; any other damage raises :class:`WalCorruptionError`.
    """
    data = path.read_bytes()
    size = len(data)
    if size < _HEADER_BYTES:
        # Crash between segment creation and the header write: only ever
        # possible for the newest segment.
        if last_segment:
            return _Segment(None, [], 0)
        raise WalCorruptionError("segment header cut short in a non-final "
                                 "segment", path=path, offset=0)
    if data[:len(_MAGIC)] != _MAGIC:
        raise WalCorruptionError(
            f"bad WAL magic (expected {_MAGIC!r})", path=path, offset=0)
    base_seq = _BASE.unpack_from(data, len(_MAGIC))[0]
    records: List[Tuple[int, dict]] = []
    offset = _HEADER_BYTES
    while offset < size:
        # A record cut short by EOF can only be a torn crash write; one
        # damaged *within* the file (valid bytes follow) is corruption.
        if offset + _HEADER.size > size:
            if last_segment:
                return _Segment(base_seq, records, offset)
            raise WalCorruptionError("truncated record header", path=path,
                                     offset=offset)
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if length > _MAX_RECORD or end > size:
            if last_segment:
                return _Segment(base_seq, records, offset)
            raise WalCorruptionError(
                f"record length {length} overruns segment", path=path,
                offset=offset)
        payload = data[offset + _HEADER.size:end]
        if zlib.crc32(payload) != crc:
            if last_segment and end >= size:
                # Final record of the final segment: a partially-flushed
                # page from the fatal crash, not logical corruption.
                return _Segment(base_seq, records, offset)
            raise WalCorruptionError("record CRC mismatch", path=path,
                                     offset=offset)
        try:
            record = json.loads(payload)
        except json.JSONDecodeError:
            raise WalCorruptionError("record payload is not valid JSON",
                                     path=path, offset=offset) from None
        if not isinstance(record, dict) or "seq" not in record:
            raise WalCorruptionError("record payload missing 'seq'",
                                     path=path, offset=offset)
        records.append((offset, record))
        offset = end
    return _Segment(base_seq, records, None)


class WriteAheadLog:
    """Append-only, CRC-framed, segment-rotating event log.

    Opening a log scans every existing segment (verifying frame
    integrity), truncates a torn tail if the previous process died
    mid-append, and resumes sequence numbering. Appends are atomic at
    the record level: a record either replays whole or (torn) not at all.

    Parameters
    ----------
    directory:
        The WAL directory (created if missing). Segments are
        ``wal-<index>.seg``; snapshots share the directory.
    segment_bytes:
        Rotation threshold: a segment that has grown past this size is
        closed and a new one started. Rotation is what makes pruning
        after snapshots possible at file granularity.
    fsync:
        When True (default) every append fsyncs before returning — the
        record survives a machine crash, not just a process crash.
    """

    def __init__(self, directory, *, segment_bytes: int = 4 * 1024 * 1024,
                 fsync: bool = True):
        if segment_bytes < 1024:
            raise ValueError(
                f"segment_bytes must be >= 1024, got {segment_bytes}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.fsync = bool(fsync)
        self.stats = WalStats()
        #: highest sequence number present in the log (0 = empty)
        self.last_seq = 0
        #: per-segment highest seq, in segment order (drives pruning)
        self._segment_last_seq: Dict[pathlib.Path, int] = {}
        #: intact segments as _open_tail parsed them, handed to the first
        #: replay (recovery replays right after opening) unless an append
        #: changes the log first
        self._opened: Dict[pathlib.Path, _Segment] = {}
        self._handle = None
        self._open_tail()

    # ------------------------------------------------------------------
    def _segments(self) -> List[pathlib.Path]:
        return sorted(self.directory.glob(_SEGMENT_GLOB))

    def _open_tail(self) -> None:
        """Validate existing segments, truncate a torn tail, open for append."""
        segments = self._segments()
        for index, path in enumerate(segments):
            last = index == len(segments) - 1
            parsed = _read_segment(path, last_segment=last)
            if parsed.torn_offset is None:
                self._opened[path] = parsed
            if parsed.base_seq is not None:
                # Pruning deletes leading segments, so the first surviving
                # base may start anywhere; every later segment must chain.
                if index > 0 and parsed.base_seq != self.last_seq:
                    raise WalCorruptionError(
                        f"segment base seq {parsed.base_seq} does not "
                        f"continue from {self.last_seq} (duplicate, copied "
                        f"or missing segment)", path=path, offset=len(_MAGIC))
                self.last_seq = max(self.last_seq, parsed.base_seq)
            for offset, record in parsed.records:
                seq = int(record["seq"])
                if seq != self.last_seq + 1:
                    raise WalCorruptionError(
                        f"sequence break: record seq {seq} after "
                        f"{self.last_seq} (duplicate or missing record)",
                        path=path, offset=offset)
                self.last_seq = seq
            self._segment_last_seq[path] = self.last_seq
            if parsed.torn_offset is not None:
                _log.warning("wal.torn_tail", segment=str(path),
                             offset=parsed.torn_offset)
                with open(path, "r+b") as handle:
                    handle.truncate(parsed.torn_offset)
                    if parsed.torn_offset == 0:
                        handle.write(_MAGIC + _BASE.pack(self.last_seq))
                    handle.flush()
                    os.fsync(handle.fileno())
                self.stats.torn_tail_truncated = 1
        if segments:
            self._current = segments[-1]
            self._handle = open(self._current, "ab")
        else:
            self._rotate(first=True)

    def _rotate(self, first: bool = False) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
        index = 1
        segments = self._segments()
        if segments:
            index = int(segments[-1].stem.split("-")[1]) + 1
        self._current = self.directory / _SEGMENT_FMT.format(index)
        self._handle = open(self._current, "wb")
        self._handle.write(_MAGIC + _BASE.pack(self.last_seq))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._segment_last_seq[self._current] = self.last_seq
        self.stats.segments_created += 1
        if not first:
            _log.info("wal.rotate", segment=str(self._current))

    # ------------------------------------------------------------------
    def append(self, kind: str, payload: dict) -> int:
        """Durably append one record; returns its sequence number.

        ``payload`` must be JSON-able; ``seq`` and ``kind`` are stamped
        in by the log. The record is flushed (and fsynced unless
        disabled) before this returns — once you have the seq, a crash
        cannot lose the record.
        """
        if self._handle is None:
            raise RuntimeError("WAL is closed")
        seq = self.last_seq + 1
        record = {"seq": seq, "kind": str(kind), **payload}
        body = json.dumps(record, separators=(",", ":")).encode()
        frame = _HEADER.pack(len(body), zlib.crc32(body)) + body
        self._opened.clear()
        if self._handle.tell() + len(frame) > self.segment_bytes:
            self._rotate()
        self._handle.write(frame)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.last_seq = seq
        self._segment_last_seq[self._current] = seq
        self.stats.appends += 1
        self.stats.bytes_written += len(frame)
        return seq

    def replay(self, after_seq: int = 0) -> Iterator[dict]:
        """Yield every intact record with ``seq > after_seq``, in order.

        Safe on a live log (reads the files, not the handle); the
        write-side flush-per-append guarantees replay sees every record
        whose :meth:`append` returned.
        """
        self.flush()
        opened, self._opened = self._opened, {}
        last_seq = after_seq
        segments = self._segments()
        first_read = True
        for index, path in enumerate(segments):
            if self._segment_last_seq.get(path, after_seq + 1) <= after_seq:
                # Every record here is already covered by the snapshot.
                continue
            parsed = opened.get(path) or _read_segment(
                path, last_segment=index == len(segments) - 1)
            if first_read and parsed.base_seq is not None \
                    and parsed.base_seq > after_seq:
                raise WalCorruptionError(
                    f"records ({after_seq}, {parsed.base_seq}] were pruned "
                    f"but are not covered by any snapshot", path=path,
                    offset=len(_MAGIC))
            first_read = False
            for offset, record in parsed.records:
                seq = int(record["seq"])
                if seq <= after_seq:
                    continue
                if seq != last_seq + 1:
                    raise WalCorruptionError(
                        f"sequence break: record seq {seq} after "
                        f"{last_seq}", path=path, offset=offset)
                last_seq = seq
                self.stats.records_replayed += 1
                yield record
            if parsed.torn_offset is not None:
                return

    def prune(self, upto_seq: int) -> int:
        """Delete whole segments whose records are all ``<= upto_seq``.

        Called after a snapshot: segments fully covered by it are dead
        weight. The active (newest) segment is never deleted. Returns
        the number of segments removed.
        """
        removed = 0
        for path in self._segments()[:-1]:
            if self._segment_last_seq.get(path, upto_seq + 1) <= upto_seq:
                path.unlink()
                self._segment_last_seq.pop(path, None)
                removed += 1
        self.stats.segments_pruned += removed
        if removed:
            _log.info("wal.pruned", segments=removed, upto_seq=upto_seq)
        return removed

    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def save_snapshot(directory, graph: MultiplexGraph, meta: dict, *,
                  keep: int = 2) -> pathlib.Path:
    """Atomically write a builder snapshot; returns the snapshot path.

    The archive is :func:`~repro.graphs.io.save_multiplex`-shaped
    (``x`` + ``edges::<name>``) plus a ``__wal_meta__`` JSON blob, and is
    named by ``meta["record_seq"]`` — the WAL sequence number the graph
    state corresponds to. Written to a temp file, fsynced, then renamed,
    so a crash mid-snapshot leaves the previous snapshot intact. Old
    snapshots beyond ``keep`` are deleted.

    Stored uncompressed: snapshots are written on the stream's window
    path, where zlib costs many times the write itself (a 4.5k-node
    graph on a 2-core host, fsync included: 74 ms for 1.16 MB
    compressed, 3.1 ms for 1.44 MB plain). Each member's zip CRC still
    catches damage on load, and compressed snapshots from earlier
    versions load the same way.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    record_seq = int(meta["record_seq"])
    payload = {"x": graph.x, SNAPSHOT_META_KEY: np.frombuffer(
        json.dumps(meta, separators=(",", ":")).encode(), dtype=np.uint8)}
    for name, rel in graph.relations.items():
        payload[_RELATION_PREFIX + name] = rel.edges
    final = directory / _SNAPSHOT_FMT.format(record_seq)
    # the tmp name must not match _SNAPSHOT_GLOB: a crash mid-write must
    # leave no file load_latest_snapshot could even consider
    tmp = directory / (".tmp-" + final.name)
    with open(tmp, "wb") as handle:
        np.savez(handle, **payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    for stale in sorted(directory.glob(_SNAPSHOT_GLOB))[:-keep]:
        stale.unlink()
    return final


def load_latest_snapshot(directory) -> Optional[Tuple[MultiplexGraph, dict]]:
    """Load the newest readable snapshot, or None when there is none.

    An unreadable newest snapshot (crash mid-write of a pre-atomic copy,
    disk damage, a member failing its zip CRC) falls back to the previous
    one with a warning; if every snapshot is damaged, raises
    :class:`WalCorruptionError`.
    """
    directory = pathlib.Path(directory)
    candidates = sorted(directory.glob(_SNAPSHOT_GLOB), reverse=True)
    damaged = []
    for path in candidates:
        try:
            with np.load(path, allow_pickle=False) as archive:
                if "x" not in archive or SNAPSHOT_META_KEY not in archive:
                    raise ValueError("missing snapshot keys")
                meta = json.loads(bytes(archive[SNAPSHOT_META_KEY]))
                x = archive["x"]
                relations = {}
                for key in archive.files:
                    if key.startswith(_RELATION_PREFIX):
                        name = key[len(_RELATION_PREFIX):]
                        relations[name] = RelationGraph(
                            x.shape[0],
                            check_canonical(archive[key], x.shape[0], name),
                            name=name, validated=True)
                if not relations:
                    raise ValueError("snapshot contains no relations")
        except (OSError, ValueError, KeyError, json.JSONDecodeError,
                zlib.error, zipfile.BadZipFile) as exc:
            damaged.append(path)
            _log.warning("wal.snapshot_unreadable", snapshot=str(path),
                         error=str(exc))
            continue
        graph = MultiplexGraph(x=x, relations=relations)
        return graph, meta
    if damaged:
        raise WalCorruptionError(
            f"all {len(damaged)} snapshot(s) unreadable", path=damaged[0])
    return None


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

@dataclass
class RecoveredState:
    """Everything :func:`recover_builder` reconstructs from disk."""

    builder: IncrementalGraphBuilder
    #: events logged after the last window marker — the restored monitor's
    #: pending buffer (they were never applied to the builder)
    pending: List[Event] = field(default_factory=list)
    #: WAL seq the builder state corresponds to (markers replayed through)
    record_seq: int = 0
    windows_scored: int = 0
    events_consumed: int = 0
    alerts_raised: int = 0
    #: True when any WAL record or snapshot was actually restored
    recovered: bool = False

    def to_dict(self) -> dict:
        return {
            "record_seq": self.record_seq,
            "windows_scored": self.windows_scored,
            "events_consumed": self.events_consumed,
            "alerts_raised": self.alerts_raised,
            "pending": len(self.pending),
            "recovered": self.recovered,
            "num_nodes": self.builder.num_nodes,
        }


def recover_builder(wal: WriteAheadLog, *,
                    relation_names: Optional[List[str]] = None,
                    num_features: Optional[int] = None,
                    verify_fingerprints: bool = True) -> RecoveredState:
    """Reconstruct builder + pending buffer from snapshot + WAL replay.

    The builder is advanced in exactly the batches the original process
    applied (one per ``window`` marker), so its incremental fingerprint
    is bitwise-identical to the uninterrupted run's at every marker —
    verified against each marker's stored fingerprint unless disabled.
    Events after the last marker become ``pending``.

    ``relation_names``/``num_features`` seed an empty builder when no
    snapshot exists yet (a log that started from a bootstrap stream).
    """
    state_kwargs: dict = {}
    snapshot = load_latest_snapshot(wal.directory)
    if snapshot is not None:
        graph, meta = snapshot
        builder = IncrementalGraphBuilder.from_graph(graph)
        if verify_fingerprints and meta.get("fingerprint"):
            actual = builder.fingerprint()
            if actual != meta["fingerprint"]:
                raise WalCorruptionError(
                    f"snapshot fingerprint mismatch: stored "
                    f"{meta['fingerprint'][:12]}…, rebuilt {actual[:12]}…",
                    path=wal.directory)
        pending = [parse_event(p) for p in meta.get("pending", [])]
        state_kwargs = {
            "record_seq": int(meta.get("record_seq", 0)),
            "windows_scored": int(meta.get("windows_scored", 0)),
            "events_consumed": int(meta.get("events_consumed", 0)),
            "alerts_raised": int(meta.get("alerts_raised", 0)),
            "recovered": True,
        }
    else:
        if not relation_names or not num_features:
            if wal.last_seq == 0:
                raise ValueError(
                    "empty WAL and no snapshot: recovery needs "
                    "relation_names and num_features to seed a builder")
            raise WalCorruptionError(
                "WAL has records but no snapshot and no schema was given; "
                "cannot reconstruct the base graph", path=wal.directory)
        builder = IncrementalGraphBuilder(relation_names=relation_names,
                                          num_features=num_features)
        pending = []

    state = RecoveredState(builder=builder, pending=pending, **state_kwargs)
    for record in wal.replay(after_seq=state.record_seq):
        state.recovered = True
        kind = record.get("kind")
        if kind == "events":
            state.pending.extend(parse_event(p) for p in record["events"])
        elif kind == "window":
            # Apply exactly the events this marker committed. Markers carry
            # the post-window events_consumed total, so the delta against
            # the running count says how much of the pending buffer belongs
            # to this window (records written by ingest() never span a
            # marker, but a foreign log might batch several windows into
            # one record).
            take = len(state.pending)
            consumed = record.get("events_consumed")
            if consumed is not None:
                delta = int(consumed) - state.events_consumed
                if 0 <= delta <= take:
                    take = delta
            builder.apply(state.pending[:take])
            del state.pending[:take]
            state.windows_scored = int(record.get("windows_scored",
                                                  state.windows_scored + 1))
            state.events_consumed = int(record.get("events_consumed",
                                                   state.events_consumed + take))
            state.alerts_raised = int(record.get("alerts_raised",
                                                 state.alerts_raised))
            if verify_fingerprints and record.get("fingerprint"):
                actual = builder.fingerprint()
                if actual != record["fingerprint"]:
                    raise WalCorruptionError(
                        f"replay diverged at marker seq {record['seq']}: "
                        f"logged fingerprint {record['fingerprint'][:12]}…, "
                        f"rebuilt {actual[:12]}…", path=wal.directory)
        # unknown kinds are skipped: forward-compatible with new record
        # types the way load_multiplex ignores unknown archive keys
        state.record_seq = int(record["seq"])
    if state.recovered:
        _log.info("wal.recovered", **state.to_dict())
    return state


def snapshot_meta(builder: IncrementalGraphBuilder, *, record_seq: int,
                  windows_scored: int, events_consumed: int,
                  alerts_raised: int, pending: List[Event]) -> dict:
    """The metadata blob :func:`save_snapshot` persists alongside a graph.

    ``pending`` (events buffered but not yet applied) is stored inline:
    a snapshot taken mid-window must not strand those events behind its
    own ``record_seq`` cutoff.
    """
    return {
        "record_seq": int(record_seq),
        "fingerprint": builder.fingerprint() if builder.num_nodes else "",
        "windows_scored": int(windows_scored),
        "events_consumed": int(events_consumed),
        "alerts_raised": int(alerts_raised),
        "pending": [event.to_dict() for event in pending],
        "relation_names": builder.relation_names,
        "num_features": builder.num_features,
    }


def verify_parity(builder: IncrementalGraphBuilder) -> bool:
    """True iff the incremental fingerprint matches a from-scratch hash."""
    if builder.num_nodes == 0:
        return True
    return builder.fingerprint() == graph_fingerprint(builder.snapshot())


__all__ = [
    "RecoveredState", "SNAPSHOT_META_KEY", "WalCorruptionError", "WalStats",
    "WriteAheadLog", "load_latest_snapshot", "recover_builder",
    "save_snapshot", "snapshot_meta", "verify_parity",
]
