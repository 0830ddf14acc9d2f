"""Crash-safe streaming: WAL framing, corruption corpus, snapshots, recovery.

The contract under test (repro.stream.wal): every append that returned is
replayable; a torn tail — the one damage shape a crash can legitimately
produce — is tolerated and truncated; every OTHER damage shape raises
:class:`WalCorruptionError` naming the file and byte offset; and a
recovered builder's incrementally-maintained fingerprint is
bitwise-identical to the uninterrupted run's.
"""

import json
import struct
import zipfile
import zlib

import numpy as np
import pytest

from repro import chaos
from repro.detection import BaseDetector
from repro.graphs import graph_fingerprint, random_multiplex
from repro.serve import DetectorService
from repro.stream import (
    AddEdge,
    AddNode,
    IncrementalGraphBuilder,
    StreamMonitor,
    UpdateAttr,
    WalCorruptionError,
    WriteAheadLog,
    load_latest_snapshot,
    open_monitor,
    recover_builder,
    save_snapshot,
    snapshot_meta,
    synthesize_stream,
    verify_parity,
)

_HEADER_BYTES = 16          # magic(8) + base_seq(u64)
_FRAME = struct.Struct("<II")


class _NormDetector(BaseDetector):
    def fit(self, graph):
        self._graph = graph
        self._scores = np.linalg.norm(graph.x, axis=1)
        return self

    def score_graph(self, graph):
        return np.linalg.norm(graph.x, axis=1)


def _monitor(graph, wal=None, **kwargs):
    service = DetectorService(_NormDetector().fit(graph))
    builder = IncrementalGraphBuilder.from_graph(graph)
    defaults = dict(window=20, top_k=5)
    defaults.update(kwargs)
    return StreamMonitor(service, builder, wal=wal, **defaults)


def _fill(wal, n, start=0):
    for i in range(start, start + n):
        wal.append("events", {"events": [], "i": i})


# ---------------------------------------------------------------------------
# Framing + rotation
# ---------------------------------------------------------------------------

class TestFraming:
    def test_append_replay_round_trip(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.append("events", {"events": [{"op": "x"}]}) == 1
            assert wal.append("window", {"fingerprint": "f"}) == 2
            records = list(wal.replay())
            assert [r["seq"] for r in records] == [1, 2]
            assert records[0]["kind"] == "events"
            assert records[1]["fingerprint"] == "f"

    def test_replay_after_seq_skips_covered_prefix(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, 5)
            assert [r["seq"] for r in wal.replay(after_seq=3)] == [4, 5]

    def test_reopen_resumes_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, 3)
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.last_seq == 3
            assert wal.append("events", {"events": []}) == 4

    def test_rotation_and_cross_segment_replay(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=1024,
                           fsync=False) as wal:
            _fill(wal, 40)
            segments = sorted(tmp_path.glob("wal-*.seg"))
            assert len(segments) > 1
            assert [r["seq"] for r in wal.replay()] == list(range(1, 41))
        # reopen re-validates the whole chain
        with WriteAheadLog(tmp_path, segment_bytes=1024,
                           fsync=False) as wal:
            assert wal.last_seq == 40

    def test_first_replay_reuses_the_open_scan(self, tmp_path, monkeypatch):
        from repro.stream import wal as wal_mod

        with WriteAheadLog(tmp_path, segment_bytes=1024,
                           fsync=False) as wal:
            _fill(wal, 40)
        reads = []
        real = wal_mod._read_segment
        monkeypatch.setattr(wal_mod, "_read_segment",
                            lambda path, **kw: reads.append(path)
                            or real(path, **kw))
        with WriteAheadLog(tmp_path, segment_bytes=1024,
                           fsync=False) as wal:
            opened = len(reads)
            assert [r["seq"] for r in wal.replay()] == list(range(1, 41))
            assert len(reads) == opened        # no segment decoded twice
            # later replays, and replays after an append, read the files
            assert [r["seq"] for r in wal.replay(after_seq=38)] == [39, 40]
            assert wal.append("events", {"events": []}) == 41
            assert [r["seq"] for r in wal.replay(after_seq=39)] == [40, 41]
            assert len(reads) > opened

    def test_prune_keeps_active_segment(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=1024,
                           fsync=False) as wal:
            _fill(wal, 40)
            before = len(sorted(tmp_path.glob("wal-*.seg")))
            removed = wal.prune(wal.last_seq)
            assert removed == before - 1
            assert len(sorted(tmp_path.glob("wal-*.seg"))) == 1
            # sequence numbering survives pruning everything
            assert wal.append("events", {"events": []}) == 41
        with WriteAheadLog(tmp_path, segment_bytes=1024,
                           fsync=False) as wal:
            assert wal.last_seq == 41

    def test_closed_wal_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.close()
        with pytest.raises(RuntimeError, match="closed"):
            wal.append("events", {})

    def test_segment_bytes_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, segment_bytes=10)


# ---------------------------------------------------------------------------
# Corruption corpus
# ---------------------------------------------------------------------------

class TestCorruptionCorpus:
    def _one_segment(self, tmp_path, n=6):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            _fill(wal, n)
        return sorted(tmp_path.glob("wal-*.seg"))[-1]

    def test_torn_tail_truncated_and_recovered(self, tmp_path):
        seg = self._one_segment(tmp_path)
        pristine = seg.read_bytes()
        seg.write_bytes(pristine[:-7])       # cut the last record short
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.stats.torn_tail_truncated == 1
        assert wal.last_seq == 5             # record 6 was torn away
        assert [r["seq"] for r in wal.replay()] == [1, 2, 3, 4, 5]
        assert wal.append("events", {"events": []}) == 6
        wal.close()

    def test_trailing_garbage_is_a_torn_tail(self, tmp_path):
        seg = self._one_segment(tmp_path)
        with open(seg, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 3)
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.last_seq == 6
        assert wal.stats.torn_tail_truncated == 1
        wal.close()

    def test_bit_flipped_crc_names_offset(self, tmp_path):
        seg = self._one_segment(tmp_path)
        data = bytearray(seg.read_bytes())
        # flip one payload byte of the FIRST record; intact records follow,
        # so this cannot be mistaken for a torn tail
        data[_HEADER_BYTES + _FRAME.size + 2] ^= 0x40
        seg.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError) as err:
            WriteAheadLog(tmp_path, fsync=False)
        assert "CRC mismatch" in str(err.value)
        assert err.value.path == str(seg)
        assert err.value.offset == _HEADER_BYTES

    def test_bad_magic(self, tmp_path):
        seg = self._one_segment(tmp_path)
        data = bytearray(seg.read_bytes())
        data[0] ^= 0xFF
        seg.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="magic"):
            WriteAheadLog(tmp_path, fsync=False)

    def test_duplicate_segment_detected(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=1024,
                           fsync=False) as wal:
            _fill(wal, 40)
        segments = sorted(tmp_path.glob("wal-*.seg"))
        assert len(segments) >= 2
        # operator error: a record-bearing segment copied to the tail —
        # its base_seq cannot chain from the real last segment
        clone = tmp_path / "wal-00000099.seg"
        clone.write_bytes(segments[0].read_bytes())
        with pytest.raises(WalCorruptionError, match="does not continue"):
            WriteAheadLog(tmp_path, fsync=False)

    def test_empty_final_segment_is_clean(self, tmp_path):
        self._one_segment(tmp_path)
        (tmp_path / "wal-00000002.seg").write_bytes(b"")
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.last_seq == 6
        assert wal.append("events", {"events": []}) == 7
        wal.close()

    def test_empty_file_alone_is_a_fresh_log(self, tmp_path):
        (tmp_path / "wal-00000001.seg").write_bytes(b"")
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.last_seq == 0
        assert wal.append("events", {"events": []}) == 1
        wal.close()

    def test_short_non_final_segment_is_corruption(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=1024,
                           fsync=False) as wal:
            _fill(wal, 40)
        segments = sorted(tmp_path.glob("wal-*.seg"))
        truncated = segments[0].read_bytes()[:_HEADER_BYTES + 5]
        segments[0].write_bytes(truncated)
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path, fsync=False)

    def test_sequence_break_detected(self, tmp_path):
        seg = self._one_segment(tmp_path, n=2)
        # hand-craft a record with a skipped seq and append it intact
        body = json.dumps({"seq": 9, "kind": "events"}).encode()
        frame = _FRAME.pack(len(body), zlib.crc32(body)) + body
        with open(seg, "ab") as handle:
            handle.write(frame)
        with pytest.raises(WalCorruptionError, match="sequence break"):
            WriteAheadLog(tmp_path, fsync=False)

    def test_pruned_gap_without_snapshot_detected(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=1024,
                           fsync=False) as wal:
            _fill(wal, 40)
            wal.prune(wal.last_seq)
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            # replaying from 0 is impossible: the prefix is gone and no
            # snapshot covers it
            with pytest.raises(WalCorruptionError, match="pruned"):
                list(wal.replay(after_seq=0))


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

class TestSnapshots:
    def _graph(self, rng):
        return random_multiplex(30, 2, 4, rng, avg_degree=3.0)

    def test_round_trip_with_meta_and_pending(self, tmp_path, rng):
        graph = self._graph(rng)
        builder = IncrementalGraphBuilder.from_graph(graph)
        events, _ = synthesize_stream(graph, 5, rng)
        meta = snapshot_meta(builder, record_seq=7, windows_scored=2,
                             events_consumed=40, alerts_raised=1,
                             pending=events)
        save_snapshot(tmp_path, builder.snapshot(), meta)
        loaded_graph, loaded_meta = load_latest_snapshot(tmp_path)
        assert graph_fingerprint(loaded_graph) == builder.fingerprint()
        assert loaded_meta["record_seq"] == 7
        assert loaded_meta["windows_scored"] == 2
        assert len(loaded_meta["pending"]) == 5

    def test_retention_keeps_newest(self, tmp_path, rng):
        graph = self._graph(rng)
        builder = IncrementalGraphBuilder.from_graph(graph)
        for seq in (5, 10, 15, 20):
            meta = snapshot_meta(builder, record_seq=seq, windows_scored=0,
                                 events_consumed=0, alerts_raised=0,
                                 pending=[])
            save_snapshot(tmp_path, builder.snapshot(), meta, keep=2)
        names = sorted(p.name for p in tmp_path.glob("snap-*.npz"))
        assert names == ["snap-000000000015.npz", "snap-000000000020.npz"]

    def test_damaged_newest_falls_back(self, tmp_path, rng):
        graph = self._graph(rng)
        builder = IncrementalGraphBuilder.from_graph(graph)
        for seq in (1, 2):
            meta = snapshot_meta(builder, record_seq=seq, windows_scored=0,
                                 events_consumed=0, alerts_raised=0,
                                 pending=[])
            save_snapshot(tmp_path, builder.snapshot(), meta)
        newest = sorted(tmp_path.glob("snap-*.npz"))[-1]
        newest.write_bytes(b"not a zip archive")
        _graph2, meta = load_latest_snapshot(tmp_path)
        assert meta["record_seq"] == 1

    @staticmethod
    def _recompress(path):
        """Rewrite ``path`` as an earlier version wrote snapshots:
        the same members, deflated."""
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)

    def test_written_uncompressed_and_compressed_ones_still_load(
            self, tmp_path, rng):
        graph = self._graph(rng)
        builder = IncrementalGraphBuilder.from_graph(graph)
        meta = snapshot_meta(builder, record_seq=3, windows_scored=1,
                             events_consumed=0, alerts_raised=0, pending=[])
        path = save_snapshot(tmp_path, builder.snapshot(), meta)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED}
        self._recompress(path)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_DEFLATED}
        loaded_graph, loaded_meta = load_latest_snapshot(tmp_path)
        assert graph_fingerprint(loaded_graph) == builder.fingerprint()
        assert loaded_meta["record_seq"] == 3

    @pytest.mark.parametrize("compressed", [False, True])
    def test_flipped_byte_in_newest_falls_back(self, tmp_path, rng,
                                               compressed):
        graph = self._graph(rng)
        builder = IncrementalGraphBuilder.from_graph(graph)
        for seq in (1, 2):
            meta = snapshot_meta(builder, record_seq=seq, windows_scored=0,
                                 events_consumed=0, alerts_raised=0,
                                 pending=[])
            path = save_snapshot(tmp_path, builder.snapshot(), meta)
            if compressed:
                self._recompress(path)
        # flip one byte in the middle of the newest archive's x member:
        # the zip directory stays intact, only the member's CRC catches it
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("x.npy")
        raw = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack(
            "<HH", raw[info.header_offset + 26:info.header_offset + 30])
        start = info.header_offset + 30 + name_len + extra_len
        raw[start + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        loaded_graph, meta = load_latest_snapshot(tmp_path)
        assert meta["record_seq"] == 1
        assert graph_fingerprint(loaded_graph) == builder.fingerprint()

    def test_non_canonical_edges_treated_as_damaged(self, tmp_path, rng):
        graph = self._graph(rng)
        builder = IncrementalGraphBuilder.from_graph(graph)
        for seq in (1, 2):
            meta = snapshot_meta(builder, record_seq=seq, windows_scored=0,
                                 events_consumed=0, alerts_raised=0,
                                 pending=[])
            save_snapshot(tmp_path, builder.snapshot(), meta)
        newest = sorted(tmp_path.glob("snap-*.npz"))[-1]
        with np.load(newest) as archive:
            payload = {key: archive[key] for key in archive.files}
        name = next(key for key in payload if key.startswith("edges::"))
        payload[name] = payload[name][::-1].copy()      # unsorted rows
        with open(newest, "wb") as handle:
            np.savez(handle, **payload)
        _graph2, meta = load_latest_snapshot(tmp_path)
        assert meta["record_seq"] == 1

    def test_all_damaged_raises(self, tmp_path, rng):
        graph = self._graph(rng)
        builder = IncrementalGraphBuilder.from_graph(graph)
        meta = snapshot_meta(builder, record_seq=1, windows_scored=0,
                             events_consumed=0, alerts_raised=0, pending=[])
        save_snapshot(tmp_path, builder.snapshot(), meta)
        for path in tmp_path.glob("snap-*.npz"):
            path.write_bytes(b"damaged")
        with pytest.raises(WalCorruptionError, match="unreadable"):
            load_latest_snapshot(tmp_path)

    def test_leftover_tmp_file_is_invisible(self, tmp_path):
        # a crash mid-snapshot leaves only the temp file, which must never
        # be considered a snapshot candidate
        (tmp_path / ".tmp-snap-000000000009.npz").write_bytes(b"partial")
        assert load_latest_snapshot(tmp_path) is None


# ---------------------------------------------------------------------------
# Recovery parity
# ---------------------------------------------------------------------------

class TestRecovery:
    def test_recovered_fingerprint_is_bitwise_identical(self, tmp_path, rng):
        graph = random_multiplex(40, 2, 4, rng, avg_degree=3.0)
        events, _ = synthesize_stream(graph, 110, rng)
        wal = WriteAheadLog(tmp_path, fsync=False)
        live = _monitor(graph, wal=wal, window=20, snapshot_every=2)
        live.ingest(events)
        # no checkpoint: simulate a crash by abandoning the monitor
        wal.close()

        wal2 = WriteAheadLog(tmp_path, fsync=False)
        state = recover_builder(wal2)
        assert state.recovered
        assert state.builder.fingerprint() == live.builder.fingerprint()
        assert len(state.pending) == live.buffered
        assert state.windows_scored == live.windows_scored
        assert state.events_consumed == live.events_consumed
        assert verify_parity(state.builder)
        wal2.close()

    def test_monitor_recover_continues_stream(self, tmp_path, rng):
        graph = random_multiplex(40, 2, 4, rng, avg_degree=3.0)
        events, _ = synthesize_stream(graph, 200,
                                      np.random.default_rng(5))
        # uninterrupted reference run
        reference = _monitor(graph, window=20)
        reference.ingest(events)

        # crashed run: first 90 events, no checkpoint
        wal = WriteAheadLog(tmp_path, fsync=False)
        first = _monitor(graph, wal=wal, window=20, snapshot_every=3)
        first.ingest(events[:90])
        wal.close()

        # recover, feed the remainder: final state matches the reference
        wal2 = WriteAheadLog(tmp_path, fsync=False)
        service = DetectorService(_NormDetector().fit(graph))
        resumed = open_monitor(service, wal=wal2, window=20, top_k=5,
                               snapshot_every=3)
        assert resumed.recovered
        # recovery replays events without scoring them
        assert service.stats.requests == 0
        skip = resumed.events_consumed + resumed.buffered
        assert skip == 90
        resumed.ingest(events[skip:])
        assert resumed.builder.fingerprint() == \
            reference.builder.fingerprint()
        assert resumed.windows_scored == reference.windows_scored
        assert resumed.events_consumed == reference.events_consumed
        wal2.close()

    def test_logging_leaves_ingest_unchanged(self, tmp_path, rng):
        """The WAL only writes: a logged run reports the same windows and
        runs exactly the scoring passes of an unlogged one."""
        graph = random_multiplex(40, 2, 4, rng, avg_degree=3.0)
        events, _ = synthesize_stream(graph, 110, rng)
        plain = _monitor(graph)
        plain_reports = plain.ingest(events)
        wal = WriteAheadLog(tmp_path, fsync=False)
        logged = _monitor(graph, wal=wal, snapshot_every=2)
        logged_reports = logged.ingest(events)
        wal.close()
        assert wal.stats.appends > 0
        assert logged.builder.fingerprint() == plain.builder.fingerprint()
        assert [r.fingerprint for r in logged_reports] == \
            [r.fingerprint for r in plain_reports]
        assert logged.service.stats.to_dict() == \
            plain.service.stats.to_dict()

    def test_failed_window_applies_its_events_once(self, tmp_path, rng):
        """A window whose scoring raises has applied its events; the next
        window must not apply them again, and the WAL stays recoverable."""
        graph = random_multiplex(30, 2, 4, rng, avg_degree=3.0)
        relation = graph.relation_names[0]
        events = [AddNode(rng.normal(size=4)), AddNode(rng.normal(size=4)),
                  AddEdge(relation, 0, 30), AddEdge(relation, 1, 31),
                  AddEdge(relation, 2, 3), AddEdge(relation, 4, 5),
                  UpdateAttr(6, rng.normal(size=4)),
                  AddEdge(relation, 7, 8)]
        wal = WriteAheadLog(tmp_path, fsync=False)
        live = _monitor(graph, wal=wal, window=4)
        chaos.configure("service.score", count=1)
        try:
            with pytest.raises(chaos.ChaosError):
                live.ingest(events[:4])
        finally:
            chaos.reset()
        assert live.buffered == 0
        live.ingest(events[4:])
        assert live.builder.num_nodes == 32
        assert live.events_consumed == 8
        wal.close()

        wal2 = WriteAheadLog(tmp_path, fsync=False)
        state = recover_builder(wal2)
        assert state.builder.fingerprint() == live.builder.fingerprint()
        assert state.pending == []
        wal2.close()

    def test_clean_checkpoint_replays_nothing(self, tmp_path, rng):
        graph = random_multiplex(30, 2, 4, rng, avg_degree=3.0)
        events, _ = synthesize_stream(graph, 50, rng)
        wal = WriteAheadLog(tmp_path, fsync=False)
        live = _monitor(graph, wal=wal, window=20)
        live.ingest(events)
        live.checkpoint()
        wal.close()

        wal2 = WriteAheadLog(tmp_path, fsync=False)
        replayed_before = wal2.stats.records_replayed
        state = recover_builder(wal2)
        assert state.builder.fingerprint() == live.builder.fingerprint()
        # everything came from the snapshot; the log had nothing newer
        assert wal2.stats.records_replayed == replayed_before
        wal2.close()

    def test_marker_divergence_detected(self, tmp_path, rng):
        graph = random_multiplex(30, 2, 4, rng, avg_degree=3.0)
        wal = WriteAheadLog(tmp_path, fsync=False)
        monitor = _monitor(graph, wal=wal, window=20)
        events, _ = synthesize_stream(graph, 10, rng)
        wal.append("events", {"events": [e.to_dict() for e in events]})
        wal.append("window", {"fingerprint": "0" * 64,
                              "windows_scored": 1, "events_consumed": 10,
                              "alerts_raised": 0})
        wal.close()
        wal2 = WriteAheadLog(tmp_path, fsync=False)
        with pytest.raises(WalCorruptionError, match="diverged"):
            recover_builder(wal2)
        wal2.close()
        assert monitor is not None   # keep the seed snapshot writer alive

    def test_empty_wal_needs_schema(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        with pytest.raises(ValueError, match="schema|relation_names"):
            recover_builder(wal)
        state = recover_builder(wal, relation_names=["a"], num_features=3)
        assert not state.recovered
        assert state.builder.num_nodes == 0
        wal.close()
