"""Streaming ingestion + online monitoring (repro.stream)."""

import json

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.cli import main as cli_main
from repro.detection import BaseDetector
from repro.graphs import (
    MultiplexGraph,
    RelationGraph,
    graph_fingerprint,
    random_multiplex,
    save_multiplex,
)
from repro.serve import DetectorService, save_checkpoint
from repro.server import Gateway, GatewayError
from repro.stream import (
    AddEdge,
    AddNode,
    DriftAlert,
    IncrementalGraphBuilder,
    RefitAlert,
    RemoveEdge,
    ScoreJump,
    StreamMonitor,
    TopKEntrant,
    UpdateAttr,
    bootstrap_events,
    ks_statistic,
    parse_event,
    psi,
    read_events,
    synthesize_stream,
    write_events,
)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

class _NormDetector(BaseDetector):
    """score = ||x|| — cheap, deterministic, scores any graph."""

    def fit(self, graph):
        self._graph = graph
        self._scores = np.linalg.norm(graph.x, axis=1)
        return self

    def score_graph(self, graph):
        return np.linalg.norm(graph.x, axis=1)


def _naive_replay(graph, events):
    """Independent (set-based) event application, for cross-checking."""
    edge_sets = {name: {tuple(edge) for edge in graph[name].edges}
                 for name in graph.relation_names}
    rows = [row.copy() for row in graph.x]
    for event in events:
        if isinstance(event, AddEdge):
            edge_sets[event.relation].add((event.u, event.v))
        elif isinstance(event, RemoveEdge):
            edge_sets[event.relation].discard((event.u, event.v))
        elif isinstance(event, AddNode):
            rows.append(event.x.copy())
        elif isinstance(event, UpdateAttr):
            rows[event.node] = event.x.copy()
    x = np.stack(rows)
    relations = {
        name: RelationGraph(
            x.shape[0],
            np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2),
            name=name)
        for name, pairs in edge_sets.items()
    }
    return MultiplexGraph(x=x, relations=relations)


# ---------------------------------------------------------------------------
# Events + JSONL log
# ---------------------------------------------------------------------------

class TestEvents:
    def test_edge_events_canonicalise_endpoints(self):
        assert (AddEdge("r", 5, 2).u, AddEdge("r", 5, 2).v) == (2, 5)
        assert (RemoveEdge("r", 9, 0).u, RemoveEdge("r", 9, 0).v) == (0, 9)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            AddEdge("r", 3, 3)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            AddEdge("r", -1, 2)
        with pytest.raises(ValueError, match="non-negative"):
            UpdateAttr(-1, [0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_attributes_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite .* column 2"):
            AddNode([0.0, 1.0, bad, bad])
        with pytest.raises(ValueError, match="non-finite .* column 0"):
            UpdateAttr(3, [bad, 1.0])
        # the JSONL / HTTP decode path goes through the same constructors
        with pytest.raises(ValueError, match="column 1"):
            parse_event({"op": "update_attr", "node": 0, "x": [0.0, bad]})

    def test_parse_unknown_op(self):
        with pytest.raises(ValueError, match="unknown event op"):
            parse_event({"op": "explode"})

    def test_jsonl_roundtrip_is_exact(self, tmp_path, rng):
        events = [
            AddEdge("view", 1, 2),
            RemoveEdge("buy", 7, 3),
            AddNode(rng.normal(size=4)),
            UpdateAttr(5, rng.normal(size=4)),
        ]
        path = tmp_path / "events.jsonl"
        assert write_events(path, events) == 4
        replayed = list(read_events(path))
        assert [e.op for e in replayed] == [e.op for e in events]
        # float64 must round-trip bitwise (repr-based JSON floats)
        np.testing.assert_array_equal(replayed[2].x, events[2].x)
        np.testing.assert_array_equal(replayed[3].x, events[3].x)
        assert (replayed[0].relation, replayed[0].u, replayed[0].v) == \
            ("view", 1, 2)

    def test_array_events_compare_by_value(self):
        assert AddNode([1.0, 2.0]) == AddNode([1.0, 2.0])
        assert AddNode([1.0, 2.0]) != AddNode([1.0, 3.0])
        assert UpdateAttr(3, [0.5]) == UpdateAttr(3, [0.5])
        assert UpdateAttr(3, [0.5]) != UpdateAttr(4, [0.5])
        assert parse_event(AddNode([1.0]).to_dict()) == AddNode([1.0])

    def test_write_events_append_mode(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_events(path, [AddEdge("r", 0, 1)])
        write_events(path, [AddEdge("r", 1, 2)], append=True)
        assert [e.to_dict() for e in read_events(path)] == [
            AddEdge("r", 0, 1).to_dict(), AddEdge("r", 1, 2).to_dict()]
        write_events(path, [AddEdge("r", 2, 3)])   # default overwrites
        assert len(list(read_events(path))) == 1

    def test_read_events_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "add_edge", "rel": "r", "u": 0, "v": 1}\n'
                        '{"op": "nope"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            list(read_events(path))


# ---------------------------------------------------------------------------
# IncrementalGraphBuilder
# ---------------------------------------------------------------------------

class TestBuilder:
    def test_bootstrap_replay_matches_static_fingerprint(self, tiny_multiplex):
        builder = IncrementalGraphBuilder(
            relation_names=tiny_multiplex.relation_names,
            num_features=tiny_multiplex.num_features)
        builder.apply(bootstrap_events(tiny_multiplex))
        assert builder.fingerprint() == graph_fingerprint(tiny_multiplex)
        snapshot = builder.snapshot()
        np.testing.assert_array_equal(snapshot.x, tiny_multiplex.x)
        for name in tiny_multiplex.relation_names:
            np.testing.assert_array_equal(snapshot[name].edges,
                                          tiny_multiplex[name].edges)

    def test_snapshot_mutation_refreshes_relation_caches(self, rng):
        # RelationGraph memoizes degrees/propagators; the builder must hand
        # out a *new* relation object (fresh caches) once edges mutate, while
        # untouched relations keep sharing the previous snapshot's object
        # (and its warm caches).
        graph = random_multiplex(40, 2, 6, rng, avg_degree=3.0)
        names = graph.relation_names
        builder = IncrementalGraphBuilder.from_graph(graph)
        snap1 = builder.snapshot()
        deg_before = {n: snap1[n].degrees().copy() for n in names}

        u, v = snap1[names[0]].edges[0]
        builder.apply(RemoveEdge(names[0], int(u), int(v)))
        snap2 = builder.snapshot()

        assert snap2[names[0]] is not snap1[names[0]]
        assert snap2[names[1]] is snap1[names[1]]      # cache reuse
        np.testing.assert_array_equal(snap1[names[0]].degrees(),
                                      deg_before[names[0]])  # old stays valid
        expected = deg_before[names[0]].copy()
        expected[[u, v]] -= 1
        np.testing.assert_array_equal(snap2[names[0]].degrees(), expected)

    def test_snapshot_node_growth_resizes_degrees(self, rng):
        graph = random_multiplex(20, 2, 4, rng, avg_degree=3.0)
        builder = IncrementalGraphBuilder.from_graph(graph)
        name = graph.relation_names[0]
        before = builder.snapshot()[name].degrees()
        builder.apply(AddNode(np.zeros(4)))
        after = builder.snapshot()[name].degrees()
        assert before.size == 20 and after.size == 21
        np.testing.assert_array_equal(after[:20], before)
        assert after[20] == 0

    def test_full_stream_replay_matches_static_build(self, rng):
        graph = random_multiplex(60, 3, 8, rng, avg_degree=4.0)
        events, _truth = synthesize_stream(
            graph, 800, np.random.default_rng(1), burst_every=200)
        builder = IncrementalGraphBuilder.from_graph(graph)
        # window by window: the incremental fingerprint equals a rebuild
        # of the whole log so far
        for end in range(200, len(events) + 1, 200):
            builder.apply(events[end - 200:end])
            static = _naive_replay(graph, events[:end])
            assert builder.fingerprint() == graph_fingerprint(static)
        assert builder.fingerprint() == graph_fingerprint(builder.snapshot())

    def test_jsonl_replay_matches_direct_replay(self, rng, tmp_path):
        graph = random_multiplex(40, 2, 6, rng, avg_degree=3.0)
        events, _ = synthesize_stream(graph, 300, np.random.default_rng(2),
                                      burst_every=120)
        direct = IncrementalGraphBuilder.from_graph(graph)
        direct.apply(events)
        path = tmp_path / "events.jsonl"
        write_events(path, events)
        from_log = IncrementalGraphBuilder.from_graph(graph)
        from_log.apply(read_events(path))
        assert from_log.fingerprint() == direct.fingerprint()

    def test_snapshots_are_immutable_under_further_apply(self, tiny_multiplex):
        builder = IncrementalGraphBuilder.from_graph(tiny_multiplex)
        first = builder.snapshot()
        fp_first = builder.fingerprint()
        builder.apply([AddEdge(tiny_multiplex.relation_names[0], 0, 1),
                       UpdateAttr(0, np.zeros(tiny_multiplex.num_features))])
        second = builder.snapshot()
        assert graph_fingerprint(first) == fp_first
        assert graph_fingerprint(second) == builder.fingerprint()
        assert builder.fingerprint() != fp_first

    def test_unchanged_relations_shared_between_snapshots(self, tiny_multiplex):
        builder = IncrementalGraphBuilder.from_graph(tiny_multiplex)
        names = tiny_multiplex.relation_names
        first = builder.snapshot()
        u, v = next((u, v) for u in range(tiny_multiplex.num_nodes)
                    for v in range(u + 1, tiny_multiplex.num_nodes)
                    if not builder.has_edge(names[0], u, v))
        builder.apply(AddEdge(names[0], u, v))
        second = builder.snapshot()
        assert second[names[1]] is first[names[1]]   # untouched: shared
        assert second[names[0]] is not first[names[0]]

    def test_remove_edge_until_relation_empty(self):
        builder = IncrementalGraphBuilder(relation_names=["r"], num_features=2)
        builder.apply([AddNode([0.0, 1.0]), AddNode([1.0, 0.0]),
                       AddEdge("r", 0, 1)])
        builder.apply(RemoveEdge("r", 0, 1))
        snapshot = builder.snapshot()
        assert snapshot["r"].num_edges == 0
        static = MultiplexGraph(
            x=snapshot.x,
            relations={"r": RelationGraph(2, np.empty((0, 2)), name="r")})
        assert builder.fingerprint() == graph_fingerprint(static)

    def test_duplicate_add_is_counted_noop(self):
        builder = IncrementalGraphBuilder(relation_names=["r"], num_features=1)
        builder.apply([AddNode([0.0]), AddNode([1.0]), AddEdge("r", 0, 1)])
        before = builder.fingerprint()
        stats = builder.apply([AddEdge("r", 0, 1), AddEdge("r", 1, 0)])
        assert stats.added_edges == 0
        assert stats.redundant_adds == 2
        assert builder.fingerprint() == before

    def test_missing_remove_is_counted_noop(self):
        builder = IncrementalGraphBuilder(relation_names=["r"], num_features=1)
        builder.apply([AddNode([0.0]), AddNode([1.0])])
        stats = builder.apply(RemoveEdge("r", 0, 1))
        assert stats.removed_edges == 0
        assert stats.missing_removes == 1

    def test_unknown_relation_raises_without_corrupting_state(
            self, tiny_multiplex):
        builder = IncrementalGraphBuilder.from_graph(tiny_multiplex)
        before = builder.fingerprint()
        with pytest.raises(ValueError, match="unknown relation"):
            builder.apply(AddEdge("no-such-relation", 0, 1))
        assert builder.fingerprint() == before
        assert builder.total_edges() == tiny_multiplex.total_edges()

    def test_out_of_range_node_raises(self, tiny_multiplex):
        builder = IncrementalGraphBuilder.from_graph(tiny_multiplex)
        name = tiny_multiplex.relation_names[0]
        with pytest.raises(ValueError, match="out of range"):
            builder.apply(AddEdge(name, 0, tiny_multiplex.num_nodes + 5))
        with pytest.raises(ValueError, match="out of range"):
            builder.apply(UpdateAttr(tiny_multiplex.num_nodes,
                                     np.zeros(tiny_multiplex.num_features)))

    def test_wrong_attribute_width_raises(self):
        builder = IncrementalGraphBuilder(relation_names=["r"], num_features=3)
        with pytest.raises(ValueError, match="width"):
            builder.apply(AddNode([1.0, 2.0]))
        builder.apply(AddNode([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="width"):
            builder.apply(UpdateAttr(0, [1.0]))

    def test_batch_prefix_applied_before_error(self):
        builder = IncrementalGraphBuilder(relation_names=["r"], num_features=1)
        builder.apply([AddNode([0.0]), AddNode([1.0])])
        with pytest.raises(ValueError, match="unknown relation"):
            builder.apply([AddEdge("r", 0, 1), AddEdge("bogus", 0, 1)])
        # the valid prefix landed; state is consistent, not rolled back
        assert builder.num_edges("r") == 1
        builder.snapshot()

    def test_capacity_doubling_growth(self):
        builder = IncrementalGraphBuilder(relation_names=["r"], num_features=2)
        n = 200
        builder.apply([AddNode([float(i), 0.0]) for i in range(n)])
        builder.apply([AddEdge("r", i, i + 1) for i in range(n - 1)])
        assert builder.num_nodes == n
        assert builder.num_edges("r") == n - 1
        static = MultiplexGraph(
            x=builder.attributes().copy(),
            relations={"r": RelationGraph(
                n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1),
                name="r")})
        assert builder.fingerprint() == graph_fingerprint(static)

    def test_empty_builder_snapshot_rejected(self):
        builder = IncrementalGraphBuilder(relation_names=["r"], num_features=1)
        with pytest.raises(ValueError, match="empty graph"):
            builder.snapshot()

    def test_attributes_view_is_read_only(self, tiny_multiplex):
        builder = IncrementalGraphBuilder.from_graph(tiny_multiplex)
        view = builder.attributes()
        with pytest.raises(ValueError):
            view[0, 0] = 99.0


class TestSyntheticStream:
    def test_deterministic_given_seed(self, tiny_multiplex):
        a, _ = synthesize_stream(tiny_multiplex, 200,
                                 np.random.default_rng(9), burst_every=80)
        b, _ = synthesize_stream(tiny_multiplex, 200,
                                 np.random.default_rng(9), burst_every=80)
        assert [e.to_dict() for e in a] == [e.to_dict() for e in b]

    def test_bursts_recorded_with_kinds_and_ranges(self, tiny_multiplex):
        events, truth = synthesize_stream(
            tiny_multiplex, 400, np.random.default_rng(5), burst_every=150)
        assert len(truth.bursts) >= 2
        kinds = [b.kind for b in truth.bursts]
        assert "structural" in kinds and "attribute" in kinds
        for burst in truth.bursts:
            assert 0 <= burst.start <= burst.stop <= len(events)
        labels = truth.labels(10**6)
        assert labels.sum() == truth.anomaly_nodes.size

    def test_structural_truth_covers_only_perturbed_nodes(self):
        # complete graph: a structural burst cannot add anything, so it
        # must not label untouched nodes as anomalies
        n = 5
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        complete = MultiplexGraph(
            x=np.eye(n), relations={"r": RelationGraph(n, pairs, name="r")})
        _events, truth = synthesize_stream(
            complete, 30, np.random.default_rng(0), burst_every=5,
            clique_size=4, remove_fraction=0.0, attr_fraction=1.0)
        structural = [b for b in truth.bursts if b.kind == "structural"]
        assert not structural
        for burst in truth.bursts:
            assert burst.stop > burst.start

    def test_stream_is_valid_no_noop_events(self, tiny_multiplex):
        events, _ = synthesize_stream(
            tiny_multiplex, 500, np.random.default_rng(6), burst_every=200)
        builder = IncrementalGraphBuilder.from_graph(tiny_multiplex)
        stats = builder.apply(events)
        assert stats.redundant_adds == 0
        assert stats.missing_removes == 0
        assert stats.applied == len(events)


# ---------------------------------------------------------------------------
# Drift statistics
# ---------------------------------------------------------------------------

class TestDriftStats:
    def test_psi_zero_for_identical_samples(self, rng):
        scores = rng.normal(size=500)
        assert psi(scores, scores) == pytest.approx(0.0, abs=1e-6)

    def test_psi_grows_with_shift(self, rng):
        base = rng.normal(size=500)
        assert psi(base, base + 0.1) < psi(base, base + 2.0)
        assert psi(base, base + 2.0) > 0.25

    def test_ks_bounds(self, rng):
        base = rng.normal(size=400)
        assert ks_statistic(base, base) == pytest.approx(0.0)
        assert ks_statistic(base, base + 100.0) == pytest.approx(1.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            psi(np.empty(0), np.ones(3))
        with pytest.raises(ValueError):
            ks_statistic(np.ones(3), np.empty(0))


# ---------------------------------------------------------------------------
# StreamMonitor
# ---------------------------------------------------------------------------

class TestMonitor:
    def _monitor(self, graph, **kwargs):
        detector = _NormDetector().fit(graph)
        service = DetectorService(detector)
        builder = IncrementalGraphBuilder.from_graph(graph)
        defaults = dict(window=20, top_k=5, psi_threshold=0.25)
        defaults.update(kwargs)
        return StreamMonitor(service, builder, **defaults), service

    def test_score_jump_and_topk_alerts(self, rng):
        graph = random_multiplex(60, 2, 6, rng, avg_degree=4.0)
        monitor, _ = self._monitor(graph)
        quiet = [UpdateAttr(i % 60, graph.x[i % 60]) for i in range(40)]
        spike = [UpdateAttr(7, np.full(6, 50.0))] + \
                [UpdateAttr((i + 8) % 60, graph.x[(i + 8) % 60])
                 for i in range(19)]
        reports = monitor.ingest(quiet + spike)
        assert len(reports) == 3
        assert not reports[0].alerts
        jumpers = [a.node for a in reports[2].alerts
                   if isinstance(a, ScoreJump)]
        entrants = [a.node for a in reports[2].alerts
                    if isinstance(a, TopKEntrant)]
        assert jumpers == [7]
        assert entrants == [7]

    def test_drift_alert_fires_on_distribution_shift(self, rng):
        graph = random_multiplex(50, 2, 4, rng, avg_degree=3.0)
        monitor, _ = self._monitor(graph, window=50)
        quiet = [UpdateAttr(i, graph.x[i]) for i in range(50)]
        shift = [UpdateAttr(i, graph.x[i] + 10.0) for i in range(50)]
        reports = monitor.ingest(quiet + shift)
        assert reports[0].psi is None          # reference window
        drift = [a for a in reports[1].alerts if isinstance(a, DriftAlert)]
        assert drift and drift[0].psi > 0.25
        assert reports[1].ks is not None

    def test_drift_triggers_refit_policy(self, rng):
        graph = random_multiplex(50, 2, 4, rng, avg_degree=3.0)
        refits = []

        def refit(snapshot):
            refits.append(snapshot)
            return _NormDetector().fit(snapshot)

        monitor, service = self._monitor(graph, window=50, refit=refit,
                                         refit_cooldown=1)
        old_detector = service.detector
        quiet = [UpdateAttr(i, graph.x[i]) for i in range(50)]
        shift = [UpdateAttr(i, graph.x[i] + 10.0) for i in range(50)]
        reports = monitor.ingest(quiet + shift)
        assert len(refits) == 1
        assert service.detector is not old_detector
        assert reports[1].refit
        assert any(isinstance(a, RefitAlert) for a in reports[1].alerts)
        # the swapped detector serves the refitted graph from its cache
        assert service.trained_fingerprint == reports[1].fingerprint
        # the refit-window report is internally consistent: ranking and
        # stats all come from the NEW detector's scores, and ranking-based
        # alerts are suppressed (old ranking is not a meaningful baseline)
        assert reports[1].top[0][1] == pytest.approx(reports[1].score_max)
        assert not any(isinstance(a, (TopKEntrant, ScoreJump))
                       for a in reports[1].alerts)

    def test_trajectories_track_scores_across_windows(self, rng):
        graph = random_multiplex(30, 2, 4, rng, avg_degree=3.0)
        monitor, _ = self._monitor(graph, window=10)
        events = [UpdateAttr(0, graph.x[0] * (1 + k)) for k in range(30)]
        monitor.ingest(events)
        trajectory = monitor.trajectory(0)
        assert [w for w, _ in trajectory] == [0, 1, 2]
        scores = [s for _, s in trajectory]
        assert scores == sorted(scores)

    def test_flush_scores_partial_tail(self, rng):
        graph = random_multiplex(30, 2, 4, rng, avg_degree=3.0)
        monitor, _ = self._monitor(graph, window=10)
        reports = monitor.ingest(
            [UpdateAttr(0, graph.x[0]) for _ in range(15)])
        assert len(reports) == 1
        tail = monitor.flush()
        assert tail is not None and tail.index == 1
        assert monitor.flush() is None
        assert monitor.events_consumed == 15

    def test_monitor_uses_builder_fingerprint_not_rehash(self, rng):
        graph = random_multiplex(30, 2, 4, rng, avg_degree=3.0)
        monitor, service = self._monitor(graph, window=10)
        reports = monitor.ingest(
            [UpdateAttr(0, graph.x[0]) for _ in range(10)])
        assert reports[0].fingerprint == graph_fingerprint(monitor.builder.snapshot())
        assert service.stats.misses == 1

    def test_report_dict_is_jsonable(self, rng):
        graph = random_multiplex(30, 2, 4, rng, avg_degree=3.0)
        monitor, _ = self._monitor(graph, window=10)
        reports = monitor.ingest(
            [UpdateAttr(0, np.full(4, 9.0)) for _ in range(20)])
        for report in reports:
            payload = json.loads(json.dumps(report.to_dict(), default=float))
            assert payload["window"] == report.index
            assert payload["events"]["updated_attrs"] == 10

    def test_sliding_stride_scores_more_often_but_compares_across_window(
            self, rng):
        graph = random_multiplex(40, 2, 4, rng, avg_degree=3.0)
        quiet = [UpdateAttr(i % 40, graph.x[i % 40]) for i in range(30)]
        spike = [UpdateAttr(5, np.full(4, 80.0))] + \
                [UpdateAttr((i + 6) % 40, graph.x[(i + 6) % 40])
                 for i in range(9)]

        sliding, _ = self._monitor(graph, window=20, stride=10)
        reports = sliding.ingest(quiet + spike)
        assert len(reports) == 4            # cadence = stride, not window
        # the spike lands in snapshot 3; the jump is measured against the
        # snapshot ~window (= 2 strides) back
        jumps = [a for a in reports[3].alerts if isinstance(a, ScoreJump)]
        assert [j.node for j in jumps] == [5]
        assert jumps[0].previous == pytest.approx(
            float(np.linalg.norm(graph.x[5])))

    def test_stride_must_not_exceed_window(self, rng):
        graph = random_multiplex(20, 2, 4, rng, avg_degree=3.0)
        detector = _NormDetector().fit(graph)
        service = DetectorService(detector)
        builder = IncrementalGraphBuilder.from_graph(graph)
        with pytest.raises(ValueError, match="stride"):
            StreamMonitor(service, builder, window=10, stride=20)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestStreamCLI:
    @pytest.fixture()
    def checkpoint(self, fitted_umgad, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        fitted_umgad.save(path, graph=tiny_dataset.graph)
        return path

    def test_stream_json_output(self, checkpoint, tiny_dataset, tmp_path,
                                capsys):
        graph_path = tmp_path / "base.npz"
        save_multiplex(graph_path, tiny_dataset.graph)
        events, _ = synthesize_stream(
            tiny_dataset.graph, 120, np.random.default_rng(0), burst_every=60)
        events_path = tmp_path / "events.jsonl"
        write_events(events_path, events)

        code = cli_main(["stream", "--events", str(events_path),
                         "--model", str(checkpoint),
                         "--graph", str(graph_path),
                         "--window", "60", "--output", "json"])
        assert code == 0
        lines = [line for line in
                 capsys.readouterr().out.strip().splitlines() if line]
        payloads = [json.loads(line) for line in lines]
        assert len(payloads) >= 2
        assert payloads[0]["window"] == 0
        assert "alerts" in payloads[0] and "fingerprint" in payloads[0]

    def test_stream_bootstrap_from_model_schema(self, checkpoint,
                                                tiny_dataset, tmp_path,
                                                capsys):
        events = bootstrap_events(tiny_dataset.graph)
        events_path = tmp_path / "bootstrap.jsonl"
        write_events(events_path, events)
        code = cli_main(["stream", "--events", str(events_path),
                         "--model", str(checkpoint),
                         "--window", str(len(events))])
        assert code == 0
        out = capsys.readouterr().out
        assert "window   0" in out
        assert "stream done" in out

    def test_wal_dir_rerun_resumes_without_rescoring(
            self, checkpoint, tiny_dataset, tmp_path, capsys):
        graph_path = tmp_path / "base.npz"
        save_multiplex(graph_path, tiny_dataset.graph)
        events, _ = synthesize_stream(
            tiny_dataset.graph, 120, np.random.default_rng(0))
        events_path = tmp_path / "events.jsonl"
        write_events(events_path, events)
        argv = ["stream", "--events", str(events_path),
                "--model", str(checkpoint), "--graph", str(graph_path),
                "--window", "50", "--wal-dir", str(tmp_path / "wal")]

        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "recovered from" not in first
        assert "window   2" in first
        assert "stream done: 120 events in 3 windows" in first

        assert cli_main(argv) == 0
        rerun = capsys.readouterr().out
        assert "recovered from" in rerun
        assert "skipping the first 120 event(s)" in rerun
        # every event was consumed by the first run: no window is scored
        # twice, and the service is never asked for scores
        assert "window " not in rerun.replace("windows", "")
        assert "stream done: 120 events in 3 windows" in rerun
        assert "cache 0 hit(s) / 0 miss(es)" in rerun

    def test_missing_schema_is_one_error_for_both_callers(
            self, tiny_dataset, tmp_path, capsys):
        detector = make_baseline("Radar", seed=0).fit(tiny_dataset.graph)
        model = save_checkpoint(tmp_path / "radar.npz", detector,
                                graph=tiny_dataset.graph)
        events_path = tmp_path / "events.jsonl"
        write_events(events_path, bootstrap_events(tiny_dataset.graph))
        code = cli_main(["stream", "--events", str(events_path),
                         "--model", str(model),
                         "--wal-dir", str(tmp_path / "wal")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "records no relation schema" in err

        gateway = Gateway(DetectorService(model))
        try:
            with pytest.raises(GatewayError,
                               match="records no relation schema") as excinfo:
                gateway.ingest_events({"events": [
                    {"op": "add_edge", "rel": "a", "u": 0, "v": 1}]})
            assert excinfo.value.status == 409
        finally:
            gateway.close()

    def test_stream_missing_events_file_is_one_line_error(
            self, checkpoint, capsys):
        code = cli_main(["stream", "--events", "/no/such/file.jsonl",
                         "--model", str(checkpoint)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
