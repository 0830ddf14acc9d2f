"""Observability subsystem (repro.obs): tracing, histograms, promlint.

Covers the PR-6 contracts end to end:

* span nesting / attributes / cross-thread adoption, the no-op fast path
  (including the **zero-allocation** guarantee when nothing is traced),
  and the ``TraceStore`` ring;
* trace propagation across micro-batcher coalescing — the batch span
  lands in the *leader* request's trace, followers link to it;
* Prometheus histogram semantics (inclusive ``le``, cumulative buckets,
  ``+Inf``) and the renderer conventions (``_total`` suffix,
  non-scientific floats), linted by the pure-python exposition validator
  which is itself tested against known-bad payloads;
* traced scoring is bitwise-identical to untraced scoring;
* the HTTP surface: ``X-Repro-Trace-Id`` round-trip, ``GET /v1/traces``
  span trees, and a lint of the live ``/metrics`` payload.
"""

import io
import json
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

import repro.obs.trace as trace_mod
from repro.core import UMGAD, UMGADConfig
from repro.detection import BaseDetector
from repro.graphs import graph_fingerprint, random_multiplex
from repro.obs import (
    BATCH_SIZE_BOUNDS,
    DURATION_BOUNDS,
    Histogram,
    NOOP_SPAN,
    Trace,
    TraceStore,
    aggregate_spans,
    annotate,
    assert_valid_exposition,
    configure,
    current_span,
    current_trace,
    get_logger,
    log_spaced_bounds,
    parse_families,
    render_profile,
    render_trace_tree,
    sanitize_trace_id,
    set_tracing,
    span,
    start_trace,
    tracing_enabled,
    use_span,
    validate_exposition,
)
from repro.obs.metrics import counter, family, gauge, histogram, render
from repro.serve import DetectorService
from repro.server import (
    Gateway,
    MicroBatcher,
    ServerClient,
    ServerClientError,
    ServerThread,
)


class StubDetector(BaseDetector):
    """Deterministic per-graph scores, optionally slowed down."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def score_graph(self, graph):
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        rng = np.random.default_rng(graph.num_nodes)
        return rng.random(graph.num_nodes)


@pytest.fixture
def small_graph(rng):
    return random_multiplex(24, 2, 4, rng, avg_degree=3.0)


# ---------------------------------------------------------------------------
# Spans, traces, the no-op fast path
# ---------------------------------------------------------------------------
class TestTracing:
    def test_span_nesting_attributes_and_snapshot(self):
        store = TraceStore(4)
        with start_trace("op", trace_id="fixed-id", store=store) as trace:
            assert trace.trace_id == "fixed-id"
            assert current_trace() is trace
            with span("outer") as outer:
                outer.set("k", "v").set("n", 2)
                with span("inner"):
                    annotate("deep", True)
        payload = store.get("fixed-id")
        assert payload is not None
        assert payload["duration_ms"] is not None
        by_name = {s["name"]: s for s in payload["spans"]}
        assert set(by_name) == {"op", "outer", "inner"}
        root, outer, inner = by_name["op"], by_name["outer"], by_name["inner"]
        assert root["parent_id"] is None
        assert outer["parent_id"] == root["span_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["attributes"] == {"k": "v", "n": 2}
        assert inner["attributes"] == {"deep": True}
        # children cannot outlast the root
        for child in (outer, inner):
            assert child["wall_ms"] <= payload["duration_ms"] + 1e-6

    def test_trace_published_even_on_exception(self):
        store = TraceStore(4)
        with pytest.raises(RuntimeError):
            with start_trace("boom", store=store):
                with span("failing"):
                    raise RuntimeError("nope")
        (payload,) = store.last()
        by_name = {s["name"]: s for s in payload["spans"]}
        assert by_name["failing"]["attributes"]["error"] == "RuntimeError"
        assert by_name["boom"]["attributes"]["error"] == "RuntimeError"

    def test_max_spans_counts_dropped(self):
        with start_trace("tight", max_spans=3) as trace:
            for _ in range(10):
                with span("s"):
                    pass
        payload = trace.to_dict()
        # 3 retained (the cap), the rest counted; the root itself was
        # dropped too, having finished after the cap filled.
        assert len(payload["spans"]) == 3
        assert payload["dropped"] == 8

    def test_untraced_span_is_the_shared_noop(self):
        assert current_span() is None
        assert span("a") is NOOP_SPAN
        assert span("b") is NOOP_SPAN
        with span("c") as noop:
            assert noop is NOOP_SPAN
            assert noop.set("k", 1) is NOOP_SPAN
            assert not noop.recording
        annotate("ignored", 1)     # must not raise
        assert current_trace() is None

    def test_untraced_span_allocates_nothing(self):
        """The disabled fast path: no object creation at all."""
        assert current_span() is None
        with span("warmup") as noop:    # warm any lazy interning
            noop.set("k", 0)
        tracemalloc.start(10)
        before = tracemalloc.take_snapshot()
        for _ in range(500):
            with span("hot") as sp_:
                sp_.set("key", 1)
            annotate("also", 2)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        filters = [tracemalloc.Filter(True, trace_mod.__file__)]
        diff = after.filter_traces(filters).compare_to(
            before.filter_traces(filters), "lineno")
        grown = [stat for stat in diff if stat.size_diff > 0]
        assert not grown, [str(stat) for stat in grown]

    def test_disabled_tracing_yields_none(self):
        assert tracing_enabled()
        set_tracing(False)
        try:
            store = TraceStore(4)
            with start_trace("off", store=store) as trace:
                assert trace is None
                assert span("inside") is NOOP_SPAN
            assert len(store) == 0
        finally:
            set_tracing(True)

    def test_sanitize_trace_id(self):
        assert sanitize_trace_id("abc-123_ok.id") == "abc-123_ok.id"
        assert sanitize_trace_id("  padded  ") == "padded"
        assert sanitize_trace_id(None) is None
        assert sanitize_trace_id("") is None
        assert sanitize_trace_id("has spaces") is None
        assert sanitize_trace_id("new\nline") is None
        assert sanitize_trace_id("x" * 65) is None

    def test_trace_store_is_a_ring(self):
        store = TraceStore(2)
        for name in ("a", "b", "c"):
            with start_trace(name, trace_id=f"id-{name}", store=store):
                pass
        assert len(store) == 2
        assert [t["trace_id"] for t in store.last()] == ["id-c", "id-b"]
        assert [t["trace_id"] for t in store.last(1)] == ["id-c"]
        assert store.get("id-a") is None          # evicted
        assert store.get("id-b")["name"] == "b"
        with pytest.raises(ValueError):
            TraceStore(0)

    def test_use_span_adopts_across_threads(self):
        seen = {}

        def worker(parent):
            # a fresh thread has no ambient span of its own
            assert current_span() is None
            with use_span(parent), span("work") as sp_:
                seen["trace_id"] = sp_.trace_id
                seen["parent_id"] = sp_.parent_id

        with start_trace("cross") as trace:
            parent = current_span()
            thread = threading.Thread(target=worker, args=(parent,))
            thread.start()
            thread.join()
        names = {s["name"] for s in trace.to_dict()["spans"]}
        assert "work" in names
        assert seen["trace_id"] == trace.trace_id
        assert seen["parent_id"] == parent.span_id

    def test_use_span_with_none_is_a_noop(self):
        with use_span(None):
            assert current_span() is None
        with use_span(NOOP_SPAN):
            assert current_span() is None


# ---------------------------------------------------------------------------
# Trace propagation across micro-batcher coalescing
# ---------------------------------------------------------------------------
class TestBatcherPropagation:
    def test_batch_span_lands_in_leader_trace_follower_links(self,
                                                             small_graph):
        detector = StubDetector(delay=0.02)
        service = DetectorService(detector)
        batcher = MicroBatcher(service, workers=1, linger_ms=250.0)
        fingerprint = graph_fingerprint(small_graph)
        store = TraceStore(8)
        leader_done = {}

        def leader():
            with start_trace("leader", trace_id="lead-1",
                             store=store) as trace:
                future = batcher.submit(small_graph, fingerprint)
                leader_done["scores"] = future.result(timeout=20.0)
            leader_done["trace"] = trace.to_dict()

        thread = threading.Thread(target=leader)
        try:
            thread.start()
            time.sleep(0.05)       # inside the 250 ms linger window
            with start_trace("follower", trace_id="follow-1",
                             store=store) as follower:
                future = batcher.submit(small_graph, fingerprint)
                scores = future.result(timeout=20.0)
            thread.join(timeout=20.0)
        finally:
            batcher.close()

        assert detector.calls == 1                 # one pass for both
        assert np.array_equal(scores, leader_done["scores"])

        leader_payload = leader_done["trace"]
        by_name = {s["name"]: s for s in leader_payload["spans"]}
        batch = by_name["batcher.batch"]
        assert batch["attributes"]["batch_size"] == 2
        assert batch["attributes"]["coalesced"] == 1
        assert "service.scores" in by_name         # nested scoring span
        assert by_name["service.scores"]["attributes"]["cache"] == "miss"
        # the batch span hangs off the leader's root span
        assert batch["parent_id"] == by_name["leader"]["span_id"]

        follower_payload = follower.to_dict()
        assert {s["name"] for s in follower_payload["spans"]} == {"follower"}
        (link,) = follower_payload["links"]
        assert link["kind"] == "coalesced_into"
        assert link["trace_id"] == "lead-1"
        assert link["span_id"] == by_name["leader"]["span_id"]

        # future metadata mirrors the span attributes
        assert len(store) == 2

    def test_untraced_submissions_stay_untraced(self, small_graph):
        service = DetectorService(StubDetector())
        batcher = MicroBatcher(service, workers=1, linger_ms=0.0)
        try:
            future = batcher.submit(small_graph)
            scores = future.result(timeout=20.0)
            assert scores.shape == (small_graph.num_nodes,)
            assert future.obs_batch["batch_size"] == 1
        finally:
            batcher.close()


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------
class TestHistogram:
    def test_log_spaced_bounds(self):
        bounds = log_spaced_bounds(0.001, 1.0)
        assert bounds[0] == 0.001 and bounds[-1] == 1.0
        assert 0.025 in bounds and 0.5 in bounds
        assert list(bounds) == sorted(bounds)
        with pytest.raises(ValueError):
            log_spaced_bounds(1.0, 0.5)
        with pytest.raises(ValueError):
            log_spaced_bounds(0.0, 1.0)

    def test_default_bounds_cover_the_service_range(self):
        assert DURATION_BOUNDS[0] == 0.0005
        assert DURATION_BOUNDS[-1] == 25.0     # last 1/2.5/5 rung <= 30s
        assert BATCH_SIZE_BOUNDS == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
                                     64.0, 128.0)

    def test_observe_inclusive_le_and_cumulative_snapshot(self):
        hist = Histogram((0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 5.0):   # 0.1 lands IN le=0.1
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.bounds == (0.1, 1.0)
        assert snap.cumulative == (2, 3, 4)   # le=0.1, le=1.0, +Inf
        assert snap.count == 4
        assert snap.sum == pytest.approx(5.65)
        assert hist.count == 4

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((1.0, math.inf))


# ---------------------------------------------------------------------------
# The exposition validator (promlint) — known-good and known-bad payloads
# ---------------------------------------------------------------------------
VALID_EXPOSITION = (
    '# HELP t_requests_total Requests answered.\n'
    '# TYPE t_requests_total counter\n'
    't_requests_total{endpoint="score",status="200"} 3\n'
    '# HELP t_depth Queue depth.\n'
    '# TYPE t_depth gauge\n'
    't_depth 0.5\n'
    '# HELP t_latency_seconds Request latency.\n'
    '# TYPE t_latency_seconds histogram\n'
    't_latency_seconds_bucket{le="0.1"} 1\n'
    't_latency_seconds_bucket{le="+Inf"} 2\n'
    't_latency_seconds_sum 0.35\n'
    't_latency_seconds_count 2\n'
)


class TestPromlint:
    def test_valid_exposition_is_clean(self):
        assert validate_exposition(VALID_EXPOSITION) == []
        assert_valid_exposition(VALID_EXPOSITION)

    def test_assert_raises_with_problem_list(self):
        with pytest.raises(AssertionError, match="_total"):
            assert_valid_exposition(
                "# HELP t_hits Hits.\n# TYPE t_hits counter\nt_hits 1\n")

    @pytest.mark.parametrize("payload, needle", [
        # counter family without the _total suffix
        ("# HELP t_hits Hits.\n# TYPE t_hits counter\nt_hits 1\n",
         "_total"),
        # negative counter value
        ("# HELP t_x_total X.\n# TYPE t_x_total counter\nt_x_total -1\n",
         "non-monotonic"),
        # no trailing newline
        ("# HELP t_d D.\n# TYPE t_d gauge\nt_d 1", "newline"),
        # duplicate sample (same name + labels)
        ("# HELP t_d D.\n# TYPE t_d gauge\nt_d 1\nt_d 2\n", "duplicate"),
        # HELP/TYPE after the family's samples
        ("t_d 1\n# HELP t_d D.\n# TYPE t_d gauge\n", "after"),
        # unknown TYPE
        ("# HELP t_d D.\n# TYPE t_d sparkline\nt_d 1\n", "unknown type"),
        # missing HELP
        ("# TYPE t_d gauge\nt_d 1\n", "missing # HELP"),
        # illegal label escape
        ('# HELP t_d D.\n# TYPE t_d gauge\nt_d{k="a\\q"} 1\n',
         "invalid escape"),
        # unparseable value
        ("# HELP t_d D.\n# TYPE t_d gauge\nt_d banana\n", "unparseable"),
        # histogram without the +Inf bucket
        ('# HELP t_h H.\n# TYPE t_h histogram\n'
         't_h_bucket{le="1"} 1\nt_h_sum 1\nt_h_count 1\n', "+Inf"),
        # non-cumulative buckets
        ('# HELP t_h H.\n# TYPE t_h histogram\n'
         't_h_bucket{le="1"} 5\nt_h_bucket{le="+Inf"} 2\n'
         't_h_sum 1\nt_h_count 2\n', "cumulative"),
        # _count disagreeing with the +Inf bucket
        ('# HELP t_h H.\n# TYPE t_h histogram\n'
         't_h_bucket{le="1"} 1\nt_h_bucket{le="+Inf"} 2\n'
         't_h_sum 1\nt_h_count 9\n', "_count"),
        # bucket series missing the le label
        ('# HELP t_h H.\n# TYPE t_h histogram\n'
         't_h_bucket 1\nt_h_sum 1\nt_h_count 1\n', "le"),
    ])
    def test_broken_expositions_are_flagged(self, payload, needle):
        problems = validate_exposition(payload)
        assert problems, f"expected problems for {payload!r}"
        assert any(needle in problem for problem in problems), problems

    def test_total_suffix_check_can_be_relaxed(self):
        payload = "# HELP t_hits Hits.\n# TYPE t_hits counter\nt_hits 1\n"
        assert validate_exposition(payload,
                                   require_total_suffix=False) == []

    @pytest.mark.parametrize("name", [
        "t_latency_ms", "t_duration_milliseconds", "t_size_kb",
        "t_heap_mb", "t_age_minutes", "t_share_percent",
    ])
    def test_non_base_unit_suffixes_are_flagged(self, name):
        payload = (f"# HELP {name} X.\n# TYPE {name} gauge\n{name} 1\n")
        problems = validate_exposition(payload)
        assert any("non-base unit" in problem for problem in problems), \
            problems

    def test_base_unit_suffixes_are_clean(self):
        for name in ("t_latency_seconds", "t_heap_bytes", "t_share_ratio"):
            payload = f"# HELP {name} X.\n# TYPE {name} gauge\n{name} 1\n"
            assert validate_exposition(payload) == []

    def test_total_on_non_counter_is_flagged(self):
        payload = ("# HELP t_x_total X.\n# TYPE t_x_total gauge\n"
                   "t_x_total 1\n")
        problems = validate_exposition(payload)
        assert any("reserved for counters" in problem
                   for problem in problems), problems
        # counters stay exempt: the unit check looks before their _total
        counter = ("# HELP t_busy_seconds_total X.\n"
                   "# TYPE t_busy_seconds_total counter\n"
                   "t_busy_seconds_total 1\n")
        assert validate_exposition(counter) == []

    def test_unit_check_can_be_relaxed(self):
        payload = "# HELP t_lat_ms X.\n# TYPE t_lat_ms gauge\nt_lat_ms 1\n"
        assert any("non-base unit" in p
                   for p in validate_exposition(payload))
        assert validate_exposition(payload, check_units=False) == []

    def test_parse_families_structure(self):
        families = parse_families(VALID_EXPOSITION)
        assert set(families) == {"t_requests_total", "t_depth",
                                 "t_latency_seconds"}
        counter = families["t_requests_total"]
        assert counter["type"] == "counter"
        assert counter["help"] == "Requests answered."
        assert counter["samples"] == [{
            "name": "t_requests_total",
            "labels": {"endpoint": "score", "status": "200"},
            "value": 3.0,
        }]
        # histogram child series group under the base family name
        hist_samples = families["t_latency_seconds"]["samples"]
        assert {s["name"] for s in hist_samples} == {
            "t_latency_seconds_bucket", "t_latency_seconds_sum",
            "t_latency_seconds_count"}

    def test_parse_families_rejects_broken_text(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_families("# HELP t_d D.\n# TYPE t_d gauge\nt_d banana\n")


# ---------------------------------------------------------------------------
# The metrics renderer honours the naming/format conventions
# ---------------------------------------------------------------------------
class TestMetricsRenderer:
    def test_counter_gets_total_suffix(self):
        text = render([counter("hits", "Cache hits.", 3),
                       counter("misses_total", "Cache misses.", 1)],
                      prefix="t")
        assert "t_hits_total 3" in text
        assert "t_misses_total 1" in text
        assert "t_misses_total_total" not in text
        assert_valid_exposition(text)

    def test_small_floats_render_non_scientific(self):
        text = render([gauge("tiny", "A sub-1e-4 value.", 1e-05),
                       gauge("huge", "A past-1e16 value.", 2.5e17)],
                      prefix="t")
        assert "t_tiny 0.00001\n" in text
        huge_line = next(line for line in text.splitlines()
                         if line.startswith("t_huge "))
        assert huge_line == "t_huge 250000000000000000"
        assert_valid_exposition(text)

    def test_special_values_render_prometheus_style(self):
        text = render([gauge("up", "inf", math.inf),
                       gauge("down", "-inf", -math.inf),
                       gauge("unknown", "nan", math.nan)], prefix="t")
        assert "t_up +Inf" in text
        assert "t_down -Inf" in text
        assert "t_unknown NaN" in text
        assert_valid_exposition(text)

    def test_histogram_family_renders_cumulative_with_inf(self):
        hist = Histogram((0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = render([histogram("latency_seconds", "Latency.", hist)],
                      prefix="t")
        assert 't_latency_seconds_bucket{le="0.1"} 1' in text
        assert 't_latency_seconds_bucket{le="1.0"} 2' in text
        assert 't_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "t_latency_seconds_count 3" in text
        assert "t_latency_seconds_sum 5.55" in text
        assert_valid_exposition(text)

    def test_labelled_histogram_series(self):
        fast, slow = Histogram((0.1,)), Histogram((0.1,))
        fast.observe(0.01)
        slow.observe(3.0)
        text = render([histogram("stage_seconds", "Per-stage latency.",
                                 [({"stage": "fast"}, fast.snapshot()),
                                  ({"stage": "slow"}, slow.snapshot())])],
                      prefix="t")
        assert 't_stage_seconds_bucket{stage="fast",le="0.1"} 1' in text
        assert 't_stage_seconds_bucket{stage="slow",le="0.1"} 0' in text
        assert 't_stage_seconds_count{stage="slow"} 1' in text
        assert_valid_exposition(text)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            family("x", "summary", "no", [(None, 1)])


# ---------------------------------------------------------------------------
# Structured logging carries trace/span ids
# ---------------------------------------------------------------------------
class TestStructLog:
    def test_records_are_json_and_trace_stamped(self):
        buffer = io.StringIO()
        configure(stream=buffer, level="debug")
        try:
            logger = get_logger("repro.test")
            logger.info("outside", n=1)
            with start_trace("logged") as trace:
                with span("stage") as sp_:
                    logger.warning("inside", detail="x")
            lines = buffer.getvalue().splitlines()
            outside, inside = (json.loads(line) for line in lines)
            assert outside["event"] == "outside" and outside["n"] == 1
            assert "trace_id" not in outside
            assert inside["trace_id"] == trace.trace_id
            assert inside["span_id"] == sp_.span_id
            assert inside["level"] == "warning"
            assert inside["logger"] == "repro.test"
        finally:
            configure(stream=None)

    def test_level_filtering(self):
        buffer = io.StringIO()
        configure(stream=buffer, level="error")
        try:
            logger = get_logger("repro.test.levels")
            logger.info("dropped")
            logger.error("kept")
            lines = buffer.getvalue().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["event"] == "kept"
        finally:
            configure(stream=None)
        with pytest.raises(ValueError):
            configure(level="loud")

    def test_get_logger_is_cached(self):
        assert get_logger("same") is get_logger("same")


# ---------------------------------------------------------------------------
# Profile / trace-tree rendering
# ---------------------------------------------------------------------------
class TestProfileRendering:
    def _sample_trace(self):
        with start_trace("cli.detect") as trace:
            for _ in range(2):
                with span("train.epoch"):
                    time.sleep(0.001)
            with span("score.view") as sp_:
                sp_.set("view", "original")
        return trace

    def test_aggregate_spans_groups_by_name(self):
        rows = aggregate_spans(self._sample_trace())
        by_name = {row["name"]: row for row in rows}
        assert by_name["train.epoch"]["count"] == 2
        assert by_name["score.view"]["count"] == 1
        assert rows[0]["name"] == "cli.detect"       # longest wall first
        assert 0 < by_name["train.epoch"]["share"] <= 1.0

    def test_render_profile_table(self):
        text = render_profile(self._sample_trace())
        assert "profile: cli.detect" in text
        assert "train.epoch" in text and "score.view" in text
        assert "wall ms" in text and "share" in text

    def test_render_trace_tree_indents_and_shows_links(self):
        trace = self._sample_trace()
        trace.link("coalesced_into", "other-trace", "7")
        text = render_trace_tree(trace.to_dict())
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {trace.trace_id}")
        assert any("~ coalesced_into -> other-trace/7" in line
                   for line in lines)
        assert any(line.strip().startswith("- train.epoch")
                   for line in lines)
        assert any("view=original" in line for line in lines)
        # children indent one level deeper than the root span
        root_indent = next(line for line in lines
                           if "- cli.detect" in line).index("-")
        child_indent = next(line for line in lines
                            if "- score.view" in line).index("-")
        assert child_indent == root_indent + 2

    def test_renderers_accept_empty_traces(self):
        trace = Trace("empty")
        assert "(no spans recorded)" in render_profile(trace)
        assert render_trace_tree(trace).startswith("trace ")


# ---------------------------------------------------------------------------
# Tracing must not perturb scores
# ---------------------------------------------------------------------------
def test_traced_scores_bitwise_identical(rng):
    graph = random_multiplex(40, 2, 8, rng, avg_degree=3.0)
    model = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(graph)
    fresh = random_multiplex(36, 2, 8, rng, avg_degree=3.0)

    untraced = model.score_graph(fresh)
    with start_trace("parity") as trace:
        traced = model.score_graph(fresh)
    assert np.array_equal(untraced, traced)

    names = {s["name"] for s in trace.to_dict()["spans"]}
    # at least four distinct pipeline stages were traced along the way
    expected = {"score.view", "score.aggregate", "score.structure",
                "score.attributes"}
    assert expected <= names, names


# ---------------------------------------------------------------------------
# HTTP surface: header round-trip, /v1/traces, /metrics lint
# ---------------------------------------------------------------------------
@pytest.fixture
def obs_server():
    gateway = Gateway(DetectorService(StubDetector()), linger_ms=1.0,
                      trace_capacity=16)
    with ServerThread(gateway) as server:
        client = ServerClient(port=server.port)
        yield gateway, client
        client.close()


class TestHTTPObservability:
    def test_trace_header_round_trip_and_span_tree(self, obs_server,
                                                   small_graph):
        _gateway, client = obs_server
        response = client.score(small_graph, trace_id="obs-rt-0001")
        assert client.last_trace_id == "obs-rt-0001"
        assert client.last_headers.get("X-Repro-Trace-Id") == "obs-rt-0001"
        assert response["fingerprint"] == graph_fingerprint(small_graph)

        payload = client.traces(trace_id="obs-rt-0001")
        (trace,) = payload["traces"]
        assert trace["trace_id"] == "obs-rt-0001"
        assert trace["name"] == "http.score"
        by_name = {s["name"]: s for s in trace["spans"]}
        # the request trace holds the nested pipeline stages
        for stage in ("http.score", "batcher.wait", "batcher.batch",
                      "service.scores"):
            assert stage in by_name, sorted(by_name)
        root = by_name["http.score"]
        assert root["parent_id"] is None
        assert root["attributes"]["endpoint"] == "score"
        assert root["attributes"]["status"] == 200
        assert root["attributes"]["batch_size"] >= 1
        for span_dict in trace["spans"]:
            assert span_dict["wall_ms"] <= trace["duration_ms"] + 1e-6

    def test_server_mints_ids_and_rejects_hostile_ones(self, obs_server,
                                                       small_graph):
        _gateway, client = obs_server
        client.score(small_graph)
        minted = client.last_trace_id
        assert minted and len(minted) == 16
        # spaces survive http.client but fail sanitization server-side,
        # so the gateway mints a fresh id instead of echoing the input
        client.score(small_graph, trace_id="bad id with spaces")
        assert client.last_trace_id is not None
        assert client.last_trace_id != "bad id with spaces"

    def test_traces_endpoint_errors(self, obs_server):
        _gateway, client = obs_server
        with pytest.raises(ServerClientError) as excinfo:
            client.traces(trace_id="never-seen")
        assert excinfo.value.status == 404
        with pytest.raises(ServerClientError) as excinfo:
            client.traces(last=0)
        assert excinfo.value.status == 400

    def test_traces_listing_newest_first(self, obs_server, small_graph):
        _gateway, client = obs_server
        client.score(small_graph, trace_id="older")
        client.score(small_graph, trace_id="newer")
        payload = client.traces(last=2)
        ids = [t["trace_id"] for t in payload["traces"]]
        assert ids[0] == "newer" and "older" in ids
        assert payload["capacity"] == 16
        assert payload["stored"] >= 2

    def test_live_metrics_pass_the_validator(self, obs_server, small_graph):
        _gateway, client = obs_server
        client.score(small_graph)
        client.health()
        text = client.metrics()
        # reading telemetry is itself untraced
        assert client.last_trace_id is None
        assert_valid_exposition(text)
        for family in ("repro_http_request_duration_seconds_bucket",
                       "repro_stage_duration_seconds_bucket",
                       "repro_batcher_queue_wait_seconds_bucket",
                       "repro_batcher_batch_size_bucket",
                       "repro_server_requests_total"):
            assert family in text, family
        assert 'stage="batcher.batch"' in text
        assert 'endpoint="score"' in text

    def test_disabled_tracing_omits_header(self, obs_server, small_graph):
        _gateway, client = obs_server
        set_tracing(False)
        try:
            client.score(small_graph)
            assert client.last_trace_id is None
        finally:
            set_tracing(True)
        # traces endpoint shows nothing new from the disabled window
        payload = client.traces()
        assert all(t["trace_id"] for t in payload["traces"])
