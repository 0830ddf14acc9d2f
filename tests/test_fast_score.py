"""Score parity of the grad-free scoring engine against recorded scores.

``tests/fixtures/score_parity.json`` is the scoring oracle. It pins
``decision_scores`` recorded by the sequential tape-recording (legacy)
path that scoring used before the grad-free engine, each entry recorded
while asserting that the engine agreed with that path bit for bit:

* ``umgad`` — every Fig. 6 mode plus the w/o-M ablation on the dataset
  spec, in ``auto`` structure mode (exact at this size);
* ``umgad_sampled`` — the Full/Str/Sub modes on the same dataset with the
  sampled structure kernel, the estimator the large-graph path runs;
* ``umgad_random`` — a 3-relation, 2-layer-encoder random multiplex in
  sampled mode, and a float32 run;
* ``baselines`` — a sample of baselines;
* ``score_graph`` — ``UMGAD.score_graph`` of graphs the model was not fit
  on, at both precisions of the inference pass. The ``float64`` entries
  were recorded from ``score_graph`` as it stood before the pass took a
  ``dtype`` (it then always ran at the weights' float64), the
  ``float32`` entries from the float32 default.

So matching the fixture is the engine's parity contract with the seed
behaviour; there is no second scoring path to compare against.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.core import UMGAD, UMGADConfig
from repro.core.config import ablation_config
from repro.datasets import load_dataset
from repro.graphs import MultiplexGraph, RelationGraph, random_multiplex

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "score_parity.json"


@pytest.fixture(scope="module")
def parity():
    return json.loads(FIXTURES.read_text())


@pytest.fixture(scope="module")
def parity_dataset(parity):
    spec = parity["dataset"]
    return load_dataset(spec["name"], scale=spec["scale"],
                        num_features=spec["num_features"], seed=spec["seed"])


def _variant_config(name: str, **overrides) -> UMGADConfig:
    base = UMGADConfig(epochs=6, seed=0, **overrides)
    if name == "full":
        return base
    if name == "wo_mask":
        return ablation_config(base, "w/o M")
    return base.variant(mode=name)


class TestUMGADParity:
    @pytest.mark.parametrize("variant", ["full", "att", "str", "sub",
                                         "wo_mask"])
    def test_fast_equals_legacy_and_fixture(self, variant, parity,
                                            parity_dataset):
        scores = UMGAD(_variant_config(variant)).fit(
            parity_dataset.graph).decision_scores()
        pinned = parity["umgad"][variant]
        assert scores.tolist() == pytest.approx(pinned, rel=1e-12)

    @pytest.mark.parametrize("variant", ["full", "str", "sub"])
    def test_sampled_mode_matches_fixture(self, variant, parity,
                                          parity_dataset):
        cfg = _variant_config(variant, structure_score_mode="sampled")
        scores = UMGAD(cfg).fit(parity_dataset.graph).decision_scores()
        pinned = parity["umgad_sampled"][variant]
        assert scores.tolist() == pytest.approx(pinned, rel=1e-12)
        # the sampled estimator really ran: it differs from the exact pins
        assert not np.allclose(scores, parity["umgad"][variant])

    def test_score_graph_deterministic_and_matches_fit(self, parity_dataset):
        graph = parity_dataset.graph
        model = UMGAD(UMGADConfig(epochs=4, seed=0)).fit(graph)
        first = model.score_graph(graph)
        second = model.score_graph(graph)
        assert np.array_equal(first, second)
        # the same content in new objects starts from cold operator
        # caches: a cold pass is bitwise the warm one
        cold = MultiplexGraph(x=graph.x.copy(), relations={
            name: RelationGraph(graph.num_nodes, graph[name].edges.copy(),
                                name=name)
            for name in graph.relation_names})
        assert np.array_equal(model.score_graph(cold), first)

    def test_fast_equals_legacy_on_random_multiplex(self, parity):
        rng = np.random.default_rng(9)
        graph = random_multiplex(70, 3, 8, rng, avg_degree=4.0)
        cfg = UMGADConfig(epochs=3, seed=1, encoder_layers=2,
                          structure_score_mode="sampled")
        scores = UMGAD(cfg).fit(graph).decision_scores()
        pinned = parity["umgad_random"]["sampled_multiplex"]
        assert scores.tolist() == pytest.approx(pinned, rel=1e-12)

    def test_float32_parity(self, parity):
        from repro.autograd import get_default_dtype, set_default_dtype

        previous = get_default_dtype()
        try:
            set_default_dtype(np.float32)
            rng = np.random.default_rng(10)
            graph = random_multiplex(40, 2, 6, rng, avg_degree=3.0)
            scores = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(
                graph).decision_scores()
        finally:
            set_default_dtype(previous)
        # float32 rounding inside BLAS varies across CPUs far more than
        # float64's, so the pin is checked at float32 resolution
        pinned = parity["umgad_random"]["float32"]
        assert scores.tolist() == pytest.approx(pinned, rel=1e-5, abs=1e-6)


class TestBaselineParity:
    @pytest.mark.parametrize("method", ["DOMINANT", "CoLA"])
    def test_scores_match_fixture(self, method, parity, parity_dataset):
        det = make_baseline(method, seed=0, epochs=6).fit(parity_dataset.graph)
        pinned = parity["baselines"][method]
        assert det.decision_scores().tolist() == pytest.approx(pinned,
                                                               rel=1e-12)


class TestServingParity:
    def test_service_scores_identical_both_paths(self, parity_dataset,
                                                 tmp_path):
        """The served scores of a graph other than the training graph are
        bitwise the in-process ``score_graph`` of the same checkpoint."""
        from repro.serve import DetectorService

        graph = parity_dataset.graph
        model = UMGAD(UMGADConfig(epochs=3, seed=0)).fit(graph)
        path = model.save(tmp_path / "model.npz", graph=graph)

        fresh = random_multiplex(graph.num_nodes, graph.num_relations,
                                 graph.num_features,
                                 np.random.default_rng(77), avg_degree=3.0)

        served = DetectorService(path).scores(fresh).copy()
        assert np.array_equal(served, model.score_graph(fresh))


@pytest.fixture(scope="module")
def score_graph_cases(parity, parity_dataset):
    """``name -> (model, unseen graph)`` behind the ``score_graph`` pins."""
    graph = parity_dataset.graph
    fresh = random_multiplex(graph.num_nodes, graph.num_relations,
                             graph.num_features, np.random.default_rng(77),
                             avg_degree=3.0)
    cases = {
        "exact": (UMGAD(UMGADConfig(epochs=3, seed=0)).fit(graph), fresh),
        "sampled": (UMGAD(UMGADConfig(
            epochs=3, seed=0, structure_score_mode="sampled")).fit(graph),
            fresh),
    }
    train = random_multiplex(70, 3, 8, np.random.default_rng(9),
                             avg_degree=4.0)
    cfg = UMGADConfig(epochs=3, seed=1, encoder_layers=2,
                      structure_score_mode="sampled")
    cases["two_layer"] = (UMGAD(cfg).fit(train), random_multiplex(
        70, 3, 8, np.random.default_rng(78), avg_degree=4.0))
    assert set(cases) == set(parity["score_graph"]["float64"])
    return cases


def _top(scores, k):
    return np.argsort(-scores, kind="stable")[:k]


class TestScoreGraphPrecision:
    """The inference pass's precision contract: float64 reproduces the
    pre-``dtype`` pass, float32 (the default) agrees with it to 1e-6 and
    ranks the top nodes identically."""

    #: ranks compared between the precisions; every pinned case's top-11
    #: scores are ≥ 1.9e-5 apart, far beyond float32 rounding
    TOP_K = 10

    @pytest.mark.parametrize("case", ["exact", "sampled", "two_layer"])
    def test_float64_pass_matches_pin(self, case, parity, score_graph_cases):
        model, graph = score_graph_cases[case]
        scores = model.score_graph(graph, dtype=np.float64)
        pinned = parity["score_graph"]["float64"][case]
        assert scores.tolist() == pytest.approx(pinned, rel=1e-12)

    @pytest.mark.parametrize("case", ["exact", "sampled", "two_layer"])
    def test_float32_default_matches_pin(self, case, parity,
                                         score_graph_cases):
        model, graph = score_graph_cases[case]
        scores = model.score_graph(graph)
        assert scores.dtype == np.float64
        # float32 BLAS rounding varies across CPUs: float32 resolution
        pinned = parity["score_graph"]["float32"][case]
        assert scores.tolist() == pytest.approx(pinned, rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize("case", ["exact", "sampled", "two_layer"])
    def test_float32_ranks_like_float64(self, case, score_graph_cases):
        model, graph = score_graph_cases[case]
        narrow = model.score_graph(graph)
        wide = model.score_graph(graph, dtype=np.float64)
        assert not np.array_equal(narrow, wide)   # really ran in float32
        assert np.abs(narrow - wide).max() <= 1e-6
        assert np.array_equal(_top(narrow, self.TOP_K),
                              _top(wide, self.TOP_K))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pass_arrays_stay_in_dtype(self, dtype, monkeypatch,
                                       score_graph_cases):
        """No upcast: every reconstruction the error terms see, and every
        operator the pass builds, is in the pass dtype."""
        import repro.core.model as model_mod

        seen = set()
        for name in ("attribute_errors", "structure_errors_from"):
            real = getattr(model_mod, name)

            def spy(first, *args, _real=real, **kwargs):
                seen.add(first.dtype)
                return _real(first, *args, **kwargs)

            monkeypatch.setattr(model_mod, name, spy)
        model, _ = score_graph_cases["two_layer"]
        fresh = random_multiplex(70, 3, 8, np.random.default_rng(78),
                                 avg_degree=4.0)
        model.score_graph(fresh, dtype=dtype)
        assert seen == {np.dtype(dtype)}
        for _, rel in fresh:
            assert {m.dtype for m in rel._sym_prop.values()} == {
                np.dtype(dtype)}


class TestScoreGraphIgnoresGlobalDtype:
    """The pass takes its precision from ``dtype`` alone: it never reads
    (or sets) the autograd default dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_under_either_global(self, dtype):
        from repro.autograd import get_default_dtype, set_default_dtype

        rng = np.random.default_rng(12)
        model = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(
            random_multiplex(50, 2, 6, rng, avg_degree=3.0))
        base = random_multiplex(50, 2, 6, rng, avg_degree=3.0)
        assert base.x.dtype == np.float64
        results = []
        previous = get_default_dtype()
        try:
            for global_dtype in (np.float32, np.float64):
                set_default_dtype(global_dtype)
                # the same float64 graph with empty operator caches, so
                # every operator is built under this global
                graph = MultiplexGraph(x=base.x, relations={
                    name: RelationGraph(rel.num_nodes, rel.edges, name=name,
                                        validated=True)
                    for name, rel in base})
                graph.x = base.x   # undo the constructor's coercion
                results.append(model.score_graph(graph, dtype=dtype))
                assert get_default_dtype() == global_dtype
        finally:
            set_default_dtype(previous)
        assert results[0].tobytes() == results[1].tobytes()

    def test_fit_built_float64_operators_do_not_leak_into_float32_pass(
            self):
        def graph():
            return random_multiplex(60, 2, 6, np.random.default_rng(14),
                                    avg_degree=3.0)

        trained = graph()
        model = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(trained)
        assert all(rel.cache_info()["entries"] for _, rel in trained)
        # the fitted graph, float64 operators cached, against an identical
        # graph whose caches are empty
        scores = model.score_graph(trained)
        assert scores.tobytes() == model.score_graph(graph()).tobytes()
        assert not np.array_equal(scores,
                                  model.score_graph(trained,
                                                    dtype=np.float64))
        for _, rel in trained:
            assert rel.sym_propagator(dtype=np.float32).dtype == np.float32
            assert rel.sym_propagator(dtype=np.float64).dtype == np.float64


class TestInferenceNetworks:
    def test_weight_changes_reach_the_cast_copy(self):
        rng = np.random.default_rng(15)
        graph = random_multiplex(40, 2, 6, rng, avg_degree=3.0)
        other = random_multiplex(40, 2, 6, rng, avg_degree=3.0)
        first = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(graph)
        second = UMGAD(UMGADConfig(epochs=2, seed=1)).fit(graph)
        before = first.score_graph(other, seed=5)
        first.load_state_dict(second.state_dict())
        after = first.score_graph(other, seed=5)
        assert np.array_equal(after, second.score_graph(other, seed=5))
        assert not np.array_equal(before, after)
        first.fit(graph)   # same seed: back to the original weights
        assert np.array_equal(first.score_graph(other, seed=5), before)

    def test_cast_copy_leaves_live_networks_alone(self):
        rng = np.random.default_rng(16)
        graph = random_multiplex(40, 2, 6, rng, avg_degree=3.0)
        model = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(graph)
        state = model.state_dict()
        model.score_graph(graph)
        assert model.networks.training
        assert all(value.dtype == np.float64
                   for value in model.state_dict().values())
        assert all(np.array_equal(state[name], value)
                   for name, value in model.state_dict().items())



def _same_value(a, b) -> bool:
    """Deep equality of the values the lazy caches hand out."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_value, a, b))
    if hasattr(a, "__dataclass_fields__"):
        return all(_same_value(getattr(a, f), getattr(b, f))
                   for f in a.__dataclass_fields__)
    if hasattr(a, "nnz"):
        return a.dtype == b.dtype and (a != b).nnz == 0
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


class TestConcurrentCacheFills:
    #: every lazy fill of a relation's operator caches, by name
    FILLS = {
        "directed_pairs": lambda rel: rel.directed_pairs(),
        "degrees": lambda rel: rel.degrees(),
        "adjacency": lambda rel: rel.adjacency(np.float32),
        "sym_propagator": lambda rel: rel.sym_propagator(dtype=np.float32),
        "block_propagator": lambda rel: rel.block_propagator(
            3, dtype=np.float32),
        "gat_scatter1": lambda rel: rel.gat_scatter(1),
        "gat_scatter3": lambda rel: rel.gat_scatter(3),
    }

    def test_racing_threads_fill_each_cache_consistently(self):
        """The inference pass's lazy caches — the cast weight copy and the
        graph's per-dtype operators — fill without a lock: racing threads
        may build twice, but every caller gets an equal value, and the
        model hands all of them one weight copy. Each fill races on its
        own empty relation, so no fill is pre-built by another."""
        import sys
        import threading

        rng = np.random.default_rng(17)
        model = UMGAD(UMGADConfig(epochs=2, seed=0)).fit(
            random_multiplex(60, 2, 6, rng, avg_degree=3.0))
        model.load_state_dict(model.state_dict())   # empty the cast cache
        base = random_multiplex(60, 2, 6, rng, avg_degree=3.0)["rel0"]

        def fresh():
            return RelationGraph(base.num_nodes, base.edges, name="rel0",
                                 validated=True)

        rels = {name: fresh() for name in self.FILLS}
        nets, errors = [], []
        seen = {name: [] for name in self.FILLS}
        barrier = threading.Barrier(8)

        def work():
            try:
                barrier.wait(timeout=30)
                nets.append(model._inference_networks(np.float32))
                for name, fill in self.FILLS.items():
                    barrier.wait(timeout=30)
                    seen[name].append(fill(rels[name]))
            except Exception as exc:   # surfaced by the assert below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len({id(n) for n in nets}) == 1
        assert nets[0] is model._inference_networks(np.float32)
        for name, fill in self.FILLS.items():
            reference = fill(fresh())
            assert len(seen[name]) == 8, name
            assert all(_same_value(value, reference)
                       for value in seen[name]), name


class TestTwoLanePass:
    """The pass's structure terms run on a helper thread beside the
    attribute terms; thread interleaving must never show in the scores or
    in the trace's shape."""

    def test_deterministic_under_tight_switching(self, parity,
                                                 score_graph_cases):
        import sys

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for case, (model, graph) in score_graph_cases.items():
                for dtype, key in ((np.float64, "float64"),
                                   (np.float32, "float32")):
                    runs = [model.score_graph(graph, dtype=dtype)
                            for _ in range(3)]
                    assert all(run.tobytes() == runs[0].tobytes()
                               for run in runs), (case, key)
                    tol = ({"rel": 1e-12} if key == "float64"
                           else {"rel": 1e-5, "abs": 1e-6})
                    assert runs[0].tolist() == pytest.approx(
                        parity["score_graph"][key][case], **tol)
        finally:
            sys.setswitchinterval(previous)

    def test_helper_lane_spans_nest_under_the_pass(self, score_graph_cases):
        from repro.obs import start_trace

        model, graph = score_graph_cases["sampled"]
        with start_trace("two-lane") as trace:
            model.score_graph(graph)
        spans = trace.to_dict()["spans"]
        (view,) = [s for s in spans if s["name"] == "score.view"]
        lane = [s for s in spans
                if s["name"] in ("score.structure", "score.fused_pass")]
        # one structure term and one unmasked pass per view
        assert len(lane) == 6
        assert all(s["parent_id"] == view["span_id"] for s in lane)
        end = view["start_ms"] + view["wall_ms"]
        assert all(view["start_ms"] <= s["start_ms"]
                   and s["start_ms"] + s["wall_ms"] <= end + 1e-6
                   for s in lane)

    @pytest.mark.parametrize("variant", ["full", "att", "str", "sub",
                                         "wo_mask"])
    def test_plan_draws_in_the_view_by_view_order(self, variant):
        """Per view, its mask permutation (none under w/o M) and then one
        negative sample per relation where the view has a structure term:
        the order the view-by-view pass drew them in, which the pins hold
        only where a later draw depends on it."""
        from repro.core.scoring import draw_negatives

        graph = random_multiplex(50, 2, 6, np.random.default_rng(18),
                                 avg_degree=3.0)
        cfg = _variant_config(variant, structure_score_mode="sampled")
        model = UMGAD(cfg.variant(epochs=1)).fit(graph)
        nets = model._inference_networks(np.float64)
        rng = np.random.default_rng(5)
        views = model._plan_pass(graph, nets, rng, np.float64)
        assert len(views) == {"full": 3, "att": 2, "str": 2, "sub": 1,
                              "wo_mask": 3}[variant]
        replay = np.random.default_rng(5)
        for view in views:
            if variant == "wo_mask":
                assert view.groups is None
            else:
                assert np.array_equal(np.concatenate(view.groups),
                                      replay.permutation(50))
            for negatives in view.negatives:
                assert np.array_equal(negatives, draw_negatives(
                    replay, 50, cfg.structure_score_negatives))
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_helper_lane_failure_reaches_the_caller(self, monkeypatch,
                                                    score_graph_cases):
        import threading

        import repro.core.model as model_mod
        from repro.autograd import is_grad_enabled

        def boom(*_args):
            raise FloatingPointError("structure lane failed")

        monkeypatch.setattr(model_mod, "structure_errors_from", boom)
        model, graph = score_graph_cases["sampled"]
        with pytest.raises(FloatingPointError, match="structure lane"):
            model.score_graph(graph)
        assert is_grad_enabled()
        assert not any(t.name == "umgad-structure-lane"
                       for t in threading.enumerate())


class TestFiniteInputFiniteScores:
    """Finite attributes give finite scores in both pass dtypes: the
    residual and row-norm reductions run in float64, so a float32 pass
    neither overflows to NaN nor silently flattens a term to zero."""

    @pytest.fixture(scope="class")
    def graph(self):
        return random_multiplex(60, 2, 8, np.random.default_rng(0),
                                avg_degree=3.0)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_magnitude_sweep_raises_no_float_error(self, graph, metric,
                                                   mode):
        model = UMGAD(UMGADConfig(epochs=3, seed=0, attr_score_metric=metric,
                                  structure_score_mode=mode)).fit(graph)
        # every power of ten whose scaled attributes stay finite in float32
        for exponent in range(-30, 38):
            scaled = graph.with_features(graph.x * 10.0 ** exponent)
            for dtype in (np.float32, np.float64):
                with np.errstate(over="raise", invalid="raise"):
                    scores = model.score_graph(scaled, dtype=dtype)
                assert np.isfinite(scores).all(), (exponent, dtype)


class TestAttributesPastPassRange:
    """An attribute the float32 cast turns into ``inf`` would give every
    node a NaN score; ``score_graph`` refuses it, naming where it is."""

    def test_float32_overflow_raises_naming_row_and_column(self):
        graph = random_multiplex(60, 2, 8, np.random.default_rng(0),
                                 avg_degree=3.0)
        model = UMGAD(UMGADConfig(epochs=3, seed=0)).fit(graph)
        scaled = graph.with_features(graph.x * 1e38)
        row, col = np.argwhere(
            np.abs(scaled.x) > np.finfo(np.float32).max)[0]
        with pytest.raises(ValueError,
                           match=rf"row {row}, column {col}\b.*float32"):
            model.score_graph(scaled)
        # the float64 pass casts nothing and still scores this graph
        assert np.isfinite(model.score_graph(scaled, dtype=np.float64)).all()
