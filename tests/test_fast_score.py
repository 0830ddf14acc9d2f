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
* ``baselines`` — a sample of baselines.

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
from repro.graphs import random_multiplex

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
