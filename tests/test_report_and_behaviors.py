"""Report driver + targeted per-mechanism behavioural tests."""

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.eval import roc_auc
from repro.experiments import ExperimentProfile, clear_dataset_cache, report
from repro.graphs import MultiplexGraph, RelationGraph
from repro.utils.rng import ensure_rng


MICRO = ExperimentProfile(
    name="micro", dataset_scale=0.12, large_scale=0.1, seeds=(0,),
    umgad_epochs=2, baseline_epochs=2, num_features=10, data_seed=5,
)


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_dataset_cache()
    yield
    clear_dataset_cache()


class TestReport:
    def test_single_section(self):
        text = report.generate(MICRO, sections=["Table I"])
        assert "# UMGAD reproduction report" in text
        assert "Table I" in text
        assert "Table II" not in text

    def test_unknown_section_key_raises(self):
        with pytest.raises(ValueError, match="dataset statistics"):
            report.generate(MICRO, sections=["dataset statistics"])

    def test_multiple_sections(self):
        text = report.generate(MICRO, sections=["Fig. 4", "Fig. 5"])
        assert "Fig. 4" in text and "Fig. 5" in text

    def test_cli_entrypoint_writes_file(self, tmp_path):
        out = tmp_path / "report.md"
        code = report.main(["--profile", "fast", "--out", str(out),
                            "--only", "Table I"])
        assert code == 0
        text = out.read_text()
        assert [line for line in text.splitlines()
                if line.startswith("## ")] == ["## Table I — dataset statistics"]


def _two_community_graph(n=120, f=12, seed=0):
    """Clean homophilous two-relation graph for behaviour probes."""
    rng = ensure_rng(seed)
    community = rng.integers(0, 2, size=n)
    centroids = rng.normal(size=(2, f)) * 2.0
    x = centroids[community] + rng.normal(0, 0.3, (n, f))

    def edges(count):
        a = rng.integers(0, n, size=count * 3)
        b = rng.integers(0, n, size=count * 3)
        keep = community[a] == community[b]
        return np.stack([a[keep][:count], b[keep][:count]], axis=1)

    relations = {"r0": RelationGraph(n, edges(300)),
                 "r1": RelationGraph(n, edges(200))}
    return MultiplexGraph(x=x, relations=relations), community, rng


class TestMechanismBehaviours:
    """Each family's core mechanism fires on its target anomaly type."""

    def test_attribute_methods_catch_feature_outliers(self):
        graph, _, rng = _two_community_graph()
        x = graph.x.copy()
        outliers = np.array([3, 40, 77, 101])
        x[outliers] = rng.normal(0, 5.0, (outliers.size, x.shape[1]))
        graph = graph.with_features(x)
        labels = np.zeros(graph.num_nodes, dtype=int)
        labels[outliers] = 1
        for name in ("GADAM", "Radar"):
            det = make_baseline(name, seed=0, epochs=10).fit(graph)
            auc = roc_auc(labels, det.decision_scores())
            assert auc > 0.8, f"{name} missed blatant feature outliers ({auc})"

    def test_structure_methods_catch_cliques(self):
        graph, _, rng = _two_community_graph()
        clique = np.array([5, 30, 60, 90, 110])
        iu, iv = np.triu_indices(clique.size, k=1)
        new_r0 = graph["r0"].add_edges(np.stack([clique[iu], clique[iv]], axis=1))
        graph = graph.with_relations({"r0": new_r0, "r1": graph["r1"]})
        labels = np.zeros(graph.num_nodes, dtype=int)
        labels[clique] = 1
        det = make_baseline("ARISE", seed=0, epochs=10).fit(graph)
        auc = roc_auc(labels, det.decision_scores())
        assert auc > 0.7, f"ARISE missed a planted clique ({auc})"

    def test_tam_truncates_heterophilous_edges(self):
        graph, community, rng = _two_community_graph()
        # a node wired across communities with mismatched features
        victim = 0
        other = np.flatnonzero(community != community[victim])[:8]
        new_r0 = graph["r0"].add_edges(
            np.stack([np.full(8, victim), other], axis=1))
        graph = graph.with_relations({"r0": new_r0, "r1": graph["r1"]})
        det = make_baseline("TAM", seed=0).fit(graph)
        scores = det.decision_scores()
        assert scores[victim] > np.median(scores)

    def test_multiview_methods_use_all_relations(self):
        graph, community, rng = _two_community_graph()
        det = make_baseline("AnomMAN", seed=0, epochs=6).fit(graph)
        assert det.decision_scores().shape == (graph.num_nodes,)
