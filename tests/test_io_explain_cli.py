"""Graph I/O, anomaly explanations, and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import AnomalyExplainer
from repro.graphs import (
    MultiplexGraph,
    RelationGraph,
    from_edge_dict,
    load_multiplex,
    random_multiplex,
    read_edge_list,
    save_multiplex,
    write_edge_list,
)


class TestGraphIO:
    def test_npz_roundtrip(self, tiny_multiplex, tmp_path):
        path = tmp_path / "graph.npz"
        labels = np.zeros(tiny_multiplex.num_nodes, dtype=np.int64)
        labels[:3] = 1
        save_multiplex(path, tiny_multiplex, labels)
        loaded, loaded_labels = load_multiplex(path)
        np.testing.assert_allclose(loaded.x, tiny_multiplex.x)
        assert loaded.relation_names == tiny_multiplex.relation_names
        for name in loaded.relation_names:
            np.testing.assert_array_equal(loaded[name].edges,
                                          tiny_multiplex[name].edges)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_npz_without_labels(self, tiny_multiplex, tmp_path):
        path = tmp_path / "graph.npz"
        save_multiplex(path, tiny_multiplex)
        _, labels = load_multiplex(path)
        assert labels is None

    def test_label_length_validation(self, tiny_multiplex, tmp_path):
        with pytest.raises(ValueError, match="labels length"):
            save_multiplex(tmp_path / "g.npz", tiny_multiplex, np.zeros(3))

    def test_load_rejects_non_archive(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ValueError, match="missing 'x'"):
            load_multiplex(path)

    @pytest.mark.parametrize("edges,row", [
        ([[2, 2], [1, 0], [0, 1], [0, 3]], 0),   # self-loop first
        ([[0, 1], [1, 0]], 1),                   # reversed pair
        ([[0, 2], [0, 1]], 1),                   # unsorted
        ([[0, 1], [0, 1]], 1),                   # duplicate
        ([[0, 1], [1, 4]], 1),                   # endpoint past num_nodes
        ([[-1, 1]], 0),                          # negative endpoint
    ], ids=["self_loop", "reversed", "unsorted", "duplicate",
            "out_of_range", "negative"])
    def test_load_rejects_non_canonical_edges(self, tmp_path, edges, row):
        path = tmp_path / "bad.npz"
        np.savez(path, x=np.zeros((4, 2)), **{
            "edges::good": np.array([[0, 1], [2, 3]]),
            "edges::bad": np.array(edges)})
        with pytest.raises(ValueError,
                           match=rf"relation 'bad': edge row {row} "):
            load_multiplex(path)

    def test_load_rejects_float_edges(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, x=np.zeros((4, 2)),
                 **{"edges::bad": np.array([[0.0, 1.5]])})
        with pytest.raises(ValueError, match="relation 'bad'.*integer"):
            load_multiplex(path)

    def test_load_accepts_canonical_and_empty_relations(self, tmp_path):
        path = tmp_path / "ok.npz"
        np.savez(path, x=np.zeros((4, 2)), **{
            "edges::r": np.array([[0, 1], [0, 3], [1, 2]], dtype=np.int32),
            "edges::empty": np.empty((0, 2), dtype=np.int64)})
        graph, _ = load_multiplex(path)
        assert graph["r"].edges.dtype == np.int64
        assert graph["r"].degrees().tolist() == [2, 2, 1, 1]
        assert graph["empty"].num_edges == 0

    def test_edge_list_roundtrip(self, tiny_relation, tmp_path):
        path = tmp_path / "edges.tsv"
        write_edge_list(path, tiny_relation)
        loaded = read_edge_list(path, tiny_relation.num_nodes, name="tiny")
        np.testing.assert_array_equal(loaded.edges, tiny_relation.edges)

    def test_edge_list_rejects_out_of_range_ids_with_line_number(
            self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# relation=bad\n0\t1\n2\t99\n")
        with pytest.raises(ValueError, match=r"edges\.tsv:3.*out of range"):
            read_edge_list(path, num_nodes=10)

    def test_edge_list_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\t2\n")
        with pytest.raises(ValueError, match=r"edges\.tsv:1.*two columns"):
            read_edge_list(path, num_nodes=10)
        path.write_text("0\tseven\n")
        with pytest.raises(ValueError, match=r"edges\.tsv:1.*non-integer"):
            read_edge_list(path, num_nodes=10)

    def test_edge_list_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# header\n\n0\t1\n\n2\t3\n")
        loaded = read_edge_list(path, num_nodes=5, name="ok")
        assert loaded.num_edges == 2

    def test_from_edge_dict(self, rng):
        graph = from_edge_dict(
            10, {"a": np.array([[0, 1], [1, 2]]), "b": np.array([[3, 4]])},
            x=rng.normal(size=(10, 4)))
        assert graph.num_relations == 2
        assert graph["a"].num_edges == 2


class TestExplainer:
    def test_requires_fitted_model(self, tiny_dataset):
        from repro.core import UMGAD, UMGADConfig

        with pytest.raises(RuntimeError, match="fit"):
            AnomalyExplainer(UMGAD(UMGADConfig()), tiny_dataset.graph)

    def test_explanation_fields(self, fitted_umgad, tiny_dataset):
        explainer = AnomalyExplainer(fitted_umgad, tiny_dataset.graph)
        explanation = explainer.explain(0)
        assert explanation.node == 0
        assert 0.0 <= explanation.score_percentile <= 100.0
        assert set(explanation.structure_errors) == set(
            tiny_dataset.graph.relation_names)
        assert len(explanation.top_deviant_features) == 5
        assert sum(explanation.relation_weights.values()) == pytest.approx(1.0)

    def test_node_bounds(self, fitted_umgad, tiny_dataset):
        explainer = AnomalyExplainer(fitted_umgad, tiny_dataset.graph)
        with pytest.raises(IndexError):
            explainer.explain(10**6)

    def test_top_anomalies_sorted(self, fitted_umgad, tiny_dataset):
        explainer = AnomalyExplainer(fitted_umgad, tiny_dataset.graph)
        top = explainer.top_anomalies(k=5)
        assert len(top) == 5
        scores = [e.score for e in top]
        assert scores == sorted(scores, reverse=True)

    def test_explanations_are_pure(self, fitted_umgad, tiny_dataset):
        # Explaining one graph must not shift the evidence reported for
        # another, and must leave the model's training generator alone.
        state = fitted_umgad._rng.bit_generator.state
        first = AnomalyExplainer(fitted_umgad, tiny_dataset.graph).explain(3)
        other = random_multiplex(30, tiny_dataset.graph.num_relations,
                                 tiny_dataset.graph.num_features,
                                 np.random.default_rng(1))
        AnomalyExplainer(fitted_umgad, other).explain(0)
        again = AnomalyExplainer(fitted_umgad, tiny_dataset.graph).explain(3)
        assert again == first
        assert fitted_umgad._rng.bit_generator.state == state

    def test_summary_is_text(self, fitted_umgad, tiny_dataset):
        explainer = AnomalyExplainer(fitted_umgad, tiny_dataset.graph)
        text = explainer.explain(1).summary()
        assert "node 1" in text and "structure[" in text


class TestCLI:
    def test_datasets_command(self, capsys):
        assert cli_main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "retail" in out and "tsocial" in out

    def test_detect_on_builtin(self, capsys):
        code = cli_main(["detect", "--dataset", "retail", "--scale", "0.12",
                         "--epochs", "3", "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold" in out and "AUC=" in out

    def test_detect_on_saved_graph_with_explain(self, tiny_multiplex,
                                                tmp_path, capsys):
        path = tmp_path / "g.npz"
        save_multiplex(path, tiny_multiplex)
        code = cli_main(["detect", "--graph", str(path), "--epochs", "2",
                         "--explain", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "relation importance" in out
        assert "structure[" in out  # explanation block present

    def test_experiment_command(self, capsys):
        code = cli_main(["experiment", "table1", "--profile", "fast"])
        assert code == 0
        assert "retail" in capsys.readouterr().out

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["experiment", "table99"])

    def test_detect_requires_source(self):
        with pytest.raises(SystemExit):
            cli_main(["detect"])
