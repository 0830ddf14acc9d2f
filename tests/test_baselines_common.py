"""Shared baseline building blocks: clustering, spectra, losses, loops."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.autograd import Tensor, ops
from repro.baselines import make_baseline
from repro.baselines.common import (
    GCNStack,
    MLP,
    attribute_mse_loss,
    cosine_rows,
    kmeans,
    merged_graph,
    minmax,
    neighbor_mean,
    reconstruction_scores,
    sigmoid,
    spectral_embedding,
    structure_bce_loss,
    train_detector,
    zscore,
)
from repro.datasets import load_dataset
from repro.graphs import RelationGraph


class TestNumericHelpers:
    def test_minmax_bounds(self, rng):
        out = minmax(rng.normal(size=50))
        assert out.min() == 0.0 and out.max() == 1.0

    def test_minmax_constant(self):
        np.testing.assert_allclose(minmax(np.full(5, 3.0)), np.zeros(5))

    def test_zscore(self, rng):
        out = zscore(rng.normal(size=500))
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9

    def test_zscore_constant(self):
        np.testing.assert_allclose(zscore(np.ones(5)), np.zeros(5))

    def test_sigmoid_range(self, rng):
        out = sigmoid(rng.normal(size=100) * 100)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_cosine_rows(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[2.0, 0.0], [0.0, -1.0]])
        np.testing.assert_allclose(cosine_rows(a, b), [1.0, -1.0])


class TestGraphHelpers:
    def test_neighbor_mean(self):
        g = RelationGraph(3, np.array([[0, 1], [0, 2]]))
        x = np.array([[0.0], [2.0], [4.0]])
        out = neighbor_mean(x, g)
        np.testing.assert_allclose(out, [[3.0], [0.0], [0.0]])

    def test_merged_graph(self, tiny_multiplex):
        assert merged_graph(tiny_multiplex) is tiny_multiplex.merged()


class TestClusteringSpectra:
    def test_kmeans_separable(self, rng):
        x = np.concatenate([rng.normal(0, 0.1, (30, 2)),
                            rng.normal(5, 0.1, (30, 2))])
        assign, centroids = kmeans(x, 2, rng)
        assert centroids.shape == (2, 2)
        # first 30 and last 30 get opposite clusters
        assert len(set(assign[:30])) == 1
        assert len(set(assign[30:])) == 1
        assert assign[0] != assign[-1]

    def test_kmeans_k_capped(self, rng):
        assign, centroids = kmeans(rng.normal(size=(3, 2)), 10, rng)
        assert centroids.shape[0] == 3

    def test_spectral_embedding_shape(self, tiny_relation, rng):
        emb = spectral_embedding(tiny_relation, 4, rng)
        assert emb.shape == (30, 4)
        assert np.all(np.isfinite(emb))

    def test_comga_fit_is_pure_on_a_graph_of_many_components(self):
        """The bench-scale dgfin graph merges into 441 components, so its
        normalised adjacency's top eigenvalue has multiplicity 441: the
        embedding must not depend on which basis a solver picks."""
        graph = load_dataset("dgfin", scale=0.15, num_features=24,
                             seed=7).graph
        _, labels = connected_components(
            merged_graph(graph).adjacency(), directed=False)
        assert labels.max() + 1 > 100
        first, second = (
            make_baseline("ComGA", seed=0, epochs=2).fit(graph)
            .decision_scores() for _ in range(2))
        assert np.array_equal(first, second)


class TestLossesAndTraining:
    def test_attribute_mse_zero(self, rng):
        x = Tensor(rng.normal(size=(5, 3)))
        assert float(attribute_mse_loss(x, x).data) == 0.0

    def test_structure_bce_prefers_aligned(self, tiny_relation, rng):
        # embeddings where edge endpoints agree vs random
        x = rng.normal(size=(30, 8))
        agg = neighbor_mean(x, tiny_relation)
        aligned = Tensor(x + 3.0 * agg)
        random = Tensor(rng.normal(size=(30, 8)))
        l_a = float(structure_bce_loss(aligned, tiny_relation,
                                       np.random.default_rng(0)).data)
        l_r = float(structure_bce_loss(random, tiny_relation,
                                       np.random.default_rng(0)).data)
        assert np.isfinite(l_a) and np.isfinite(l_r)

    def test_train_model_reduces_loss(self, rng):
        net = MLP([4, 8, 4], rng)
        x = Tensor(rng.normal(size=(20, 4)))

        history = train_detector(net, lambda: attribute_mse_loss(net(x), x),
                                 epochs=40, lr=1e-2).loss_history
        assert len(history) == 40
        assert history[-1] < history[0]

    def test_gcn_stack_forward(self, tiny_relation, rng):
        stack = GCNStack([8, 16, 4], rng)
        out = stack(Tensor(rng.normal(size=(30, 8))),
                    tiny_relation.sym_propagator())
        assert out.shape == (30, 4)

    def test_reconstruction_scores_range(self, tiny_relation, rng):
        x = rng.normal(size=(30, 8))
        z = rng.normal(size=(30, 6))
        scores = reconstruction_scores(x + rng.normal(size=x.shape), x, z,
                                       tiny_relation,
                                       np.random.default_rng(0))
        assert scores.shape == (30,)
        assert np.all(scores >= 0) and np.all(scores <= 1.0 + 1e-9)
