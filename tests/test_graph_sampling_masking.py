"""Sampling and masking primitives (RWR, attribute/edge/subgraph masks)."""

import numpy as np
import pytest

from repro.graphs import (
    RelationGraph,
    attribute_mask,
    attribute_swap,
    edge_mask,
    edges_touching,
    edges_within,
    random_walk_with_restart,
    sample_edges,
    sample_nodes,
    sample_rwr_subgraphs,
    subgraph_mask,
)


@pytest.fixture
def path_graph():
    """0-1-2-...-19 path: deterministic connectivity for RWR tests."""
    edges = np.array([(i, i + 1) for i in range(19)])
    return RelationGraph(20, edges)


class TestSampling:
    def test_sample_nodes_distinct(self, rng):
        out = sample_nodes(50, 20, rng)
        assert len(np.unique(out)) == 20

    def test_sample_nodes_capped(self, rng):
        assert sample_nodes(5, 100, rng).size == 5

    def test_sample_edges_ratio(self, path_graph, rng):
        idx = sample_edges(path_graph, 0.5, rng)
        assert idx.size == round(0.5 * path_graph.num_edges)
        assert len(np.unique(idx)) == idx.size

    def test_sample_edges_zero(self, path_graph, rng):
        assert sample_edges(path_graph, 0.0, rng).size == 0

    def test_rwr_includes_start_and_connected(self, path_graph, rng):
        nodes = random_walk_with_restart(path_graph, 10, 5, rng)
        assert 10 in nodes
        assert nodes.size <= 5
        # Path graph: all visited nodes are within distance `steps` of start.
        assert np.all(np.abs(nodes - 10) <= 19)

    def test_rwr_isolated_node(self, rng):
        g = RelationGraph(5, np.array([[0, 1]]))
        nodes = random_walk_with_restart(g, 4, 3, rng)
        np.testing.assert_array_equal(nodes, [4])

    def test_rwr_subgraphs_count(self, path_graph, rng):
        subs = sample_rwr_subgraphs(path_graph, 3, 4, rng)
        assert len(subs) == 3
        for s in subs:
            assert 1 <= s.size <= 4

    def test_edges_within(self, path_graph):
        idx = edges_within(path_graph, np.array([0, 1, 2]))
        got = {tuple(e) for e in path_graph.edges[idx]}
        assert got == {(0, 1), (1, 2)}

    def test_edges_touching(self, path_graph):
        idx = edges_touching(path_graph, np.array([5]))
        got = {tuple(e) for e in path_graph.edges[idx]}
        assert got == {(4, 5), (5, 6)}

    def test_rwr_size_bound_property(self, int_examples):
        for n, size, seed in int_examples(20, (4, 30), (2, 8), (0, 9999)):
            rng = np.random.default_rng(seed)
            edges = rng.integers(0, n, size=(n * 2, 2))
            g = RelationGraph(n, edges)
            start = int(rng.integers(0, n))
            nodes = random_walk_with_restart(g, start, size, rng)
            assert nodes.size <= size or nodes.size == 1
            assert start in nodes


class TestMasking:
    def test_attribute_mask_ratio(self, rng):
        m = attribute_mask(100, 0.3, rng)
        assert m.count == 30
        assert len(np.unique(m.nodes)) == 30

    def test_attribute_mask_at_least_one(self, rng):
        assert attribute_mask(10, 0.01, rng).count == 1

    def test_edge_mask_splits_graph(self, path_graph, rng):
        em = edge_mask(path_graph, 0.4, rng)
        assert em.masked_edges.shape[0] == em.edge_idx.size
        assert em.remaining.num_edges + em.edge_idx.size == path_graph.num_edges
        # masked edges are absent from the remaining graph
        remaining = {tuple(e) for e in em.remaining.edges}
        for e in em.masked_edges:
            assert tuple(e) not in remaining

    def test_attribute_swap(self, rng):
        x = rng.normal(size=(50, 4))
        swapped, nodes = attribute_swap(x, 0.2, rng)
        assert nodes.size == 10
        changed = np.flatnonzero(np.any(swapped != x, axis=1))
        assert set(changed).issubset(set(nodes.tolist()))
        # swapped rows come from other rows of the original matrix
        for i in nodes:
            assert any(np.allclose(swapped[i], x[j]) for j in range(50) if j != i)

    def test_attribute_swap_does_not_mutate(self, rng):
        x = rng.normal(size=(20, 3))
        before = x.copy()
        attribute_swap(x, 0.3, rng)
        np.testing.assert_allclose(x, before)

    def test_subgraph_mask(self, path_graph, rng):
        sm = subgraph_mask(path_graph, 2, 4, rng)
        assert len(sm.node_sets) == 2
        assert sm.remaining.num_edges + sm.edge_idx.size == path_graph.num_edges
        # induced edges all have both endpoints in the node union
        members = set(sm.nodes.tolist())
        for u, v in sm.masked_edges:
            assert u in members and v in members

    def test_subgraph_mask_empty_graph(self, rng):
        g = RelationGraph(5, np.empty((0, 2)))
        sm = subgraph_mask(g, 2, 3, rng)
        assert sm.edge_idx.size == 0
