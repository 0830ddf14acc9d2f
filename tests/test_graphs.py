"""Graph substrate: RelationGraph, MultiplexGraph, normalisation invariants."""

import numpy as np
import pytest

from repro.autograd import get_default_dtype, set_default_dtype
from repro.graphs import (MultiplexGraph, RelationGraph, canonical_edges,
                          from_edge_dict, random_multiplex)


class TestCanonicalEdges:
    def test_dedupes_and_orients(self):
        edges = np.array([[1, 0], [0, 1], [2, 3], [3, 2], [2, 3]])
        out = canonical_edges(edges, 5)
        np.testing.assert_array_equal(out, [[0, 1], [2, 3]])

    def test_drops_self_loops(self):
        out = canonical_edges(np.array([[1, 1], [0, 2]]), 3)
        np.testing.assert_array_equal(out, [[0, 2]])

    def test_empty(self):
        assert canonical_edges(np.empty((0, 2)), 4).shape == (0, 2)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            canonical_edges(np.array([[0, 9]]), 5)

    @pytest.mark.parametrize("edges", [
        [[0, 1, 2], [3, 4, 0]],   # triples: once read as [[0,1],[0,4],[2,3]]
        [[0.7, 2.9]],             # fractional ids: once truncated to [[0,2]]
        [0, 1, 2, 3],             # flat list: once read as two edges
        [[[0, 1]], [[2, 3]]],     # 3-D
        [[True, False]],          # booleans are not node ids
    ], ids=["triples", "fractional", "flat", "3d", "bool"])
    def test_malformed_edge_arrays_are_rejected(self, edges):
        with pytest.raises(ValueError, match="relation 'buys'.*integer"):
            canonical_edges(edges, 5, name="buys")
        with pytest.raises(ValueError, match="relation 'buys'.*integer"):
            RelationGraph(5, edges, name="buys")
        with pytest.raises(ValueError, match="relation 'buys'.*integer"):
            from_edge_dict(5, {"buys": edges}, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="relation 'buys'.*integer"):
            RelationGraph(5, [[0, 1]], name="buys").add_edges(edges)

    @pytest.mark.parametrize("edges", [[], [[]], np.empty((0, 2)),
                                       np.empty(0, dtype=np.int32)])
    def test_empty_input_of_any_shape_stays_valid(self, edges):
        assert canonical_edges(edges, 4).shape == (0, 2)
        assert RelationGraph(4, edges).num_edges == 0

    def test_integer_dtypes_and_lists_are_accepted(self):
        expected = [[0, 1], [2, 3]]
        for edges in ([[1, 0], [2, 3]], np.array([[1, 0], [2, 3]], np.int32),
                      np.array([[1, 0], [2, 3]], np.uint8)):
            np.testing.assert_array_equal(canonical_edges(edges, 5),
                                          expected)

    def test_out_of_range_names_the_relation(self):
        with pytest.raises(ValueError, match="relation 'buys'.*out of range"):
            RelationGraph(5, [[0, 9]], name="buys")

    def test_property_canonical(self, int_examples):
        for n, seed in int_examples(30, (2, 40), (0, 10_000)):
            rng = np.random.default_rng(seed)
            edges = rng.integers(0, n, size=(50, 2))
            out = canonical_edges(edges, n)
            if out.size:
                assert np.all(out[:, 0] < out[:, 1])            # oriented
                keys = out[:, 0] * n + out[:, 1]
                assert len(np.unique(keys)) == len(keys)        # unique
                assert np.all(np.diff(keys) > 0)                # sorted


class TestOperatorCachesByDtype:
    """Each operator is cached per value dtype, so its dtype no longer
    depends on which caller touched the graph first."""

    @staticmethod
    def _relation():
        rng = np.random.default_rng(3)
        return RelationGraph(30, rng.integers(0, 30, size=(60, 2)))

    def test_each_dtype_gets_its_own_operators(self):
        rel = self._relation()
        narrow = rel.sym_propagator(dtype=np.float32)
        wide = rel.sym_propagator(dtype=np.float64)
        assert narrow.dtype == np.float32 and wide.dtype == np.float64
        assert rel.sym_propagator(dtype=np.float32) is narrow
        np.testing.assert_allclose(narrow.toarray(), wide.toarray(),
                                   rtol=1e-6)
        assert rel.adjacency(np.float32).dtype == np.float32
        assert rel.block_propagator(3, dtype=np.float32).dtype == np.float32
        # a float32 block is tiled from the float32 single copy
        block = rel.block_propagator(3, dtype=np.float32)
        np.testing.assert_array_equal(block.data,
                                      np.tile(narrow.data, 3))

    def test_first_caller_does_not_fix_the_dtype(self):
        rel = self._relation()
        previous = get_default_dtype()
        try:
            set_default_dtype(np.float32)
            assert rel.adjacency().dtype == np.float32
            assert rel.sym_propagator().dtype == np.float32
            set_default_dtype(np.float64)
            assert rel.adjacency().dtype == np.float64
            assert rel.sym_propagator().dtype == np.float64
        finally:
            set_default_dtype(previous)
        # two adjacencies, two propagators and the directed edge pairs
        assert rel.cache_info()["entries"] == 5

    def test_float32_build_matches_float64_structure(self):
        rel = self._relation()
        for loops in (True, False):
            narrow = rel.sym_propagator(loops, np.float32)
            wide = rel.sym_propagator(loops, np.float64)
            np.testing.assert_array_equal(narrow.indptr, wide.indptr)
            np.testing.assert_array_equal(narrow.indices, wide.indices)


class TestRelationGraph:
    def test_adjacency_symmetric(self, tiny_relation):
        adj = tiny_relation.adjacency()
        assert (adj != adj.T).nnz == 0

    def test_degrees_match_adjacency(self, tiny_relation):
        np.testing.assert_array_equal(
            tiny_relation.degrees(),
            np.asarray(tiny_relation.adjacency().sum(axis=1)).ravel())

    def test_directed_pairs_double_edges(self, tiny_relation):
        src, dst = tiny_relation.directed_pairs()
        assert len(src) == 2 * tiny_relation.num_edges

    def test_degrees_memoized(self, tiny_relation):
        first = tiny_relation.degrees()
        assert tiny_relation.degrees() is first

    def test_directed_pairs_memoized(self, tiny_relation):
        assert tiny_relation.directed_pairs()[0] is \
            tiny_relation.directed_pairs()[0]

    def test_functional_updates_do_not_share_degree_cache(self, tiny_relation):
        # remove/keep/add return fresh graphs with fresh caches — the
        # original's memoized degrees must not leak into the derived graph
        tiny_relation.degrees()
        smaller = tiny_relation.remove_edges(np.array([0]))
        np.testing.assert_array_equal(
            smaller.degrees(),
            np.asarray(smaller.adjacency().sum(axis=1)).ravel())
        assert smaller.degrees().sum() == tiny_relation.degrees().sum() - 2

    def test_propagator_normalisation(self, tiny_relation):
        prop = tiny_relation.sym_propagator()
        # Symmetric normalisation: entries in [0, 1], symmetric matrix,
        # spectral radius <= 1 (checked by power iteration).
        assert prop.max() <= 1.0 + 1e-9
        assert prop.min() >= 0.0
        assert abs(prop - prop.T).max() < 1e-12
        v = np.ones(tiny_relation.num_nodes)
        for _ in range(30):
            v = prop @ v
            v /= np.linalg.norm(v) + 1e-12
        radius = float(v @ (prop @ v))
        assert radius <= 1.0 + 1e-6

    def test_propagator_cached(self, tiny_relation):
        assert tiny_relation.sym_propagator() is tiny_relation.sym_propagator()

    def test_remove_edges(self, tiny_relation):
        out = tiny_relation.remove_edges(np.array([0, 1, 2]))
        assert out.num_edges == tiny_relation.num_edges - 3

    def test_keep_edges(self, tiny_relation):
        out = tiny_relation.keep_edges(np.array([0, 3]))
        assert out.num_edges == 2

    def test_add_edges_dedupes(self, tiny_relation):
        out = tiny_relation.add_edges(tiny_relation.edges[:5])
        assert out.num_edges == tiny_relation.num_edges

    def test_immutability_of_source(self, tiny_relation):
        before = tiny_relation.num_edges
        tiny_relation.remove_edges(np.arange(3))
        assert tiny_relation.num_edges == before

    def test_neighbors(self):
        g = RelationGraph(4, np.array([[0, 1], [0, 2]]))
        np.testing.assert_array_equal(np.sort(g.neighbors(0)), [1, 2])
        assert g.neighbors(3).size == 0

    def test_empty_graph(self):
        g = RelationGraph(5, np.empty((0, 2)))
        assert g.num_edges == 0
        src, dst = g.directed_pairs()
        assert src.size == 0
        assert np.all(g.degrees() == 0)


class TestMultiplexGraph:
    def test_basic_properties(self, tiny_multiplex):
        assert tiny_multiplex.num_nodes == 40
        assert tiny_multiplex.num_features == 8
        assert tiny_multiplex.num_relations == 3
        assert len(tiny_multiplex.relation_names) == 3

    def test_node_count_validation(self, rng):
        rel = RelationGraph(5, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="nodes"):
            MultiplexGraph(x=rng.normal(size=(6, 4)), relations={"r": rel})

    def test_feature_ndim_validation(self, rng):
        rel = RelationGraph(5, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="2-D"):
            MultiplexGraph(x=rng.normal(size=5), relations={"r": rel})

    def test_merged_is_union(self, tiny_multiplex):
        merged = tiny_multiplex.merged()
        assert merged.num_edges <= tiny_multiplex.total_edges()
        # every relation edge must exist in the merged adjacency
        adj = merged.adjacency()
        for _, rel in tiny_multiplex:
            for u, v in rel.edges[:10]:
                assert adj[u, v] == 1

    def test_merged_cached(self, tiny_multiplex):
        assert tiny_multiplex.merged() is tiny_multiplex.merged()

    def test_with_features(self, tiny_multiplex, rng):
        new_x = rng.normal(size=(40, 8))
        out = tiny_multiplex.with_features(new_x)
        assert out is not tiny_multiplex
        np.testing.assert_allclose(out.x, new_x)
        assert out.relations == tiny_multiplex.relations

    def test_with_features_validates_rows(self, tiny_multiplex, rng):
        with pytest.raises(ValueError, match="rows"):
            tiny_multiplex.with_features(rng.normal(size=(10, 8)))

    def test_stats_keys(self, tiny_multiplex):
        stats = tiny_multiplex.stats()
        assert stats["nodes"] == 40
        assert any(k.startswith("edges[") for k in stats)

    def test_getitem(self, tiny_multiplex):
        name = tiny_multiplex.relation_names[0]
        assert tiny_multiplex[name].name == name

    def test_random_multiplex_shapes(self, rng):
        g = random_multiplex(25, 2, 6, rng)
        assert g.num_nodes == 25 and g.num_relations == 2 and g.num_features == 6
