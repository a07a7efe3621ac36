"""Unit and property tests for the CSR graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph


def edges_strategy(max_n=30, max_m=120):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=max_m)))


class TestConstruction:
    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, [])
        assert g.n_vertices == 0
        assert g.n_edges == 0
        assert g.max_degree == 0
        assert g.average_degree == 0.0

    def test_no_edges(self):
        g = CSRGraph.from_edges(5, [])
        assert g.n_vertices == 5
        assert g.n_edges == 0
        assert list(g.degrees) == [0] * 5

    def test_single_edge(self):
        g = CSRGraph.from_edges(3, [(0, 2)])
        assert g.n_edges == 1
        assert list(g.neighbors(0)) == [2]
        assert list(g.neighbors(2)) == [0]
        assert list(g.neighbors(1)) == []

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(3, [(0, 0), (1, 1), (0, 1)])
        assert g.n_edges == 1

    def test_duplicate_edges_merged(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.n_edges == 1

    def test_symmetrisation(self):
        g = CSRGraph.from_edges(4, [(2, 0)])
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges(3, [(-1, 0)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            CSRGraph.from_edges(3, np.zeros((2, 3), dtype=np.int64))

    def test_vertex_count_beyond_int32_rejected(self):
        # The row-major sort key row * n + col needs n < 2**31.
        with pytest.raises(ValueError, match="int32"):
            CSRGraph.from_edges(2 ** 31, np.zeros((0, 2), dtype=np.int64))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(-1, [])


class TestValidation:
    def test_validate_rejects_asymmetric(self):
        indptr = np.array([0, 1, 1], dtype=np.int64)
        indices = np.array([1], dtype=np.int32)
        with pytest.raises(ValueError, match="symmetric"):
            CSRGraph(indptr=indptr, indices=indices)

    def test_validate_rejects_asymmetric_with_sorted_rows(self):
        # A directed 3-cycle: every row sorted, every in-degree equal to
        # its out-degree, yet no edge has its reverse.
        indptr = np.array([0, 1, 2, 3], dtype=np.int64)
        indices = np.array([1, 2, 0], dtype=np.int32)
        with pytest.raises(ValueError, match="not symmetric"):
            CSRGraph(indptr=indptr, indices=indices)

    def test_validate_rejects_self_loop(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.int32)
        with pytest.raises(ValueError, match="self-loop"):
            CSRGraph(indptr=indptr, indices=indices)

    def test_validate_rejects_unsorted_adjacency(self):
        indptr = np.array([0, 2, 3, 4], dtype=np.int64)
        indices = np.array([2, 1, 0, 0], dtype=np.int32)
        with pytest.raises(ValueError, match="increasing"):
            CSRGraph(indptr=indptr, indices=indices)

    def test_validate_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([1, 2], dtype=np.int64),
                     indices=np.array([0], dtype=np.int32))

    def test_validate_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(indptr=np.array([0, 2, 1, 3], dtype=np.int64),
                     indices=np.array([1, 2, 0], dtype=np.int32))


class TestAccessors:
    def test_neighbors_sorted(self, random_graph):
        for v in range(0, random_graph.n_vertices, 17):
            nbrs = random_graph.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_degrees_match_indptr(self, mesh):
        assert np.array_equal(mesh.degrees, np.diff(mesh.indptr))

    def test_max_and_average_degree(self, k5):
        assert k5.max_degree == 4
        assert k5.average_degree == 4.0

    def test_has_edge(self, path10):
        assert path10.has_edge(3, 4)
        assert not path10.has_edge(3, 5)

    def test_edge_array_each_edge_once(self, grid):
        edges = grid.edge_array()
        assert len(edges) == grid.n_edges
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_n_directed_entries(self, grid):
        assert grid.n_directed_entries == 2 * grid.n_edges

    def test_identity_hash_semantics(self, grid):
        g2 = CSRGraph(indptr=grid.indptr.copy(), indices=grid.indices.copy())
        assert grid.structurally_equal(g2)
        assert grid != g2  # identity equality
        assert len({grid, g2}) == 2


class TestPermute:
    def test_permute_identity(self, mesh):
        perm = np.arange(mesh.n_vertices)
        assert mesh.permute(perm).structurally_equal(mesh)

    def test_permute_preserves_structure(self, mesh):
        rng = np.random.default_rng(0)
        perm = rng.permutation(mesh.n_vertices)
        g2 = mesh.permute(perm)
        assert g2.n_edges == mesh.n_edges
        assert sorted(g2.degrees) == sorted(mesh.degrees)
        # spot-check: edges map through the permutation
        for v in range(0, mesh.n_vertices, 61):
            assert set(perm[mesh.neighbors(v)]) == set(g2.neighbors(perm[v]))

    def test_permute_involution(self, grid):
        rng = np.random.default_rng(1)
        perm = rng.permutation(grid.n_vertices)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        assert grid.permute(perm).permute(inverse).structurally_equal(grid)

    @pytest.mark.parametrize("n, m", [(0, 0), (7, 0), (40, 25), (60, 400),
                                      (200, 3000)])
    def test_permute_matches_rebuild_from_relabelled_edges(self, n, m):
        """Oracle: relabelling the CSR equals building from relabelled
        edges.  Small ``m`` leaves isolated vertices; ``m = 0`` is
        edgeless."""
        rng = np.random.default_rng(n + m)
        for _ in range(5):
            edges = rng.integers(0, max(n, 1), size=(m, 2))
            g = CSRGraph.from_edges(n, edges)
            perm = rng.permutation(n)
            expected = CSRGraph.from_edges(n, perm[g.edge_array()])
            assert g.permute(perm).structurally_equal(expected)

    def test_permute_rejects_non_permutation(self, path10):
        with pytest.raises(ValueError, match="permutation"):
            path10.permute(np.zeros(10, dtype=np.int64))

    def test_permute_rejects_wrong_length(self, path10):
        with pytest.raises(ValueError, match="length"):
            path10.permute(np.arange(5))


class TestProperties:
    @given(edges_strategy())
    @settings(max_examples=60, deadline=None)
    def test_from_edges_invariants(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        g.validate()  # raises on violation
        assert g.n_vertices == n
        # degree sum equals directed entry count
        assert g.degrees.sum() == g.n_directed_entries

    @given(edges_strategy())
    @settings(max_examples=40, deadline=None)
    def test_edge_array_roundtrip(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        g2 = CSRGraph.from_edges(n, g.edge_array())
        assert g.structurally_equal(g2)

    @given(edges_strategy(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_permute_preserves_degrees(self, ne, seed):
        n, edges = ne
        g = CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        if g.n_vertices == 0:
            return
        perm = np.random.default_rng(seed).permutation(g.n_vertices)
        g2 = g.permute(perm)
        assert np.array_equal(np.sort(g.degrees), np.sort(g2.degrees))
        g2.validate()
