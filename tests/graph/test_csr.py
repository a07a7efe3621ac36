"""Unit and property tests for the CSR graph substrate."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import csr
from repro.graph.csr import CSRGraph
from repro.graph.generators import tube_mesh
from repro.graph.reorder import apply_ordering


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


def _cycle_arrays(n=12):
    """CSR arrays of the cycle 0-1-...-(n-1)-0: two entries per row."""
    g = CSRGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    return g.indptr.copy(), g.indices.copy()


@pytest.mark.parametrize("block", [1, 3, 7])
class TestValidateInBlocks:
    """Each defect sits where a row block starts: row ``r`` opens the
    second block of the cycle's rows."""

    @pytest.fixture
    def cycle(self, monkeypatch, block):
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", block)
        indptr, indices = _cycle_arrays()
        r = list(csr._row_blocks(indptr))[1][0]
        assert r >= 1
        return indptr, indices, r

    def test_valid_cycle_accepted(self, cycle):
        indptr, indices, _ = cycle
        CSRGraph(indptr=indptr, indices=indices)

    def test_rejects_asymmetric_across_boundary(self, cycle):
        # Row r - 1 closes the first block.  Pointing its entry r at r + 1
        # leaves the reverse entry r -> r - 1, which opens the second
        # block, without a partner; every row stays sorted.
        indptr, indices, r = cycle
        row = indices[indptr[r - 1]:indptr[r]]
        row[row == r] = r + 1
        assert np.all(np.diff(row) > 0)
        with pytest.raises(ValueError, match="not symmetric"):
            CSRGraph(indptr=indptr, indices=indices)

    def test_rejects_self_loop_opening_a_block(self, cycle):
        indptr, indices, r = cycle
        indices[indptr[r]] = r
        with pytest.raises(ValueError, match="self-loop"):
            CSRGraph(indptr=indptr, indices=indices)

    def test_rejects_unsorted_row_opening_a_block(self, cycle):
        indptr, indices, r = cycle
        row = indices[indptr[r]:indptr[r + 1]]
        row[:] = row[::-1].copy()
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRGraph(indptr=indptr, indices=indices)

    def test_self_loop_reported_before_an_earlier_unsorted_row(self, cycle):
        indptr, indices, r = cycle
        row = indices[:indptr[1]]
        row[:] = row[::-1].copy()
        indices[indptr[r]] = r
        with pytest.raises(ValueError, match="self-loop"):
            CSRGraph(indptr=indptr, indices=indices)

    def test_rejects_indptr_decreasing_at_a_block_start(self, cycle):
        indptr, indices, r = cycle
        indptr[r] = indptr[r + 1] + 1
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(indptr=indptr, indices=indices)


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

    @pytest.mark.parametrize("perm", [[0, 1, 2, -1], [0, 1, 3, -2],
                                      [0, 1, 2, 4]])
    def test_permute_rejects_label_out_of_range(self, perm):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="perm is not a permutation"):
            g.permute(perm)

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_permute_in_small_blocks_matches_rebuild(self, monkeypatch,
                                                     block):
        """Rows that span several budgets, empty rows and blocks ending
        mid-graph relabel as building from relabelled edges does."""
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", block)
        rng = np.random.default_rng(block)
        mesh = tube_mesh(300, 30, 6, hubs=2, hub_degree=12, seed=3)
        cases = [mesh] + [CSRGraph.from_edges(n, rng.integers(0, n, (m, 2)))
                          for n, m in ((1, 0), (7, 0), (40, 25), (60, 400))]
        for g in cases:
            perm = rng.permutation(g.n_vertices)
            expected = CSRGraph.from_edges(g.n_vertices, perm[g.edge_array()])
            assert g.permute(perm).structurally_equal(expected)

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


class TestPeakMemory:
    """Relabelling and validation walk the CSR in row blocks, so each
    holds one int64 array of entry length.  A whole-array pass needs
    about 38 bytes per entry to relabel and 26 to validate.  The block
    budget is shrunk so that block scratch is negligible against the
    bounds."""

    @pytest.fixture
    def graph(self, monkeypatch):
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", 4096)
        graph = tube_mesh(12_000, section=114, clique=35,
                          cliques_per_vertex=1.0, coupling=9, hubs=4,
                          hub_degree=70, seed=3)
        assert graph.n_directed_entries > 500_000
        return graph

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak

    def test_random_relabel_below_16_bytes_per_entry(self, graph):
        # The int64 keys plus the relabelled int32 indices: 12 bytes.
        shuffled, peak = self.traced_peak(
            lambda: apply_ordering(graph, "random", seed=0))
        assert shuffled.n_directed_entries == graph.n_directed_entries
        assert peak < 16 * graph.n_directed_entries

    def test_validate_below_12_bytes_per_entry(self, graph):
        # The reversed int64 keys: 8 bytes.
        _, peak = self.traced_peak(graph.validate)
        assert peak < 12 * graph.n_directed_entries
