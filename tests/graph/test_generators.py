"""Tests for the synthetic graph generators."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.graph.generators import (chain, complete, erdos_renyi, grid2d,
                                    rmat, star, tube_mesh)


def n_components(g):
    return connected_components(g.to_scipy(), directed=False)[0]


class TestBasicGenerators:
    def test_chain(self):
        g = chain(7)
        assert g.n_edges == 6
        assert g.max_degree == 2
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(3)) == [2, 4]

    def test_chain_single_vertex(self):
        g = chain(1)
        assert g.n_vertices == 1
        assert g.n_edges == 0

    def test_star(self):
        g = star(9)
        assert g.n_edges == 8
        assert g.degrees[0] == 8
        assert np.all(g.degrees[1:] == 1)

    def test_complete(self):
        g = complete(6)
        assert g.n_edges == 15
        assert np.all(g.degrees == 5)

    def test_grid2d_counts(self):
        g = grid2d(4, 5)
        assert g.n_vertices == 20
        assert g.n_edges == 4 * 4 + 3 * 5  # horizontal + vertical

    def test_grid2d_diagonal(self):
        g = grid2d(3, 3, diagonal=True)
        assert g.has_edge(0, 4)  # (0,0)-(1,1)
        assert g.has_edge(1, 3)  # anti-diagonal

    def test_grid_connected(self):
        assert n_components(grid2d(5, 7)) == 1

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            chain(0)
        with pytest.raises(ValueError):
            grid2d(0, 3)
        with pytest.raises(ValueError):
            star(-1)


class TestRandomGenerators:
    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(50, 200, seed=4)
        b = erdos_renyi(50, 200, seed=4)
        assert a.structurally_equal(b)

    def test_erdos_renyi_seed_changes_graph(self):
        a = erdos_renyi(50, 200, seed=4)
        b = erdos_renyi(50, 200, seed=5)
        assert not a.structurally_equal(b)

    def test_erdos_renyi_edge_count_near_target(self):
        g = erdos_renyi(1000, 3000, seed=0)
        assert 2500 <= g.n_edges <= 3000

    def test_rmat_size(self):
        g = rmat(8, edge_factor=8, seed=1)
        assert g.n_vertices == 256
        assert g.n_edges > 500

    def test_rmat_skew(self):
        """R-MAT with Graph500 parameters is heavy-tailed."""
        g = rmat(10, edge_factor=8, seed=2)
        assert g.max_degree > 5 * g.average_degree

    def test_rmat_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="probabilities"):
            rmat(4, a=0.6, b=0.3, c=0.3)


class TestTubeMesh:
    def test_deterministic(self):
        a = tube_mesh(600, 30, 8, 1.0, 3, seed=7)
        b = tube_mesh(600, 30, 8, 1.0, 3, seed=7)
        assert a.structurally_equal(b)

    def test_connected(self):
        g = tube_mesh(600, 30, 8, 1.0, 3, seed=7)
        assert n_components(g) == 1

    def test_hubs_raise_max_degree(self):
        base = tube_mesh(600, 30, 8, 1.0, 3, seed=7)
        hubbed = tube_mesh(600, 30, 8, 1.0, 3, hubs=2, hub_degree=60, seed=7)
        assert hubbed.max_degree > base.max_degree + 20

    def test_section_controls_bfs_depth(self):
        """Narrower sections -> deeper BFS (the pwtk mechanism)."""
        from repro.kernels.bfs.sequential import bfs_sequential
        deep = tube_mesh(2000, 20, 6, 1.0, 3, seed=1)
        shallow = tube_mesh(2000, 100, 6, 1.0, 3, seed=1)
        d_deep = bfs_sequential(deep, 1000).max()
        d_shallow = bfs_sequential(shallow, 1000).max()
        assert d_deep > 2 * d_shallow

    def test_clique_controls_colors(self):
        from repro.kernels.coloring.sequential import greedy_coloring
        small_c, _ = greedy_coloring(tube_mesh(1000, 50, 5, 1.0, 2, seed=1))
        big_c, _ = greedy_coloring(tube_mesh(1000, 50, 20, 1.0, 2, seed=1))
        assert big_c >= small_c + 8

    def test_coupling_controls_degree(self):
        lo = tube_mesh(1000, 50, 8, 1.0, 2, seed=1)
        hi = tube_mesh(1000, 50, 8, 1.0, 10, seed=1)
        assert hi.average_degree > lo.average_degree + 6

    def test_partial_trailing_section(self):
        """n not divisible by section must not leave a spine-only tail."""
        g = tube_mesh(1015, 100, 10, 1.0, 3, seed=2)
        assert g.n_vertices == 1015
        assert n_components(g) == 1
        # tail vertices must have more than just spine edges
        assert g.degrees[-50:].mean() > 2.5

    def test_clique_exceeding_section_rejected(self):
        with pytest.raises(ValueError):
            tube_mesh(100, 10, 11, 1.0, 2)

    def test_section_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            tube_mesh(50, 100, 5, 1.0, 2)
