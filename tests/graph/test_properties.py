"""Tests for graph property reports (Table I ingredients)."""

import pytest

from repro.graph.generators import chain, complete, grid2d, star
from repro.graph.csr import CSRGraph
from repro.graph.properties import (bfs_levels, connected_components,
                                    graph_properties)


class TestBfsLevels:
    def test_chain_from_middle(self):
        # source 50: levels 0..50 (both arms, longest = 50) -> 51 levels
        assert bfs_levels(chain(101)) == 51

    def test_star(self):
        assert bfs_levels(star(10), source=0) == 2
        assert bfs_levels(star(10), source=3) == 3

    def test_complete(self):
        assert bfs_levels(complete(6)) == 2

    def test_single_vertex(self):
        assert bfs_levels(chain(1)) == 1

    def test_unreachable_not_counted(self):
        g = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        assert bfs_levels(g, source=0) == 2


class TestComponents:
    def test_connected(self):
        assert connected_components(grid2d(4, 4)) == 1

    def test_disconnected(self):
        g = CSRGraph.from_edges(6, [(0, 1), (2, 3)])
        assert connected_components(g) == 4  # {0,1}, {2,3}, {4}, {5}

    def test_empty(self):
        assert connected_components(CSRGraph.from_edges(0, [])) == 0


class TestGraphProperties:
    def test_row_fields(self):
        g = grid2d(5, 5, name="g55")
        p = graph_properties(g)
        assert p.name == "g55"
        assert p.n_vertices == 25
        assert p.n_edges == 40
        assert p.max_degree == 4
        assert p.n_colors == 2  # grid is bipartite; greedy finds 2
        assert p.n_components == 1

    def test_complete_colors(self):
        p = graph_properties(complete(7))
        assert p.n_colors == 7
