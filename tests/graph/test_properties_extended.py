"""Extended property metrics: bandwidth."""

from repro.graph.csr import CSRGraph
from repro.graph.generators import chain, complete, tube_mesh
from repro.graph.properties import bandwidth
from repro.graph.reorder import apply_ordering


class TestBandwidth:
    def test_chain(self):
        assert bandwidth(chain(10)) == 1

    def test_complete(self):
        assert bandwidth(complete(6)) == 5

    def test_empty(self):
        assert bandwidth(CSRGraph.from_edges(4, [])) == 0

    def test_shuffle_increases_bandwidth(self):
        g = tube_mesh(500, 25, 6, 1.0, 2, seed=1)
        shuffled = apply_ordering(g, "random", seed=1)
        assert bandwidth(shuffled) > 2 * bandwidth(g)

    def test_rcm_restores_bandwidth(self):
        g = tube_mesh(500, 25, 6, 1.0, 2, seed=1)
        shuffled = apply_ordering(g, "random", seed=1)
        rcm = apply_ordering(shuffled, "rcm")
        assert bandwidth(rcm) < bandwidth(shuffled) / 2

