"""Streaming generation: bit-identical output, bounded peak memory.

The generators were rewritten from "materialize the full (u, v) edge
array, hand it to from_edges" to block-wise emission through
:class:`repro.graphstore.builder.StreamingCSRBuilder`.  Two contracts
guard that rewrite:

* **Parity** — chunked numpy ``Generator`` draws along the first axis
  are bit-identical to one whole-array draw, so every generated graph
  (including the seven committed-baseline suite graphs) must be
  byte-for-byte unchanged, at any block size.
* **Bounded memory** — peak *tracked* allocation no longer scales with
  |E|: the old path held ~56 bytes per directed entry in temporaries;
  the streaming path holds O(n) counters plus O(block) scratch, with
  the bulk data in (untracked, file-backed) temporary files.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph import csr
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, rmat, tube_mesh

TUBE_PARAMS = dict(section=30, clique=8, cliques_per_vertex=1.0,
                   coupling=3, hubs=4, hub_degree=12, seed=3)


def _hash(graph: CSRGraph) -> bytes:
    import hashlib
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(graph.indptr))
    digest.update(np.ascontiguousarray(graph.indices))
    return digest.digest()


class TestBlockSizeParity:
    """Output must not depend on the block budget the builder and the
    generators use."""

    @pytest.mark.parametrize("block", [1024, 4096, 1 << 20])
    def test_tube_mesh(self, block, monkeypatch):
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", block)
        chunked = tube_mesh(600, **TUBE_PARAMS)
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", 1 << 24)
        one_shot = tube_mesh(600, **TUBE_PARAMS)
        assert _hash(chunked) == _hash(one_shot)

    @pytest.mark.parametrize("block", [1024, 1 << 20])
    def test_erdos_renyi(self, block, monkeypatch):
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", block)
        chunked = erdos_renyi(1500, 6000, seed=5)
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", 1 << 24)
        one_shot = erdos_renyi(1500, 6000, seed=5)
        assert _hash(chunked) == _hash(one_shot)

    @pytest.mark.parametrize("block", [2048, 1 << 20])
    def test_rmat(self, block, monkeypatch):
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", block)
        chunked = rmat(9, 8, seed=1)
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", 1 << 24)
        one_shot = rmat(9, 8, seed=1)
        assert _hash(chunked) == _hash(one_shot)


class TestSuiteGraphsUnchanged:
    """Pinned structural facts the committed baselines depend on.

    These duplicate a slice of tests/graph/test_suite.py on purpose: if
    a builder change ever altered suite-graph structure, this is the
    test whose name says what went wrong.
    """

    def test_pwtk_shape(self):
        from repro.graph.suite import suite_graph
        graph = suite_graph.__wrapped__("pwtk")
        assert graph.n_vertices == 27_125
        from repro.kernels.bfs.sequential import bfs_sequential
        levels = bfs_sequential(graph, 0)
        assert int(levels.max()) + 1 == 526  # pinned: the depth outlier


class TestPeakMemory:
    def test_tracemalloc_regression(self, monkeypatch):
        """Peak tracked allocation stays far below the old edge-array cost.

        The pre-streaming implementation materialised >= 16 bytes x
        directed entries in the (u, v) arrays alone (int64 u and v),
        plus ~40 more in from_edges temporaries.  With a small block,
        the streaming path must stay under that single-array floor.
        """
        n = 40_000
        block = 32_768
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", block)
        tracemalloc.start()
        try:
            graph = tube_mesh(n, section=200, clique=8,
                              cliques_per_vertex=1.0, coupling=3,
                              hubs=4, hub_degree=12, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = graph.n_directed_entries
        assert entries > 500_000  # big enough that the bound means something
        old_floor = 16 * entries  # just the eager int64 (u, v) endpoints
        assert peak < old_floor, (
            f"peak tracked {peak} bytes >= old edge-array floor "
            f"{old_floor}; streaming regressed to O(|E|) RSS")
        # And the absolute bound: O(n) counters + O(block) scratch.
        budget = 64 * n + 200 * block
        assert peak < budget, f"peak {peak} exceeds O(n + block) budget {budget}"

    def test_tube_mesh_below_4_bytes_per_entry(self, monkeypatch):
        """The builder and the generator take their block size from the
        one budget, ``csr.BLOCK_ENTRIES``: at 4,096 entries a block's
        scratch is negligible, and what is left is O(n) counters.  With
        blocks of 1 Mi entries this mesh is one block, about 57 bytes
        per entry."""
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", 4096)
        tracemalloc.start()
        try:
            graph = tube_mesh(12_000, section=114, clique=35,
                              cliques_per_vertex=1.0, coupling=9, hubs=4,
                              hub_degree=70, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.n_directed_entries > 500_000
        assert peak < 4 * graph.n_directed_entries
