"""StreamingCSRBuilder: exact from_edges equivalence, bounded memory."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graphstore import builder as builder_module
from repro.graphstore.builder import StreamingCSRBuilder


class TestEquivalence:
    def test_matches_from_edges_randomized(self):
        """Block-fed builds equal one-shot from_edges on random inputs."""
        rng = np.random.default_rng(7)
        for trial in range(15):
            n = int(rng.integers(1, 180))
            m = int(rng.integers(0, 1500))
            edges = rng.integers(0, n, size=(m, 2))
            reference = CSRGraph.from_edges(n, edges)
            builder = StreamingCSRBuilder(
                n, block_edges=int(rng.integers(2, 96)))
            i = 0
            while i < m:
                step = int(rng.integers(1, 64))
                builder.add_edges(edges[i:i + step, 0], edges[i:i + step, 1])
                i += step
            graph = builder.finalize()
            assert reference.structurally_equal(graph), f"trial {trial}"
            graph.validate()

    def test_self_loops_dropped(self):
        builder = StreamingCSRBuilder(4, block_edges=8)
        builder.add_edges([0, 1, 2], [0, 1, 3])
        graph = builder.finalize()
        assert graph.n_edges == 1 and graph.has_edge(2, 3)

    def test_duplicates_across_blocks_merge(self):
        """The same edge fed in different blocks appears once."""
        builder = StreamingCSRBuilder(5, block_edges=4)
        for _ in range(6):
            builder.add_edges([1], [3])
            builder.add_edges([3], [1])  # reversed listing too
        graph = builder.finalize()
        assert graph.n_edges == 1
        assert graph.neighbors(1).tolist() == [3]

    def test_empty_and_edgeless(self):
        assert StreamingCSRBuilder(0).finalize().n_vertices == 0
        graph = StreamingCSRBuilder(9).finalize()
        assert graph.n_vertices == 9 and graph.n_directed_entries == 0
        graph.validate()

    def test_endpoint_validation(self):
        builder = StreamingCSRBuilder(3)
        with pytest.raises(ValueError, match="out of range"):
            builder.add_edges([0], [3])
        with pytest.raises(ValueError, match="out of range"):
            builder.add_edges([-1], [2])

    def test_shape_mismatch(self):
        builder = StreamingCSRBuilder(3)
        with pytest.raises(ValueError, match="mismatch"):
            builder.add_edges([0, 1], [2])

    def test_single_use(self):
        builder = StreamingCSRBuilder(3)
        builder.finalize()
        with pytest.raises(RuntimeError):
            builder.finalize()
        with pytest.raises(RuntimeError):
            builder.add_edges([0], [1])

    def test_high_degree_row_exceeding_block(self):
        """One row larger than the block still compacts correctly."""
        n = 500
        builder = StreamingCSRBuilder(n, block_edges=64)
        hub_targets = np.arange(1, n, dtype=np.int64)
        builder.add_edges(np.zeros(n - 1, dtype=np.int64), hub_targets)
        graph = builder.finalize()
        assert graph.max_degree == n - 1
        assert np.array_equal(graph.neighbors(0), hub_targets)


class TestBoundedMemory:
    def test_result_is_mmap_backed(self):
        """finalize() keeps indices out of the Python heap (file-backed)."""
        import mmap
        builder = StreamingCSRBuilder(100, block_edges=32)
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 100, size=(400, 2))
        builder.add_edges(edges[:, 0], edges[:, 1])
        graph = builder.finalize()
        base = graph.indices
        while getattr(base, "base", None) is not None:
            base = base.base
        if isinstance(base, memoryview):
            base = base.obj
        assert isinstance(base, mmap.mmap)
        assert not graph.indices.flags.writeable


class TestCrashPoints:
    def test_compact_failure_leaves_no_scratch_files(self, tmp_path,
                                                      monkeypatch):
        builder = StreamingCSRBuilder(50, block_edges=16,
                                      workdir=str(tmp_path))
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 50, size=(200, 2))
        builder.add_edges(edges[:, 0], edges[:, 1])

        def sort_entries(*args, **kwargs):
            raise MemoryError("injected: compaction failed")

        monkeypatch.setattr(builder_module, "_sort_entries", sort_entries)
        with pytest.raises(MemoryError, match="injected"):
            builder.finalize()
        assert list(tmp_path.iterdir()) == []  # no .scatter/.indices left
