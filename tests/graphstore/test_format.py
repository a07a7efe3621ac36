"""`.rgr` binary format: round trips, corruption detection, mmap safety."""

import os
import struct
import threading

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, tube_mesh
from repro.graphstore.format import (FORMAT_VERSION, HEADER_SIZE, MAGIC,
                                     RGRError, load_graph, read_header,
                                     save_graph, verify_file)


@pytest.fixture
def rgr_path(tmp_path):
    return str(tmp_path / "graph.rgr")


def _graphs():
    rng = np.random.default_rng(42)
    yield CSRGraph.from_edges(1, [], name="single")
    yield CSRGraph.from_edges(7, [(0, 1)], name="one-edge")
    yield erdos_renyi(97, 300, seed=3, name="er")
    yield tube_mesh(400, section=20, clique=6, coupling=2, hubs=2,
                    hub_degree=9, seed=1, name="tube")
    for trial in range(5):
        n = int(rng.integers(2, 150))
        m = int(rng.integers(0, 900))
        yield CSRGraph.from_edges(n, rng.integers(0, n, size=(m, 2)),
                                  name=f"rand{trial}")


class TestRoundTrip:
    def test_property_round_trip(self, tmp_path):
        """save → load preserves structure, name, and all invariants."""
        for i, graph in enumerate(_graphs()):
            path = str(tmp_path / f"g{i}.rgr")
            save_graph(path, graph)
            loaded = load_graph(path)
            assert loaded.name == graph.name
            assert graph.structurally_equal(loaded)
            loaded.validate()  # full invariant pass on the mmap views
            verify_file(path)  # payload digest matches what was written

    def test_loaded_graph_kernels_match(self, rgr_path, mesh):
        """Kernel results are identical on generated vs mmap-loaded graphs."""
        from repro.kernels.bfs.sequential import bfs_sequential
        from repro.kernels.coloring.sequential import greedy_coloring
        save_graph(rgr_path, mesh)
        loaded = load_graph(rgr_path)
        assert np.array_equal(bfs_sequential(mesh, 0), bfs_sequential(loaded, 0))
        n_colors, colors = greedy_coloring(mesh)
        n_colors_loaded, colors_loaded = greedy_coloring(loaded)
        assert n_colors == n_colors_loaded
        assert np.array_equal(colors, colors_loaded)

    def test_save_is_atomic(self, rgr_path, mesh):
        save_graph(rgr_path, mesh)
        assert not any(fn.endswith(".tmp")
                       for fn in os.listdir(os.path.dirname(rgr_path)))

    def test_unlink_while_mapped(self, rgr_path, mesh):
        """POSIX: data stays readable after the path is unlinked."""
        save_graph(rgr_path, mesh)
        loaded = load_graph(rgr_path)
        os.unlink(rgr_path)
        assert mesh.structurally_equal(loaded)

    def test_header_metadata(self, rgr_path, mesh):
        save_graph(rgr_path, mesh)
        header = read_header(rgr_path)
        assert header.version == FORMAT_VERSION
        assert header.n_vertices == mesh.n_vertices
        assert header.n_indices == mesh.n_directed_entries
        assert header.name == mesh.name
        assert header.file_size == os.path.getsize(rgr_path)


class TestDurability:
    def test_fsync_file_then_replace_then_fsync_dir(self, rgr_path,
                                                    durability_calls):
        """The tmp file's bytes are fsynced before the rename publishes
        them, and the directory is fsynced after it, so the new entry
        survives a power failure."""
        save_graph(rgr_path, CSRGraph.from_edges(3, [(0, 1)], name="g"))
        assert durability_calls == [
            "fsync file",
            f"replace {rgr_path}.{os.getpid()}.tmp -> {rgr_path}",
            "fsync dir"]
        assert load_graph(rgr_path).n_vertices == 3

    def test_failed_replace_keeps_old_file_and_no_tmp(self, rgr_path, mesh,
                                                      monkeypatch):
        """Crash point: the rename fails.  The previous graph stays
        whole at *path* and the tmp file is removed."""
        save_graph(rgr_path, mesh)

        def replace(src, dst):
            raise OSError("injected: replace failed")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="injected"):
            save_graph(rgr_path, CSRGraph.from_edges(3, [(0, 1)], name="g"))
        monkeypatch.undo()
        assert os.listdir(os.path.dirname(rgr_path)) == ["graph.rgr"]
        assert mesh.structurally_equal(load_graph(rgr_path))


class TestCorruption:
    def test_bad_magic(self, rgr_path, mesh):
        save_graph(rgr_path, mesh)
        with open(rgr_path, "r+b") as fh:
            fh.write(b"NOPE")
        with pytest.raises(RGRError, match="bad magic"):
            load_graph(rgr_path)

    def test_wrong_version(self, rgr_path, mesh):
        """A future-version file (valid header digest) fails cleanly."""
        import hashlib
        save_graph(rgr_path, mesh)
        with open(rgr_path, "r+b") as fh:
            raw = bytearray(fh.read(HEADER_SIZE))
            struct.pack_into("<I", raw, 4, FORMAT_VERSION + 1)
            digest = hashlib.sha256(bytes(raw[:HEADER_SIZE - 8])).digest()[:8]
            raw[HEADER_SIZE - 8:] = digest
            fh.seek(0)
            fh.write(bytes(raw))
        with pytest.raises(RGRError, match="unsupported format version"):
            load_graph(rgr_path)

    def test_truncated_file(self, rgr_path, mesh):
        save_graph(rgr_path, mesh)
        size = os.path.getsize(rgr_path)
        with open(rgr_path, "r+b") as fh:
            fh.truncate(size - 5)
        with pytest.raises(RGRError, match="file size"):
            load_graph(rgr_path)

    def test_truncated_header(self, rgr_path, mesh):
        save_graph(rgr_path, mesh)
        with open(rgr_path, "r+b") as fh:
            fh.truncate(HEADER_SIZE - 10)
        with pytest.raises(RGRError, match="truncated header"):
            load_graph(rgr_path)

    def test_header_bit_flip(self, rgr_path, mesh):
        """Any header bit-flip is caught by the header digest at load."""
        save_graph(rgr_path, mesh)
        with open(rgr_path, "r+b") as fh:
            fh.seek(16)  # n_vertices field
            byte = fh.read(1)
            fh.seek(16)
            fh.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(RGRError, match="header checksum"):
            load_graph(rgr_path)

    def test_payload_bit_flip_caught_by_verify(self, rgr_path, mesh):
        """Loads stay lazy; verify_file re-hashes and catches payload rot."""
        save_graph(rgr_path, mesh)
        header = read_header(rgr_path)
        with open(rgr_path, "r+b") as fh:
            fh.seek(header.indices_offset + 8)
            byte = fh.read(1)
            fh.seek(header.indices_offset + 8)
            fh.write(bytes([byte[0] ^ 0x40]))
        load_graph(rgr_path)  # zero-copy load does not touch the payload
        with pytest.raises(RGRError, match="payload checksum"):
            verify_file(rgr_path)

    def test_not_a_graph_file(self, rgr_path):
        with open(rgr_path, "wb") as fh:
            fh.write(b"just some text, definitely not CSR\n" * 10)
        with pytest.raises(RGRError, match="bad magic"):
            read_header(rgr_path)

    def test_missing_file(self, rgr_path):
        with pytest.raises(RGRError):
            read_header(rgr_path)


class TestConcurrentReaders:
    def test_many_threads_one_file(self, rgr_path, mesh):
        """Concurrent BFS over independent mmaps of one file all agree."""
        from repro.kernels.bfs.sequential import bfs_sequential
        save_graph(rgr_path, mesh)
        expected = bfs_sequential(mesh, 0)
        results = [None] * 8
        errors = []

        def reader(i):
            try:
                graph = load_graph(rgr_path)
                results[i] = bfs_sequential(graph, 0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for levels in results:
            assert np.array_equal(levels, expected)

    def test_shared_handle_across_threads(self, rgr_path, mesh):
        """One loaded graph used from many threads (read-only arrays)."""
        from repro.kernels.coloring.sequential import greedy_coloring
        save_graph(rgr_path, mesh)
        graph = load_graph(rgr_path)
        _, expected = greedy_coloring(mesh)
        outcomes = []

        def worker():
            outcomes.append(np.array_equal(greedy_coloring(graph)[1], expected))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes == [True] * 6

    def test_magic_constant(self):
        assert MAGIC == b"RGR1" and HEADER_SIZE == 64
