"""Graph registry: naming, build-once semantics, quarantine, maintenance."""

import os

import numpy as np
import pytest

from repro.graph.suite import SUITE, suite_graph
from repro.graphstore.names import parse_graph_name
from repro.graphstore.registry import GraphRegistry, registry_from_env


@pytest.fixture
def registry(tmp_path):
    return GraphRegistry(str(tmp_path / "graphs"))


class TestNames:
    def test_suite_names(self):
        for name in SUITE:
            spec = parse_graph_name(f"suite:{name}")
            assert spec.kind == "tube_mesh"
            assert spec.params_dict()["n"] == SUITE[name].n

    def test_tube_sizes(self):
        assert parse_graph_name("tube:1m").params_dict()["n"] == 1_000_000
        assert parse_graph_name("tube:250k").params_dict()["n"] == 250_000
        assert parse_graph_name("tube:5000").params_dict()["n"] == 5000

    def test_rmat(self):
        spec = parse_graph_name("rmat:s12")
        assert spec.params_dict() == {"scale": 12, "edge_factor": 16,
                                      "seed": 1}
        assert parse_graph_name("rmat:s10e4").params_dict()["edge_factor"] == 4

    def test_fingerprint_depends_on_params(self):
        assert (parse_graph_name("tube:10k").fingerprint()
                != parse_graph_name("tube:20k").fingerprint())
        assert (parse_graph_name("tube:10k").fingerprint()
                == parse_graph_name("tube:10k").fingerprint())

    @pytest.mark.parametrize("bad", [
        "nope", "suite:unknown", "tube:", "tube:abc", "tube:0",
        "rmat:20", "rmat:s99", "mystery:1m",
    ])
    def test_bad_names_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_graph_name(bad)


class TestRegistry:
    def test_build_once_then_mmap(self, registry):
        first = registry.get("tube:2k")
        assert registry.stats.misses == 1 and registry.stats.builds == 1
        # Fresh instance (no handle cache): must load, not rebuild.
        reloaded = GraphRegistry(registry.root)
        second = reloaded.get("tube:2k")
        assert reloaded.stats.builds == 0 and reloaded.stats.hits == 1
        assert first.structurally_equal(second)

    def test_handle_cache_counts_hits(self, registry):
        registry.get("tube:2k")
        registry.get("tube:2k")
        assert registry.stats.hits == 1 and registry.stats.misses == 1

    def test_suite_graph_matches_eager_build(self, registry):
        via_registry = registry.get("suite:pwtk")
        eager = suite_graph.__wrapped__("pwtk")
        assert eager.structurally_equal(via_registry)

    def test_build_idempotent(self, registry):
        path1, built1 = registry.build("tube:2k")
        path2, built2 = registry.build("tube:2k")
        assert built1 and not built2 and path1 == path2
        _, built3 = registry.build("tube:2k", force=True)
        assert built3

    def test_corrupt_file_quarantined_and_rebuilt(self, registry):
        registry.get("tube:2k")
        path = registry.path_for("tube:2k")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 11)
        fresh = GraphRegistry(registry.root)
        graph = fresh.get("tube:2k")
        assert fresh.stats.corrupt == 1 and fresh.stats.quarantined == 1
        assert fresh.stats.builds == 1
        graph.validate()
        quarantine = os.path.join(registry.root, "quarantine")
        assert len(os.listdir(quarantine)) == 1
        assert os.path.exists(path)  # rebuilt under the same key

    def test_failed_quarantine_move_still_serves_a_fresh_build(
            self, registry, monkeypatch):
        # Crash point: the corrupt file cannot be moved aside.  The
        # rebuild must still replace it with a good graph.
        registry.get("tube:2k")
        path = registry.path_for("tube:2k")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 11)
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(os.path.dirname(dst)) == "quarantine":
                raise OSError("injected: quarantine move failed")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        fresh = GraphRegistry(registry.root)
        graph = fresh.get("tube:2k")
        assert fresh.stats.corrupt == 1 and fresh.stats.quarantined == 0
        assert parse_graph_name("tube:2k").build().structurally_equal(graph)
        graph.validate()

    def test_verify_repair(self, registry):
        registry.get("tube:2k")
        registry.get("tube:4k")
        path = registry.path_for("tube:4k")
        header_size = 64
        with open(path, "r+b") as fh:
            fh.seek(header_size + 200)
            fh.write(b"\xff\xff\xff")
        report = registry.verify()
        assert report.checked == 2 and report.ok == 1
        assert report.corrupt == [path] and not report.quarantined
        assert os.path.exists(path)  # verify without repair only reports
        report = registry.verify(repair=True)
        assert report.quarantined == [path]
        assert not os.path.exists(path)

    def test_entries_and_ls_do_not_generate(self, registry, monkeypatch):
        registry.get("tube:2k")
        import repro.graphstore.names as names_mod

        def boom(self):  # pragma: no cover - would mean ls generated
            raise AssertionError("ls must not build graphs")

        monkeypatch.setattr(names_mod.GraphSpec, "build", boom)
        entries = GraphRegistry(registry.root).entries()
        assert len(entries) == 1
        assert entries[0].name == "tube:2k"
        assert entries[0].current
        assert entries[0].n_vertices == 2000

    def test_gc_removes_stale_only(self, registry, monkeypatch):
        registry.get("tube:2k")
        import repro.graphstore.names as names_mod
        monkeypatch.setattr(names_mod, "GENERATOR_SCHEMA_VERSION", 999)
        fresh = GraphRegistry(registry.root)
        fresh.get("tube:2k")  # rebuilt under the new fingerprint
        assert len(fresh._object_paths()) == 2
        removed, kept = fresh.gc()
        assert (removed, kept) == (1, 1)

    def test_clear_keeps_quarantine(self, registry):
        registry.get("tube:2k")
        path = registry.path_for("tube:2k")
        with open(path, "r+b") as fh:
            fh.truncate(10)
        GraphRegistry(registry.root).get("tube:2k")  # quarantines + rebuilds
        cleared = registry.clear()
        assert cleared == 1
        quarantine = os.path.join(registry.root, "quarantine")
        assert len(os.listdir(quarantine)) == 1


class TestEnvActivation:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_GRAPH_DIR", raising=False)
        assert registry_from_env() is None

    def test_singleton_per_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_DIR", str(tmp_path))
        assert registry_from_env() is registry_from_env()

    def test_suite_graph_resolves_through_registry(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_DIR", str(tmp_path))
        suite_graph.cache_clear()
        try:
            graph = suite_graph("pwtk")
            registry = registry_from_env()
            assert registry.stats.builds >= 1
            assert os.path.exists(registry.path_for("suite:pwtk"))
            eager = suite_graph.__wrapped__("pwtk")
            assert eager.structurally_equal(graph)
        finally:
            suite_graph.cache_clear()

    def test_obs_counters(self, tmp_path):
        from repro.obs import Observer
        registry = GraphRegistry(str(tmp_path))
        with Observer(trace=False) as obs:
            registry.get("tube:2k")
            registry.get("tube:2k")
        snapshot = obs.registry.snapshot()
        assert snapshot.get("graphstore.misses") == 1
        assert snapshot.get("graphstore.hits") == 1
