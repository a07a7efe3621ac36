"""Benchmark suites, pinned environments and the trajectory file."""

import json
import math
import os

import pytest

from repro.bench.suite import (KERNEL_CELLS, SCHEMA_VERSION, SUITES,
                               Benchmark, _pinned_env, append_entry,
                               env_fingerprint, load_trajectory, run_suite,
                               suite_benchmarks, validate_entry)
from repro.bench.timer import FakeClock
from repro.campaign.spec import CellSpec
from repro.graph.csr import CSRGraph


def fake_entry(suite="figs", median=1.0, stamp=0.0):
    """A synthetic schema-valid entry (no benchmark execution)."""
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "generated_at": stamp,
        "env": env_fingerprint(),
        "results": {"fig1": {
            "median_s": median, "mean_s": median, "min_s": median,
            "max_s": median, "spread": 0.0, "repeat": 1, "warmup": 0,
            "samples_s": [median]}},
    }


@pytest.fixture
def noop_figs(monkeypatch):
    """The figs suite reduced to one no-op entry that prints a line."""
    calls = []

    def noop():
        calls.append(1)
        print("panel output")

    monkeypatch.setitem(SUITES, "figs", (Benchmark("noop", noop, "no-op"),))
    return calls


class TestRegistry:
    def test_expected_suites(self):
        assert sorted(SUITES) == ["figs", "kernels"]

    def test_figs_suite_covers_all_four_figures(self):
        assert [b.name for b in SUITES["figs"]] \
            == ["fig1", "fig2", "fig3", "fig4"]

    def test_kernels_suite_covers_all_three_kernels(self):
        assert [b.name for b in SUITES["kernels"]] \
            == ["coloring", "bfs", "irregular"]
        assert KERNEL_CELLS == (
            CellSpec("coloring", "pwtk", "OpenMP-dynamic", 31),
            CellSpec("bfs", "pwtk", "OpenMP-Block-relaxed", 31),
            CellSpec("irregular", "auto", "OpenMP", 31,
                     params=(("iterations", 5),)))

    def test_every_benchmark_described(self):
        assert all(b.description for benches in SUITES.values()
                   for b in benches)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_benchmarks("nope")

    def test_filter_narrows(self):
        assert [b.name for b in suite_benchmarks("kernels", "bfs")] \
            == ["bfs"]

    def test_filter_matching_nothing_rejected(self):
        with pytest.raises(ValueError, match="matches no benchmark"):
            suite_benchmarks("kernels", "zzz")


class TestRunSuite:
    def test_figs_suite_entry_schema(self, noop_figs):
        entry = run_suite(repeat=2, warmup=0, clock=FakeClock(),
                          stamp=lambda: 123.0)
        validate_entry(entry)
        assert entry["suite"] == "figs"
        assert entry["generated_at"] == 123.0
        assert set(entry["results"]) == {"noop"}
        stats = entry["results"]["noop"]
        assert stats["median_s"] == 1.0  # FakeClock: one step per run
        assert stats["repeat"] == 2
        assert len(noop_figs) == 2

    def test_kernels_suite_runs_every_kernel(self):
        # Runs each kernel cell once, so a changed runner signature
        # breaks here rather than in ``repro bench profile``.
        for bench in SUITES["kernels"]:
            cycles = bench.fn()
            assert math.isfinite(cycles) and cycles > 0, bench.name

    def test_progress_callback_fires_per_benchmark(self, noop_figs):
        lines = []
        run_suite(repeat=1, warmup=0, clock=FakeClock(), stamp=lambda: 0.0,
                  progress=lines.append)
        assert len(lines) == 2  # announce + result
        assert "noop" in lines[0]

    def test_benchmark_stdout_swallowed(self, noop_figs, capsys):
        run_suite(repeat=1, warmup=0, clock=FakeClock(), stamp=lambda: 0.0)
        assert capsys.readouterr().out == ""

    def test_environment_restored_after_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "/tmp/somewhere")
        monkeypatch.setenv("REPRO_GRAPH_DIR", "/tmp/graphs")
        monkeypatch.delenv("REPRO_FAST", raising=False)
        with _pinned_env({"REPRO_FAST": "1"}):
            assert "REPRO_STORE" not in os.environ
            assert "REPRO_GRAPH_DIR" not in os.environ
            assert os.environ["REPRO_FAST"] == "1"
        assert os.environ["REPRO_STORE"] == "/tmp/somewhere"
        assert os.environ["REPRO_GRAPH_DIR"] == "/tmp/graphs"
        assert "REPRO_FAST" not in os.environ

    def test_every_repetition_starts_with_empty_memos(self, monkeypatch):
        """Warmup and timed runs of a fig benchmark each start cold: no
        memoised graph, ordering, profile, BFS widths, first-fit colouring
        or registry handle survives from the run before, and no registry
        is configured."""
        from repro.experiments import fig4_bfs, harness
        from repro.graph import suite
        from repro.graphstore import registry
        from repro.kernels.coloring import sequential
        from repro.machine import cache
        from repro.machine.config import KNF

        tiny = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        memos = (suite.suite_graph, harness.ordered_suite_graph,
                 fig4_bfs._widths, cache._access_profile_lru)
        seen = []

        def probe():
            seen.append(([m.cache_info().currsize for m in memos],
                         len(sequential._FIRST_FIT),
                         dict(registry._ACTIVE),
                         os.environ.get("REPRO_GRAPH_DIR")))
            # Fill every memo as a real sweep would.
            harness.ordered_suite_graph("auto", "random")
            fig4_bfs._widths("auto")
            cache._access_profile_lru(tiny, KNF, 1, 4, 1.0)
            sequential.first_fit(tiny)
            registry._ACTIVE["/tmp/graphs"] = None

        monkeypatch.setattr(suite, "tube_mesh", lambda *a, **k: tiny)
        monkeypatch.setattr(fig4_bfs, "run_fig4", probe)
        monkeypatch.setenv("REPRO_GRAPH_DIR", "/tmp/graphs")
        try:
            run_suite(repeat=3, warmup=1, name_filter="fig4",
                      clock=FakeClock(), stamp=lambda: 0.0)
        finally:
            for memo in memos:
                memo.cache_clear()
            sequential._FIRST_FIT.clear()
            registry._ACTIVE.clear()
        assert seen == [([0, 0, 0, 0], 0, {}, None)] * 4

    def test_env_fingerprint_fields(self):
        env = env_fingerprint()
        for key in ("python", "platform", "machine", "cpus",
                    "repro_version", "code_fingerprint"):
            assert env[key]


class TestValidateEntry:
    def test_accepts_synthetic(self):
        validate_entry(fake_entry())

    def test_missing_key_rejected(self):
        entry = fake_entry()
        del entry["env"]
        with pytest.raises(ValueError, match="env"):
            validate_entry(entry)

    def test_wrong_schema_rejected(self):
        entry = fake_entry()
        entry["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            validate_entry(entry)

    def test_empty_results_rejected(self):
        entry = fake_entry()
        entry["results"] = {}
        with pytest.raises(ValueError, match="no results"):
            validate_entry(entry)

    def test_missing_fingerprint_rejected(self):
        entry = fake_entry()
        del entry["env"]["code_fingerprint"]
        with pytest.raises(ValueError, match="code_fingerprint"):
            validate_entry(entry)


class TestTrajectory:
    def test_default_path(self):
        from repro.bench.cli import build_parser
        assert build_parser().parse_args(["run"]).trajectory \
            == "BENCH_figs.json"

    def test_append_creates_then_extends(self, tmp_path):
        path = tmp_path / "traj.json"
        append_entry(path, fake_entry(stamp=1.0))
        data = append_entry(path, fake_entry(stamp=2.0))
        assert len(data["entries"]) == 2
        loaded = load_trajectory(path)
        assert [e["generated_at"] for e in loaded["entries"]] == [1.0, 2.0]

    def test_append_refuses_suite_mismatch(self, tmp_path):
        path = tmp_path / "traj.json"
        append_entry(path, fake_entry(suite="figs"))
        with pytest.raises(ValueError, match="refusing to append"):
            append_entry(path, fake_entry(suite="kernels"))

    def test_bytes_stable_for_same_entries(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            append_entry(path, fake_entry(stamp=1.0))
            append_entry(path, fake_entry(stamp=2.0))
        assert a.read_bytes() == b.read_bytes()

    def test_bare_entry_loads_as_single_entry_trajectory(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(fake_entry()))
        data = load_trajectory(path)
        assert data["suite"] == "figs"
        assert len(data["entries"]) == 1

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a repro bench"):
            load_trajectory(path)
