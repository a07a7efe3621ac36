"""Benchmark registry, pinned environments and trajectory files."""

import json
import os

import pytest

from repro.bench.suite import (BENCHMARKS, SCHEMA_VERSION, SUITES,
                               append_entry, env_fingerprint,
                               load_trajectory, run_suite, suite_benchmarks,
                               suite_names, trajectory_path, validate_entry)
from repro.bench.timer import FakeClock


def fake_entry(suite="campaign", median=1.0, stamp=0.0):
    """A synthetic schema-valid entry (no benchmark execution)."""
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "generated_at": stamp,
        "env": env_fingerprint(),
        "results": {"executor-dispatch": {
            "median_s": median, "mean_s": median, "min_s": median,
            "max_s": median, "spread": 0.0, "repeat": 1, "warmup": 0,
            "samples_s": [median]}},
    }


class TestRegistry:
    def test_expected_suites(self):
        assert suite_names() == ["campaign", "figs", "graphs", "kernels"]

    def test_graphs_suite_covers_cold_and_warm_paths(self):
        assert SUITES["graphs"] == ["graphs-cold-build", "graphs-warm-load"]

    def test_figs_suite_covers_all_four_figures(self):
        assert SUITES["figs"] == ["fig1", "fig2", "fig3", "fig4"]

    def test_kernels_suite_covers_all_three_kernels(self):
        assert set(SUITES["kernels"]) == {"coloring", "bfs", "irregular"}

    def test_every_benchmark_described(self):
        assert all(b.description for b in BENCHMARKS.values())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_benchmarks("nope")

    def test_filter_narrows(self):
        assert [b.name for b in suite_benchmarks("campaign", "store")] \
            == ["store-hits"]

    def test_filter_matching_nothing_rejected(self):
        with pytest.raises(ValueError, match="matches no benchmark"):
            suite_benchmarks("campaign", "zzz")

    def test_env_filter_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FILTER", "executor")
        assert [b.name for b in suite_benchmarks("campaign")] \
            == ["executor-dispatch"]


class TestRunSuite:
    def test_campaign_suite_entry_schema(self):
        entry = run_suite("campaign", repeat=2, warmup=0,
                          clock=FakeClock(), stamp=lambda: 123.0)
        validate_entry(entry)
        assert entry["suite"] == "campaign"
        assert entry["generated_at"] == 123.0
        assert set(entry["results"]) == {"executor-dispatch", "store-hits"}
        for stats in entry["results"].values():
            assert stats["median_s"] == 1.0  # FakeClock: one step per run
            assert stats["repeat"] == 2

    def test_kernels_suite_runs_every_kernel(self):
        # Runs each kernel benchmark once, so a changed kernel signature
        # breaks here rather than in ``repro bench``.
        entry = run_suite("kernels", repeat=1, warmup=0, clock=FakeClock(),
                          stamp=lambda: 0.0)
        assert set(entry["results"]) == {"coloring", "bfs", "irregular"}

    def test_progress_callback_fires_per_benchmark(self):
        lines = []
        run_suite("campaign", repeat=1, warmup=0, clock=FakeClock(),
                  stamp=lambda: 0.0, name_filter="executor",
                  progress=lines.append)
        assert len(lines) == 2  # announce + result
        assert "executor-dispatch" in lines[0]

    def test_benchmark_stdout_swallowed(self, capsys):
        run_suite("campaign", repeat=1, warmup=0, clock=FakeClock(),
                  stamp=lambda: 0.0, name_filter="executor")
        assert capsys.readouterr().out == ""

    def test_environment_restored_after_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "/tmp/somewhere")
        run_suite("campaign", repeat=1, warmup=0, clock=FakeClock(),
                  stamp=lambda: 0.0, name_filter="executor")
        assert os.environ["REPRO_STORE"] == "/tmp/somewhere"

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
        assert trajectory_path("figs", "/x") == os.path.join("/x",
                                                             "BENCH_figs.json")

    def test_append_creates_then_extends(self, tmp_path):
        path = tmp_path / "BENCH_campaign.json"
        append_entry(path, fake_entry(stamp=1.0))
        data = append_entry(path, fake_entry(stamp=2.0))
        assert len(data["entries"]) == 2
        loaded = load_trajectory(path)
        assert [e["generated_at"] for e in loaded["entries"]] == [1.0, 2.0]

    def test_append_refuses_suite_mismatch(self, tmp_path):
        path = tmp_path / "BENCH_campaign.json"
        append_entry(path, fake_entry(suite="campaign"))
        with pytest.raises(ValueError, match="refusing to append"):
            append_entry(path, fake_entry(suite="figs"))

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
        assert data["suite"] == "campaign"
        assert len(data["entries"]) == 1

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a repro bench"):
            load_trajectory(path)
