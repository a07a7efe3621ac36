"""Perf gate: drift vs noise band, file plumbing."""

import json

import pytest

from repro.bench.compare import compare_entries, compare_files
from repro.bench.suite import SCHEMA_VERSION, append_entry, env_fingerprint


def entry(results, env=None, stamp=0.0):
    return {"schema": SCHEMA_VERSION, "suite": "figs",
            "generated_at": stamp, "env": env or env_fingerprint(),
            "results": results}


def stats(samples):
    samples = [float(s) for s in samples]
    ordered = sorted(samples)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 \
        else 0.5 * (ordered[mid - 1] + ordered[mid])
    return {"median_s": median, "mean_s": sum(samples) / len(samples),
            "min_s": min(samples), "max_s": max(samples),
            "spread": (max(samples) - min(samples)) / median,
            "repeat": len(samples), "warmup": 0, "samples_s": samples}


class TestCompareEntries:
    def test_identical_entries_pass(self):
        e = entry({"bfs": stats([1.0, 1.1, 0.9])})
        report = compare_entries(e, e, tolerance=0.25)
        assert report.ok
        assert not report.rows[0].regressed

    def test_seeded_2x_slowdown_fails(self):
        base = entry({"bfs": stats([1.0, 1.1, 0.9])})
        slow = entry({"bfs": stats([2.0, 2.2, 1.8])})
        report = compare_entries(base, slow, tolerance=0.25)
        assert not report.ok
        assert report.rows[0].regressed
        assert report.rows[0].drift == pytest.approx(1.0)
        assert "REGRESSION" in report.format()

    def test_noise_floor_absorbs_drift_inside_spread(self):
        # 40% spread, 30% drift: the band is tolerance + spread, so a
        # wobbly benchmark cannot fail on noise-sized movement.
        base = entry({"bfs": stats([1.0, 0.8, 1.2])})
        cur = entry({"bfs": stats([1.3, 1.1, 1.5])})
        report = compare_entries(base, cur, tolerance=0.25)
        assert report.ok

    def test_tight_spread_keeps_the_gate_tight(self):
        base = entry({"bfs": stats([1.0, 1.0, 1.0])})
        cur = entry({"bfs": stats([1.3, 1.3, 1.3])})
        assert not compare_entries(base, cur, tolerance=0.25).ok

    def test_improvement_is_not_a_regression(self):
        base = entry({"bfs": stats([2.0])})
        cur = entry({"bfs": stats([1.0])})
        report = compare_entries(base, cur, tolerance=0.25)
        assert report.ok
        assert report.rows[0].improved

    def test_missing_benchmark_fails_the_gate(self):
        base = entry({"bfs": stats([1.0]), "coloring": stats([1.0])})
        cur = entry({"bfs": stats([1.0])})
        report = compare_entries(base, cur, tolerance=0.25)
        assert report.missing == ["coloring"]
        assert not report.ok

    def test_added_benchmark_is_fine(self):
        base = entry({"bfs": stats([1.0])})
        cur = entry({"bfs": stats([1.0]), "new": stats([1.0])})
        report = compare_entries(base, cur, tolerance=0.25)
        assert report.added == ["new"]
        assert report.ok

    def test_env_drift_warns(self):
        other = dict(env_fingerprint())
        other["machine"] = "riscv128"
        base = entry({"bfs": stats([1.0])})
        cur = entry({"bfs": stats([1.0])}, env=other)
        report = compare_entries(base, cur, tolerance=0.25)
        assert report.warnings
        assert report.ok  # a warning, not a failure

    def test_nonpositive_baseline_rejected(self):
        zero = {"median_s": 0.0, "mean_s": 0.0, "min_s": 0.0, "max_s": 0.0,
                "spread": 0.0, "repeat": 1, "warmup": 0, "samples_s": [0.0]}
        base = entry({"bfs": zero})
        with pytest.raises(ValueError, match="non-positive"):
            compare_entries(base, base, tolerance=0.25)

    def test_negative_tolerance_rejected(self):
        e = entry({"bfs": stats([1.0])})
        with pytest.raises(ValueError, match="tolerance"):
            compare_entries(e, e, tolerance=-0.1)


class TestCompareFiles:
    def test_latest_entries_compared(self, tmp_path):
        path = tmp_path / "traj.json"
        append_entry(path, entry({"bfs": stats([9.0])}, stamp=1.0))
        append_entry(path, entry({"bfs": stats([1.0])}, stamp=2.0))
        bare = tmp_path / "current.json"
        bare.write_text(json.dumps(entry({"bfs": stats([1.0])})))
        report = compare_files(path, bare, tolerance=0.25)
        assert report.ok  # compared against the latest (1.0), not 9.0

    def test_suite_mismatch_rejected(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        e = entry({"bfs": stats([1.0])})
        a.write_text(json.dumps(e))
        other = dict(e, suite="kernels")
        b.write_text(json.dumps(other))
        with pytest.raises(ValueError, match="cannot compare suite"):
            compare_files(a, b)
