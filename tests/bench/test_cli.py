"""``repro bench`` CLI: run/profile/compare/trend, exit codes, dispatch."""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.bench.cli import main


def read_entry(path):
    return json.load(open(path))


class TestRun:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("benchrun")
        traj = tmp / "BENCH_campaign.json"
        out = tmp / "entry.json"
        code = main(["run", "--suite", "campaign", "--repeat", "2",
                     "--warmup", "0", "--trajectory", str(traj),
                     "--output", str(out)])
        return code, traj, out

    def test_exit_code(self, run_dir):
        assert run_dir[0] == 0

    def test_trajectory_appended(self, run_dir):
        from repro.bench.suite import load_trajectory
        data = load_trajectory(run_dir[1])
        assert len(data["entries"]) == 1
        assert set(data["entries"][0]["results"]) \
            == {"executor-dispatch", "store-hits"}

    def test_entry_artifact_schema_valid(self, run_dir):
        from repro.bench.suite import validate_entry
        entry = validate_entry(read_entry(run_dir[2]))
        assert entry["env"]["code_fingerprint"]
        for stats in entry["results"].values():
            assert stats["repeat"] == 2

    def test_no_append_skips_trajectory(self, tmp_path):
        traj = tmp_path / "BENCH_campaign.json"
        assert main(["run", "--suite", "campaign", "--filter", "executor",
                     "--repeat", "1", "--warmup", "0", "--no-append",
                     "--trajectory", str(traj)]) == 0
        assert not traj.exists()

    def test_bad_filter_is_an_error(self, tmp_path):
        assert main(["run", "--suite", "campaign", "--filter", "zzz",
                     "--no-append"]) == 2


class TestProfile:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("profile")
        trace, metrics = tmp / "trace.json", tmp / "metrics.jsonl"
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["profile", "--suite", "kernels", "--filter",
                         "coloring", "--top", "5", "--trace", str(trace),
                         "--metrics", str(metrics)])
        return code, trace, metrics, buf.getvalue()

    def test_exit_code(self, artifacts):
        assert artifacts[0] == 0

    def test_trace_loadable(self, artifacts):
        events = json.loads(artifacts[1].read_text())["traceEvents"]
        assert events
        assert all(k in ev for ev in events
                   for k in ("name", "ph", "ts", "pid", "tid"))
        assert sum(e["ph"] == "B" for e in events) \
            == sum(e["ph"] == "E" for e in events)

    def test_metrics_reconcile(self, artifacts):
        from repro.obs.export import load_metrics_jsonl
        from repro.obs.gantt import reconciliation
        frames = load_metrics_jsonl(artifacts[2])
        assert frames
        assert all(f.cell == {"benchmark": "coloring"} for f in frames)
        worst, summary = reconciliation(frames)
        assert worst < 0.01
        assert "reconciliation" in summary

    def test_output_mentions_artifacts(self, artifacts):
        out = artifacts[3]
        assert "Perfetto" in out
        assert "longest loop" in out
        assert "reconciliation" in out
        # both clocks: the telemetry block precedes the wall-clock table
        assert out.index("longest loop") \
            < out.index("wall-clock attribution")

    def test_frames_match_plain_observer_run(self, artifacts):
        """The wall profiler around the run moves no simulated cycle."""
        from repro.bench.suite import BENCHMARKS
        from repro.obs import Observer
        from repro.obs.export import load_metrics_jsonl
        with Observer() as obs:
            with obs.registry.cell(benchmark="coloring"):
                BENCHMARKS["coloring"].fn()
        assert [f.to_dict() for f in load_metrics_jsonl(artifacts[2])] \
            == [f.to_dict() for f in obs.frames]

    def test_without_telemetry_only_the_wall_table(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "--suite", "campaign", "--filter",
                     "executor", "--min-coverage", "0.9"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("wall-clock attribution")
        assert "longest loop" not in out and "Perfetto" not in out
        assert list(tmp_path.iterdir()) == []

    def test_profile_writes_collapsed_and_gates_coverage(self, tmp_path,
                                                         capsys):
        collapsed = tmp_path / "stacks.collapsed"
        code = main(["profile", "--suite", "campaign", "--filter",
                     "executor", "--top", "5", "--collapsed",
                     str(collapsed), "--min-coverage", "0.9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage" in out
        assert collapsed.read_text().strip()

    def test_impossible_coverage_fails(self):
        assert main(["profile", "--suite", "campaign", "--filter",
                     "executor", "--min-coverage", "1.1"]) == 1


class TestCompareAndTrend:
    @pytest.fixture(scope="class")
    def entries(self, tmp_path_factory):
        from repro.bench.suite import append_entry
        from tests.bench.test_compare import entry, stats
        tmp = tmp_path_factory.mktemp("gate")
        base = tmp / "base.json"
        slow = tmp / "slow.json"
        base.write_text(json.dumps(entry({"bfs": stats([1.0, 1.05, 0.95])})))
        slow.write_text(json.dumps(entry({"bfs": stats([2.0, 2.1, 1.9])})))
        traj = tmp / "BENCH_kernels.json"
        append_entry(traj, entry({"bfs": stats([1.0])}, stamp=1.0))
        append_entry(traj, entry({"bfs": stats([1.2])}, stamp=2.0))
        return base, slow, traj

    def test_self_compare_passes(self, entries, capsys):
        assert main(["compare", str(entries[0]), str(entries[0])]) == 0
        assert "OK" in capsys.readouterr().out

    def test_seeded_slowdown_fails(self, entries, capsys):
        assert main(["compare", str(entries[0]), str(entries[1])]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_generous_tolerance_passes(self, entries):
        assert main(["compare", str(entries[0]), str(entries[1]),
                     "--tolerance", "1.5"]) == 0

    def test_missing_file_is_an_error(self, entries):
        assert main(["compare", str(entries[0]), "/nonexistent.json"]) == 2

    def test_trend(self, entries, capsys):
        assert main(["trend", str(entries[2])]) == 0
        assert "1.0000 -> 1.2000" in capsys.readouterr().out


class TestDispatch:
    def test_repro_bench_prefix_dispatch(self, tmp_path, capsys):
        from repro.experiments.cli import main as repro_main
        traj = tmp_path / "BENCH_campaign.json"
        assert repro_main(["bench", "run", "--suite", "campaign",
                           "--filter", "executor", "--repeat", "1",
                           "--warmup", "0", "--trajectory",
                           str(traj)]) == 0
        assert traj.exists()
        capsys.readouterr()
