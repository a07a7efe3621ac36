"""``repro bench`` CLI: run/profile/compare, exit codes, dispatch."""

import io
import json
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

import pytest

from repro.bench.cli import main

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" \
    / "profile_baseline.jsonl"


def read_entry(path):
    return json.load(open(path))


def noop_figs(mp):
    """Reduce the figs suite to one no-op entry.

    The entry computes one tiny geometric mean, so its profiled wall
    time lands in a named bucket (``harness:sweep``).
    """
    from repro.bench.suite import SUITES, Benchmark
    from repro.experiments.harness import geomean
    mp.setitem(SUITES, "figs", (Benchmark(
        "noop", partial(geomean, [1.0, 4.0]), "no-op"),))


class TestRun:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("benchrun")
        traj = tmp / "traj.json"
        out = tmp / "entry.json"
        with pytest.MonkeyPatch.context() as mp:
            noop_figs(mp)
            code = main(["run", "--repeat", "2", "--warmup", "0",
                         "--trajectory", str(traj), "--output", str(out)])
        return code, traj, out

    def test_exit_code(self, run_dir):
        assert run_dir[0] == 0

    def test_trajectory_appended(self, run_dir):
        from repro.bench.suite import load_trajectory
        data = load_trajectory(run_dir[1])
        assert len(data["entries"]) == 1
        assert data["suite"] == "figs"
        assert set(data["entries"][0]["results"]) == {"noop"}

    def test_entry_artifact_schema_valid(self, run_dir):
        from repro.bench.suite import validate_entry
        entry = validate_entry(read_entry(run_dir[2]))
        assert entry["env"]["code_fingerprint"]
        for stats in entry["results"].values():
            assert stats["repeat"] == 2

    def test_no_append_skips_trajectory(self, tmp_path, monkeypatch):
        noop_figs(monkeypatch)
        traj = tmp_path / "traj.json"
        assert main(["run", "--repeat", "1", "--warmup", "0", "--no-append",
                     "--trajectory", str(traj)]) == 0
        assert not traj.exists()

    def test_bad_filter_is_an_error(self, tmp_path):
        assert main(["run", "--filter", "zzz", "--no-append"]) == 2


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

    def test_metrics_equal_baseline_coloring_lines(self, artifacts):
        """The exact telemetry gate, in tier-1: the coloring dump is the
        baseline's header plus its ``benchmark=coloring`` frames."""
        header, *frames = BASELINE.read_text().splitlines()
        want = [header] + [line for line in frames
                           if json.loads(line)["cell"]
                           == {"benchmark": "coloring"}]
        assert len(want) > 1
        assert artifacts[2].read_bytes() \
            == ("\n".join(want) + "\n").encode()

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
        from repro.bench.suite import KERNEL_CELLS
        from repro.campaign.runners import run_cell
        from repro.obs import Observer
        from repro.obs.export import load_metrics_jsonl
        with Observer() as obs:
            with obs.registry.cell(benchmark="coloring"):
                run_cell(KERNEL_CELLS[0])
        assert [f.to_dict() for f in load_metrics_jsonl(artifacts[2])] \
            == [f.to_dict() for f in obs.frames]

    def test_without_telemetry_only_the_wall_table(self, tmp_path, capsys,
                                                   monkeypatch):
        noop_figs(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "--suite", "figs",
                     "--min-coverage", "0.9"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("wall-clock attribution")
        assert "longest loop" not in out and "Perfetto" not in out
        assert list(tmp_path.iterdir()) == []

    def test_profile_writes_collapsed_and_gates_coverage(self, tmp_path,
                                                         capsys, monkeypatch):
        noop_figs(monkeypatch)
        collapsed = tmp_path / "stacks.collapsed"
        code = main(["profile", "--suite", "figs", "--top", "5",
                     "--collapsed", str(collapsed), "--min-coverage", "0.9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage" in out
        assert collapsed.read_text().strip()

    def test_impossible_coverage_fails(self, monkeypatch):
        noop_figs(monkeypatch)
        assert main(["profile", "--suite", "figs",
                     "--min-coverage", "1.1"]) == 1


class TestCompareAndTrend:
    @pytest.fixture(scope="class")
    def entries(self, tmp_path_factory):
        from tests.bench.test_compare import entry, stats
        tmp = tmp_path_factory.mktemp("gate")
        base = tmp / "base.json"
        slow = tmp / "slow.json"
        base.write_text(json.dumps(entry({"fig1": stats([1.0, 1.05, 0.95])})))
        slow.write_text(json.dumps(entry({"fig1": stats([2.0, 2.1, 1.9])})))
        return base, slow

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


class TestDispatch:
    def test_removed_commands_are_rejected(self, capsys):
        for argv in (["trend"], ["run", "--suite", "figs"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()

    def test_repro_bench_prefix_dispatch(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.experiments.cli import main as repro_main
        noop_figs(monkeypatch)
        traj = tmp_path / "traj.json"
        assert repro_main(["bench", "run", "--repeat", "1", "--warmup", "0",
                           "--trajectory", str(traj)]) == 0
        assert traj.exists()
        capsys.readouterr()
