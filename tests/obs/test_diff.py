"""Exact cross-run diffs over metrics frames and files."""

import math

import pytest

from repro.obs.diff import diff_frames, diff_metrics_files
from repro.obs.export import write_metrics_jsonl
from repro.obs.metrics import MetricsFrame


def frame(span=100.0, busy=300.0, sched=50.0, idle=50.0, threads=4,
          label="loop", cell=None):
    return MetricsFrame(label=label, cell=cell or {"graph": "g"},
                        n_threads=threads, span=span, busy_cycles=busy,
                        sched_cycles=sched, idle_cycles=idle)


class TestDiffFrames:
    def test_identical_ok(self):
        base = [frame(), frame(label="other")]
        report = diff_frames(base, [frame(), frame(label="other")])
        assert report.ok
        assert not report.changed

    def test_drift_past_threshold_breaches(self):
        # The threshold is zero: any drift is a breach.
        report = diff_frames([frame(busy=300.0)], [frame(busy=400.0)])
        assert not report.ok
        (breach,) = report.changed
        assert breach.component == "busy_cycles"
        assert breach.drift == pytest.approx(1 / 3)

    def test_one_ulp_drift_fails(self):
        busy = 47859867.10584661
        report = diff_frames([frame(busy=busy)],
                             [frame(busy=math.nextafter(busy, math.inf))])
        assert not report.ok
        (row,) = report.changed
        assert row.component == "busy_cycles"
        assert row.drift > 0
        out = report.format()
        assert repr(busy) in out and "REGRESSION" in out

    def test_small_component_has_no_noise_floor(self):
        # 1 -> 4 cycles against a 40000-cycle budget still fails.
        report = diff_frames([frame(span=10000.0, sched=1.0)],
                             [frame(span=10000.0, sched=4.0)])
        assert not report.ok
        assert [r.component for r in report.changed] == ["sched_cycles"]

    def test_component_appearing_from_zero(self):
        report = diff_frames([frame(sched=0.0)], [frame(sched=2.0)])
        (row,) = report.changed
        assert row.drift == math.inf

    def test_structural_mismatch_fails(self):
        report = diff_frames([frame(cell={"graph": "a"})],
                             [frame(cell={"graph": "b"})])
        assert not report.ok
        assert report.missing == ["graph=a loop=loop#0"]
        assert report.added == ["graph=b loop=loop#0"]

    def test_frames_grouped_by_cell_and_label(self):
        # Frames of one cell and loop label are compared in order, one
        # by one: the same total split differently is a model change.
        base = [frame(busy=100.0), frame(busy=200.0)]
        cur = [frame(busy=150.0), frame(busy=150.0)]
        report = diff_frames(base, cur)
        assert not report.ok
        assert [r.cell for r in report.changed] \
            == ["graph=g loop=loop#0", "graph=g loop=loop#1"]

    def test_extra_loop_is_added(self):
        report = diff_frames([frame()], [frame(), frame()])
        assert report.added == ["graph=g loop=loop#1"]
        assert not report.ok

    def test_format_mentions_verdict(self):
        good = diff_frames([frame()], [frame()])
        assert "OK" in good.format()
        bad = diff_frames([frame(busy=300.0)], [frame(busy=500.0)])
        out = bad.format()
        assert "REGRESSION" in out and "busy_cycles" in out


class TestDiffFiles:
    def test_file_diff(self, tmp_path):
        base_path, cur_path = tmp_path / "base.jsonl", tmp_path / "cur.jsonl"
        write_metrics_jsonl([frame()], base_path)
        write_metrics_jsonl([frame(busy=500.0)], cur_path)
        report = diff_metrics_files(base_path, cur_path)
        assert not report.ok

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.experiments.cli import main
        base_path, cur_path = tmp_path / "base.jsonl", tmp_path / "cur.jsonl"
        write_metrics_jsonl([frame()], base_path)
        write_metrics_jsonl([frame()], cur_path)
        assert main(["diff-metrics", str(base_path), str(cur_path)]) == 0
        write_metrics_jsonl([frame(busy=math.nextafter(300.0, 0.0))],
                            cur_path)
        assert main(["diff-metrics", str(base_path), str(cur_path)]) == 1
        assert main(["diff-metrics", str(base_path)]) == 2
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_cli_threshold_flag(self, tmp_path, capsys):
        from repro.experiments.cli import main
        path = tmp_path / "base.jsonl"
        write_metrics_jsonl([frame()], path)
        with pytest.raises(SystemExit) as exc:
            main(["diff-metrics", str(path), str(path), "--threshold", "0.2"])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err
