"""Report formatting and the CLI."""

import numpy as np
import pytest

from repro.experiments.harness import PanelResult
from repro.experiments.report import format_panel, format_rows


class TestFormatRows:
    def test_alignment(self):
        out = format_rows(["a", "long_header"], [(1, 2.5), (33, 4.0)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "long_header" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        # right-aligned numeric columns
        assert lines[2].endswith("2.50")
        assert lines[3].endswith("4.00")

    def test_float_formatting(self):
        out = format_rows(["x"], [(1.23456,)])
        assert "1.23" in out


class TestFormatPanel:
    def test_contains_series_and_peaks(self):
        panel = PanelResult(title="demo", thread_counts=[1, 4],
                            series={"v": np.array([1.0, 3.5])})
        out = format_panel(panel)
        assert "== demo ==" in out
        assert "3.50" in out
        assert "peaks: v: 3.5@4t" in out

    def test_intensity_axis_labels_header_and_peaks(self):
        panel = PanelResult(title="faults", thread_counts=[0, 50],
                            axis="intensity",
                            series={"v": np.array([1.0, 0.5])})
        header, _, first, _ = format_panel(panel).splitlines()[1:5]
        assert header.split() == ["intensity", "%", "v"]
        assert first.split() == ["0", "1.00"]
        assert "peaks: v: 1.0@0%" in format_panel(panel)
        assert "threads" not in format_panel(panel)

    def test_notes_included(self):
        panel = PanelResult(title="demo", thread_counts=[1],
                            series={"v": np.array([1.0])}, notes="hello")
        assert "hello" in format_panel(panel)


class TestCli:
    def test_help(self, capsys):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "table1" in capsys.readouterr().out

    def test_invalid_choice(self):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_table1_runs(self, capsys, monkeypatch):
        from repro.experiments.cli import main
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "pwtk" in out

    def test_fast_flags_set_env(self, monkeypatch, capsys):
        import os
        from repro.experiments.cli import main
        monkeypatch.delenv("REPRO_FAST", raising=False)
        main(["table1", "--fast", "--graphs", "pwtk", "--threads", "1,31"])
        assert os.environ["REPRO_FAST"] == "1"
        assert os.environ["REPRO_GRAPHS"] == "pwtk"
        assert os.environ["REPRO_THREADS"] == "1,31"
