"""``repro-experiments`` argument handling and figure telemetry flags."""

import json

import pytest

from repro.experiments.cli import main
from repro.obs.export import load_metrics_jsonl


def test_figure_flags_write_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_GRAPHS", "pwtk")
    monkeypatch.setenv("REPRO_THREADS", "5")
    trace, metrics = tmp_path / "t.json", tmp_path / "m.jsonl"
    assert main(["fig2", "--trace", str(trace),
                 "--metrics", str(metrics)]) == 0
    capsys.readouterr()
    frames = load_metrics_jsonl(metrics)
    assert frames
    assert all(f.cell.get("graph") == "pwtk" for f in frames)
    data = json.loads(trace.read_text())
    assert data["traceEvents"]


def exit_code(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestRejectedArguments:
    def test_trace_on_unobserved_target(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert exit_code(["table1", "--trace", str(trace)]) == 2
        assert "--trace/--metrics do not apply to table1" \
            in capsys.readouterr().err
        assert not trace.exists()

    def test_paths_on_figure_target(self, capsys):
        assert exit_code(["fig1", "a", "b"]) == 2
        assert "fig1 takes no positional paths" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["profile"],
        ["fig1", "--kernel", "bfs"],
        ["fig1", "--variant", "OpenMP-dynamic"],
        ["fig1", "--profile-threads", "5"],
    ])
    def test_profile_target_and_options_are_gone(self, argv, capsys):
        assert exit_code(argv) == 2
        capsys.readouterr()
