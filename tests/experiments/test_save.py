"""Panel JSON serialisation round-trips."""

import numpy as np
import pytest

from repro.experiments.harness import PanelResult
from repro.experiments.save import (load_panels, panel_from_dict,
                                    panel_to_dict, save_panels)


def make_panel():
    p = PanelResult(title="demo", thread_counts=[1, 31, 121], notes="n")
    p.series = {"A": np.array([1.0, 20.5, 70.0]),
                "B": np.array([0.9, 18.0, 50.0])}
    p.per_graph = {("A", "g1"): np.array([1.0, 21.0, 72.0]),
                   ("A", "g2"): np.array([1.0, 20.0, 68.1])}
    p.baselines = {"g1": 1e6, "g2": 2e6}
    return p


class TestRoundTrip:
    def test_dict_roundtrip(self):
        p = make_panel()
        q = panel_from_dict(panel_to_dict(p))
        assert q.title == p.title
        assert q.thread_counts == p.thread_counts
        assert np.allclose(q.series["A"], p.series["A"])
        assert np.allclose(q.per_graph[("A", "g2")], p.per_graph[("A", "g2")])
        assert q.baselines == p.baselines
        assert q.notes == "n"
        assert q.axis == "threads"
        p.axis = "intensity"
        assert panel_from_dict(panel_to_dict(p)).axis == "intensity"

    def test_file_roundtrip_single(self, tmp_path):
        path = tmp_path / "p.json"
        save_panels(make_panel(), path)
        loaded = load_panels(path)
        assert list(loaded) == ["demo"]
        assert loaded["demo"].at("A", 121) == pytest.approx(70.0)

    def test_file_roundtrip_dict(self, tmp_path):
        path = tmp_path / "p.json"
        save_panels({"x": make_panel()}, path)
        assert "x" in load_panels(path)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_panels(path)


class TestFailuresRoundTrip:
    def test_failures_survive_roundtrip(self):
        p = make_panel()
        p.failures = {("g1", "A", 31): "RuntimeError: boom"}
        q = panel_from_dict(panel_to_dict(p))
        assert q.failures == p.failures

    def test_old_files_without_failures_load(self):
        d = panel_to_dict(make_panel())
        del d["failures"]
        assert panel_from_dict(d).failures == {}

    def test_file_roundtrip_with_failures_and_nan(self, tmp_path):
        """Partial panels (failures + NaN cells) survive a file round-trip."""
        import math
        from repro.experiments.harness import geomean
        p = make_panel()
        p.series["A"] = np.array([1.0, float("nan"), 70.0])
        p.per_graph[("A", "g1")] = np.array([1.0, float("nan"), 72.0])
        p.failures = {("g1", "A", 31): "RuntimeError: boom",
                      ("g2", "A", 31): "ValueError: bad cell"}
        path = tmp_path / "partial.json"
        save_panels(p, path)
        q = load_panels(path)["demo"]
        assert q.failures == p.failures
        assert math.isnan(q.series["A"][1])
        assert math.isnan(q.per_graph[("A", "g1")][1])
        assert q.at("A", 121) == pytest.approx(70.0)
        # geomean over the reloaded per-graph column skips the NaN: the
        # surviving graph still aggregates.
        col = [q.per_graph[("A", "g1")][1], q.per_graph[("A", "g2")][1]]
        assert geomean(col) == pytest.approx(20.0)

