"""Integration: the fault-intensity experiment on a reduced sweep."""

import numpy as np
import pytest

GRAPHS = ["pwtk"]
INTENSITIES = [0, 100]


@pytest.fixture(scope="module")
def panels():
    from repro.experiments.fig_faults import run_fig_faults
    return run_fig_faults(graphs=GRAPHS, intensities=INTENSITIES)


class TestDegradationPanels:
    def test_both_kernels_present(self, panels):
        assert set(panels) == {"coloring", "bfs"}

    def test_intensity_axis(self, panels):
        for p in panels.values():
            assert p.thread_counts == INTENSITIES
            assert p.axis == "intensity"

    def test_healthy_baseline_is_one(self, panels):
        from repro.experiments.fig_faults import FAULT_RUNTIMES
        for p in panels.values():
            for v in FAULT_RUNTIMES:
                assert p.series[v][0] == pytest.approx(1.0)

    def test_faults_degrade_not_corrupt(self, panels):
        # degrading kinds slow runs (ratio <= 1) and every cell validated
        for p in panels.values():
            assert not p.failures
            for s in p.series.values():
                assert np.all(s <= 1.0 + 1e-9)
            assert any(s[-1] < 1.0 for s in p.series.values())


class TestKillSurvival:
    def test_static_alone_fails_validation(self):
        from repro.experiments.fig_faults import kill_survival_rows
        headers, rows = kill_survival_rows(GRAPHS[0])
        assert headers[0] == "runtime"
        by_runtime = {r[0]: r for r in rows}
        assert all(r[1] for r in rows)  # every runtime completes
        assert not by_runtime["OpenMP-static"][2]  # pre-dealt work lost
        for name in ("OpenMP-dynamic", "CilkPlus-holder", "TBB-simple"):
            assert by_runtime[name][2]  # redistribution keeps output valid


class TestKnobs:
    def test_fault_seed_env(self, monkeypatch):
        from repro.experiments.fig_faults import fault_seed
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert fault_seed() == 0
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        assert fault_seed() == 7

    def test_fast_mode_shrinks_sweep(self, monkeypatch):
        from repro.experiments import fig_faults
        monkeypatch.setenv("REPRO_FAST", "1")
        assert len(fig_faults._intensities()) < len(fig_faults.INTENSITIES)
        monkeypatch.delenv("REPRO_FAST")
        assert fig_faults._intensities() == fig_faults.INTENSITIES

    def test_cli_lists_fig_faults(self):
        from repro.experiments.cli import _CHOICES
        assert "fig-faults" in _CHOICES
