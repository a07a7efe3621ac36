"""Experiment harness: sweeps, baselines, aggregation.

Panels sweep cells of a fake ``fake`` experiment, registered on the
campaign runner registry for one test: its cell runner calls a plain
``runner(graph, variant, threads) -> cycles`` function, so every test
drives the real path — ``run_panel`` → the campaign executor →
``run_cell`` → registry.
"""

import numpy as np
import pytest

from repro.campaign import runners
from repro.campaign.spec import CellSpec
from repro.experiments.harness import (PanelResult, geomean, panel_graphs,
                                       panel_threads, run_panel)


@pytest.fixture
def sweep(monkeypatch):
    """``sweep(runner, variants, title="p", **run_panel_kwargs)``: one
    panel whose series are ``fake`` cells computed by *runner*."""
    def run(runner, variants, title="p", machine="KNF", **kw):
        monkeypatch.setitem(runners._REGISTRY, "fake", (
            lambda cell: runner(cell.graph, cell.variant, cell.threads),
            None))
        panel = {v: {"experiment": "fake", "variant": v, "machine": machine}
                 for v in variants}
        return run_panel(title, panel, **kw)
    return run


class TestGeomean:
    def test_basic(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([5]) == pytest.approx(5.0)

    def test_degenerate(self):
        assert geomean([]) == 0.0
        assert geomean([1.0, 0.0]) == 0.0
        assert geomean([-1.0, 2.0]) == 0.0


class TestEnvKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        monkeypatch.delenv("REPRO_GRAPHS", raising=False)
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        assert len(panel_graphs()) == 7
        assert panel_threads() == [1] + list(range(11, 122, 10))
        assert max(panel_threads(host=True)) == 24

    def test_fast_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        assert len(panel_graphs()) == 3
        assert len(panel_threads()) == 5

    def test_explicit_graphs(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPHS", "pwtk,auto")
        assert panel_graphs() == ["pwtk", "auto"]

    def test_unknown_graph_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPHS", "pwtk,nope")
        with pytest.raises(ValueError, match="unknown"):
            panel_graphs()

    def test_explicit_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "31,1,11")
        assert panel_threads() == [1, 11, 31]


class TestRunPanel:
    @staticmethod
    def runner(graph, variant, t):
        # synthetic: "fast" halves cycles; scaling is 1/t with overhead
        base = 1000.0 if variant == "fast" else 2000.0
        base *= 2.0 if graph == "g2" else 1.0
        return base / t + 10.0

    def test_shared_baseline_is_fastest_t1(self, sweep):
        panel = sweep(self.runner, ["fast", "slow"],
                          graphs=["g1", "g2"], threads=[1, 10])
        assert panel.baselines["g1"] == pytest.approx(1010.0)
        assert panel.baselines["g2"] == pytest.approx(2010.0)
        # slow variant never exceeds fast's curve under shared baseline
        assert np.all(panel.series["slow"] <= panel.series["fast"])

    def test_per_variant_baseline(self, sweep):
        panel = sweep(self.runner, ["fast", "slow"],
                          graphs=["g1"], threads=[1, 10],
                          per_variant_baseline=True)
        # each variant normalised by itself: both start at exactly 1.0
        assert panel.series["fast"][0] == pytest.approx(1.0)
        assert panel.series["slow"][0] == pytest.approx(1.0)

    def test_thread_one_always_included(self, sweep):
        panel = sweep(self.runner, ["fast"], graphs=["g1"],
                          threads=[10, 20])
        assert panel.thread_counts[0] == 1

    def test_geomean_across_graphs(self, sweep):
        panel = sweep(self.runner, ["fast"],
                          graphs=["g1", "g2"], threads=[1, 10])
        # A one-graph panel's series is that graph's speedup array.
        s1, s2 = (sweep(self.runner, ["fast"], graphs=[g],
                        threads=[1, 10]).series["fast"] for g in ("g1", "g2"))
        expected = np.sqrt(s1 * s2)
        assert np.allclose(panel.series["fast"], expected)

    def test_threads_beyond_one_machine_run_at_its_maximum(
            self, monkeypatch):
        calls = []

        def runner(cell):
            calls.append((cell.machine, cell.threads))
            return 1000.0 / cell.threads

        monkeypatch.setitem(runners._REGISTRY, "fake", (runner, None))
        panel = run_panel("p", {
            "4-way": {"experiment": "fake", "variant": "A"},
            "1-way": {"experiment": "fake", "variant": "A",
                      "machine": "KNF-noSMT"}},
            graphs=["g1"], threads=[1, 31, 61, 121],
            per_variant_baseline=True)
        # 61 and 121 are the 1-way machine's 31-thread cell.
        assert sorted(c for c in calls if c[0] == "KNF-noSMT") \
            == [("KNF-noSMT", 1), ("KNF-noSMT", 31)]
        assert panel.thread_counts == [1, 31, 61, 121]
        assert np.allclose(panel.series["4-way"], [1.0, 31.0, 61.0, 121.0])
        assert np.allclose(panel.series["1-way"], [1.0, 31.0, 31.0, 31.0])

    def test_threads_beyond_every_machine_raise(self, sweep):
        calls = []

        def runner(g, v, t):
            calls.append(t)
            return 1000.0 / t

        with pytest.raises(ValueError,
                           match="61 threads exceed KNF-noSMT's 31 hardware"):
            sweep(runner, ["A"], graphs=["g1"], threads=[1, 31, 61],
                  machine="KNF-noSMT")
        assert calls == []  # rejected before any cell runs

    def test_best_and_at(self, sweep):
        panel = sweep(self.runner, ["fast"], graphs=["g1"],
                          threads=[1, 10, 20])
        t, v = panel.best("fast")
        assert t == 20
        assert v == panel.at("fast", 20)


class TestThreadsValidation:
    @pytest.mark.parametrize("bad", ["0", "-3", "1,0,2", "abc", "1,abc"])
    def test_rejects_bad_entries(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_THREADS", bad)
        with pytest.raises(ValueError, match="REPRO_THREADS"):
            panel_threads()

    def test_rejects_empty_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", " , ,")
        with pytest.raises(ValueError, match="no thread counts"):
            panel_threads()

    def test_error_names_the_offending_token(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "4,x,8")
        with pytest.raises(ValueError, match="'x'"):
            panel_threads()


class TestGeomeanNaN:
    def test_skips_nan(self):
        assert geomean([2.0, float("nan"), 8.0]) == pytest.approx(4.0)

    def test_all_nan_is_nan(self):
        import math
        assert math.isnan(geomean([float("nan")] * 3))


class TestResilience:
    """Acceptance: a sweep with one injected failing cell completes with
    that cell NaN, retried the configured number of times, and every
    other cell intact."""

    def test_failing_cell_isolated(self, sweep):
        import math
        calls = {}

        def runner(g, v, t):
            calls[(g, v, t)] = calls.get((g, v, t), 0) + 1
            if (g, v, t) == ("g2", "A", 10):
                raise RuntimeError("injected failure")
            return 1000.0 / t

        panel = sweep(runner, ["A", "B"], graphs=["g1", "g2"],
                          threads=[1, 10], retries=2)
        assert calls[("g2", "A", 10)] == 3  # initial try + 2 retries
        assert list(panel.failures) == [("g2", "A", 10)]
        assert "injected failure" in panel.failures[("g2", "A", 10)]
        assert "failed" in panel.notes
        # every other cell intact — g1 series and variant B untouched
        # (a one-graph panel's series is that graph's speedup array)
        g1, g2 = (sweep(runner, ["A", "B"], graphs=[g], threads=[1, 10],
                        retries=0) for g in ("g1", "g2"))
        assert math.isnan(g2.series["A"][1])
        assert np.allclose(g1.series["A"], [1.0, 10.0])
        assert np.allclose(panel.series["B"], [1.0, 10.0])
        # the geomean skips the NaN graph instead of poisoning the series
        assert np.allclose(panel.series["A"], [1.0, 10.0])

    def test_flaky_cell_recovers_within_budget(self, sweep):
        attempts = {"n": 0}

        def runner(g, v, t):
            if t == 10:
                attempts["n"] += 1
                if attempts["n"] < 3:
                    raise OSError("transient")
            return 100.0 / t

        panel = sweep(runner, ["A"], graphs=["g1"],
                          threads=[1, 10], retries=2)
        assert not panel.failures
        assert panel.series["A"][1] == pytest.approx(10.0)

    def test_on_error_raise_restores_fail_fast(self, sweep):
        def runner(g, v, t):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            sweep(runner, ["A"], graphs=["g1"], threads=[1],
                      retries=0, on_error="raise")

    def test_invalid_retries_and_on_error(self, sweep):
        runner = TestRunPanel.runner
        with pytest.raises(ValueError, match="retries"):
            sweep(runner, ["A"], graphs=["g1"], threads=[1],
                      retries=-1)
        with pytest.raises(ValueError, match="on_error"):
            sweep(runner, ["A"], graphs=["g1"], threads=[1],
                      on_error="explode")

    def test_retries_default_from_env(self, monkeypatch, sweep):
        monkeypatch.setenv("REPRO_RETRIES", "4")
        calls = {"n": 0}

        def runner(g, v, t):
            calls["n"] += 1
            raise RuntimeError("always")

        panel = sweep(runner, ["A"], graphs=["g1"], threads=[1])
        assert calls["n"] == 5
        assert "failed after 4 retries" in panel.notes

    def test_all_baselines_failed_gives_nan_baseline(self, sweep):
        import math

        def runner(g, v, t):
            if t == 1:
                raise RuntimeError("no baseline")
            return 10.0

        panel = sweep(runner, ["A"], graphs=["g1"],
                          threads=[1, 10], retries=0)
        assert math.isnan(panel.baselines["g1"])


class TestParallelPanel:
    def test_jobs2_bitwise_identical_to_serial(self, sweep):
        kw = dict(variants=["fast", "slow"], graphs=["g1", "g2"],
                  threads=[1, 10])
        serial = sweep(TestRunPanel.runner, **kw)
        parallel = sweep(TestRunPanel.runner, jobs=2, **kw)
        for label in ("fast", "slow"):
            assert np.array_equal(serial.series[label],
                                  parallel.series[label])
        assert serial.baselines == parallel.baselines
        kw["graphs"] = ["g2"]
        assert np.array_equal(sweep(TestRunPanel.runner, **kw).series["fast"],
                              sweep(TestRunPanel.runner, jobs=2,
                                    **kw).series["fast"])

    def test_jobs_failures_keep_nan_semantics(self, sweep):
        import math

        def runner(g, v, t):
            if (g, t) == ("g2", 10):
                raise RuntimeError("injected")
            return 1000.0 / t

        panel = sweep(runner, ["A"], graphs=["g1", "g2"],
                          threads=[1, 10], retries=0, jobs=2)
        assert list(panel.failures) == [("g2", "A", 10)]
        g1, g2 = (sweep(runner, ["A"], graphs=[g], threads=[1, 10],
                        retries=0, jobs=2) for g in ("g1", "g2"))
        assert math.isnan(g2.series["A"][1])
        assert np.allclose(g1.series["A"], [1.0, 10.0])


class TestStoreBackedPanel:
    @staticmethod
    def counting_runner(calls):
        def runner(g, v, t):
            calls.append((g, v, t))
            return 100.0 / t

        return runner

    def test_second_run_recomputes_nothing(self, tmp_path, sweep):
        from repro.campaign.store import ResultStore
        store = ResultStore(tmp_path)
        calls = []
        runner = self.counting_runner(calls)
        kw = dict(variants=["A"], graphs=["g1"], threads=[1, 10])
        p1 = sweep(runner, store=store, **kw)
        cold = len(calls)
        assert cold == 2
        p2 = sweep(runner, store=store, **kw)
        assert len(calls) == cold  # every cell served from the store
        assert np.array_equal(p1.series["A"], p2.series["A"])

    def test_titles_share_cells(self, tmp_path, sweep):
        from repro.campaign.store import ResultStore
        store = ResultStore(tmp_path)
        calls = []
        runner = self.counting_runner(calls)
        kw = dict(variants=["A"], graphs=["g1"], threads=[1])
        sweep(runner, title="one", store=store, **kw)
        sweep(runner, title="two", store=store, **kw)
        assert len(calls) == 1  # the store key is the cell, not the title

    def test_campaign_serves_panel_cells(self, tmp_path, sweep):
        from repro.campaign.cli import run_campaign
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import ResultStore
        store = ResultStore(tmp_path)
        calls = []
        sweep(self.counting_runner(calls), variants=["A"], graphs=["g1"],
              threads=[1, 10], store=store)
        spec = CampaignSpec(name="c", experiment="fake", graphs=["g1"],
                            variants=["A"], threads=[1, 10])
        _, report = run_campaign(spec, store=store)
        assert (report.hits, report.computed) == (2, 0)
        assert len(calls) == 2

    def test_store_off_by_default(self, tmp_path, monkeypatch, sweep):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        calls = []
        runner = self.counting_runner(calls)
        kw = dict(variants=["A"], graphs=["g1"], threads=[1])
        sweep(runner, **kw)
        sweep(runner, **kw)
        assert len(calls) == 2  # no caching without REPRO_STORE/store=

    def test_store_env_var_enables_cache(self, tmp_path, monkeypatch, sweep):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        calls = []
        runner = self.counting_runner(calls)
        kw = dict(variants=["A"], graphs=["g1"], threads=[1])
        sweep(runner, **kw)
        sweep(runner, **kw)
        assert len(calls) == 1

    def test_rerun_recomputes_only_the_failed_cell(self, tmp_path, sweep):
        import math
        from repro.campaign.store import ResultStore
        store = ResultStore(tmp_path)
        state = {"fail": True, "calls": []}

        def runner(g, v, t):
            state["calls"].append((g, v, t))
            if t == 10 and state["fail"]:
                raise RuntimeError("first pass fails")
            return 100.0 / t

        kw = dict(variants=["A"], graphs=["g1"], threads=[1, 10],
                  retries=0, store=store)
        p1 = sweep(runner, **kw)
        assert math.isnan(p1.series["A"][1])
        nan_cell = CellSpec("fake", "g1", "A", 10)
        assert store.get(nan_cell.to_dict()) is None  # NaN is never stored

        state["fail"] = False
        first_pass = len(state["calls"])
        p2 = sweep(runner, **kw)
        assert state["calls"][first_pass:] == [("g1", "A", 10)]
        assert not p2.failures
        assert p2.series["A"][1] == pytest.approx(10.0)

    def test_interrupted_sweep_resumes_from_store(self, tmp_path, sweep):
        from repro.campaign.store import ResultStore
        store = ResultStore(tmp_path)
        state = {"stop_at": 3, "calls": []}

        def runner(g, v, t):
            state["calls"].append((g, v, t))
            if len(state["calls"]) == state["stop_at"]:
                raise KeyboardInterrupt
            return 100.0 / t

        kw = dict(variants=["A", "B"], graphs=["g1"], threads=[1, 10],
                  store=store)
        with pytest.raises(KeyboardInterrupt):
            sweep(runner, **kw)
        finished = state["calls"][:state["stop_at"] - 1]

        state["stop_at"] = None
        first_pass = len(state["calls"])
        panel = sweep(runner, **kw)
        every = [("g1", v, t) for v in ("A", "B") for t in (1, 10)]
        assert state["calls"][first_pass:] == \
            [c for c in every if c not in finished]
        assert not panel.failures
        assert np.allclose(panel.series["B"], [1.0, 10.0])


class TestBaselinePoint:
    def test_zero_point_prepended_and_used(self, sweep):
        def runner(g, v, t):
            return 100.0 * (1.0 + t)  # t=0 is the fastest cell

        panel = sweep(runner, ["A"], graphs=["g1"],
                          threads=[10], baseline_point=0,
                          per_variant_baseline=True)
        assert panel.thread_counts == [0, 10]
        assert panel.series["A"][0] == pytest.approx(1.0)
        assert panel.series["A"][1] == pytest.approx(100.0 / 1100.0)
