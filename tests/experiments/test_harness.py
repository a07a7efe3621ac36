"""Experiment harness: sweeps, baselines, aggregation."""

import numpy as np
import pytest

from repro.experiments.harness import (PanelResult, geomean, panel_graphs,
                                       panel_threads, run_panel)


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

    def test_shared_baseline_is_fastest_t1(self):
        panel = run_panel("p", self.runner, ["fast", "slow"],
                          graphs=["g1", "g2"], threads=[1, 10])
        assert panel.baselines["g1"] == pytest.approx(1010.0)
        assert panel.baselines["g2"] == pytest.approx(2010.0)
        # slow variant never exceeds fast's curve under shared baseline
        assert np.all(panel.series["slow"] <= panel.series["fast"])

    def test_per_variant_baseline(self):
        panel = run_panel("p", self.runner, ["fast", "slow"],
                          graphs=["g1"], threads=[1, 10],
                          per_variant_baseline=True)
        # each variant normalised by itself: both start at exactly 1.0
        assert panel.series["fast"][0] == pytest.approx(1.0)
        assert panel.series["slow"][0] == pytest.approx(1.0)

    def test_thread_one_always_included(self):
        panel = run_panel("p", self.runner, ["fast"], graphs=["g1"],
                          threads=[10, 20])
        assert panel.thread_counts[0] == 1

    def test_geomean_across_graphs(self):
        panel = run_panel("p", self.runner, ["fast"],
                          graphs=["g1", "g2"], threads=[1, 10])
        s1 = panel.per_graph[("fast", "g1")]
        s2 = panel.per_graph[("fast", "g2")]
        expected = np.sqrt(s1 * s2)
        assert np.allclose(panel.series["fast"], expected)

    def test_best_and_at(self):
        panel = run_panel("p", self.runner, ["fast"], graphs=["g1"],
                          threads=[1, 10, 20])
        t, v = panel.best("fast")
        assert t == 20
        assert v == panel.at("fast", 20)


class TestRepeatAverage:
    def test_averages_last_k(self):
        from repro.experiments.harness import repeat_average
        calls = []

        def fn(seed):
            calls.append(seed)
            return float(seed)

        # seeds 0..9, average of last 5 => mean(5..9) = 7
        assert repeat_average(fn, runs=10, keep_last=5) == 7.0
        assert calls == list(range(10))

    def test_invalid(self):
        from repro.experiments.harness import repeat_average
        import pytest
        with pytest.raises(ValueError):
            repeat_average(lambda s: 1.0, runs=0)
        with pytest.raises(ValueError):
            repeat_average(lambda s: 1.0, runs=3, keep_last=4)


class TestPerGraphReport:
    def test_unfolds_geomean(self):
        from repro.experiments.report import format_panel_per_graph
        from repro.experiments.harness import run_panel

        panel = run_panel("p", TestRunPanel.runner, ["fast"],
                          graphs=["g1", "g2"], threads=[1, 10])
        out = format_panel_per_graph(panel, "fast")
        assert "g1" in out and "g2" in out

    def test_unknown_variant(self):
        import pytest
        from repro.experiments.report import format_panel_per_graph
        from repro.experiments.harness import PanelResult
        with pytest.raises(KeyError):
            format_panel_per_graph(PanelResult("t", [1]), "nope")


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

    def test_failing_cell_isolated(self):
        import math
        calls = {}

        def runner(g, v, t):
            calls[(g, v, t)] = calls.get((g, v, t), 0) + 1
            if (g, v, t) == ("g2", "A", 10):
                raise RuntimeError("injected failure")
            return 1000.0 / t

        panel = run_panel("p", runner, ["A", "B"], graphs=["g1", "g2"],
                          threads=[1, 10], retries=2)
        assert calls[("g2", "A", 10)] == 3  # initial try + 2 retries
        assert list(panel.failures) == [("g2", "A", 10)]
        assert "injected failure" in panel.failures[("g2", "A", 10)]
        assert "failed" in panel.notes
        assert math.isnan(panel.per_graph[("A", "g2")][1])
        # every other cell intact — g1 series and variant B untouched
        assert np.allclose(panel.per_graph[("A", "g1")], [1.0, 10.0])
        assert np.allclose(panel.series["B"], [1.0, 10.0])
        # the geomean skips the NaN graph instead of poisoning the series
        assert np.allclose(panel.series["A"], [1.0, 10.0])

    def test_flaky_cell_recovers_within_budget(self):
        attempts = {"n": 0}

        def runner(g, v, t):
            if t == 10:
                attempts["n"] += 1
                if attempts["n"] < 3:
                    raise OSError("transient")
            return 100.0 / t

        panel = run_panel("p", runner, ["A"], graphs=["g1"],
                          threads=[1, 10], retries=2)
        assert not panel.failures
        assert panel.series["A"][1] == pytest.approx(10.0)

    def test_on_error_raise_restores_fail_fast(self):
        def runner(g, v, t):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_panel("p", runner, ["A"], graphs=["g1"], threads=[1],
                      retries=0, on_error="raise")

    def test_invalid_retries_and_on_error(self):
        runner = TestRunPanel.runner
        with pytest.raises(ValueError, match="retries"):
            run_panel("p", runner, ["A"], graphs=["g1"], threads=[1],
                      retries=-1)
        with pytest.raises(ValueError, match="on_error"):
            run_panel("p", runner, ["A"], graphs=["g1"], threads=[1],
                      on_error="explode")

    def test_retries_default_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "4")
        calls = {"n": 0}

        def runner(g, v, t):
            calls["n"] += 1
            raise RuntimeError("always")

        run_panel("p", runner, ["A"], graphs=["g1"], threads=[1])
        assert calls["n"] == 5

    def test_all_baselines_failed_gives_nan_baseline(self):
        import math

        def runner(g, v, t):
            if t == 1:
                raise RuntimeError("no baseline")
            return 10.0

        panel = run_panel("p", runner, ["A"], graphs=["g1"],
                          threads=[1, 10], retries=0)
        assert math.isnan(panel.baselines["g1"])


class TestParallelPanel:
    def test_jobs2_bitwise_identical_to_serial(self):
        kw = dict(variants=["fast", "slow"], graphs=["g1", "g2"],
                  threads=[1, 10])
        serial = run_panel("p", TestRunPanel.runner, **kw)
        parallel = run_panel("p", TestRunPanel.runner, jobs=2, **kw)
        for label in ("fast", "slow"):
            assert np.array_equal(serial.series[label],
                                  parallel.series[label])
        assert serial.baselines == parallel.baselines
        assert np.array_equal(serial.per_graph[("fast", "g2")],
                              parallel.per_graph[("fast", "g2")])

    def test_jobs_failures_keep_nan_semantics(self):
        import math

        def runner(g, v, t):
            if (g, t) == ("g2", 10):
                raise RuntimeError("injected")
            return 1000.0 / t

        panel = run_panel("p", runner, ["A"], graphs=["g1", "g2"],
                          threads=[1, 10], retries=0, jobs=2)
        assert list(panel.failures) == [("g2", "A", 10)]
        assert math.isnan(panel.per_graph[("A", "g2")][1])
        assert np.allclose(panel.per_graph[("A", "g1")], [1.0, 10.0])


class TestStoreBackedPanel:
    @staticmethod
    def counting_runner(calls):
        def runner(g, v, t):
            calls.append((g, v, t))
            return 100.0 / t

        return runner

    def test_second_run_recomputes_nothing(self, tmp_path):
        from repro.campaign.store import ResultStore
        store = ResultStore(tmp_path)
        calls = []
        runner = self.counting_runner(calls)
        kw = dict(variants=["A"], graphs=["g1"], threads=[1, 10])
        p1 = run_panel("p", runner, store=store, **kw)
        cold = len(calls)
        assert cold == 2
        p2 = run_panel("p", runner, store=store, **kw)
        assert len(calls) == cold  # every cell served from the store
        assert np.array_equal(p1.series["A"], p2.series["A"])

    def test_titles_do_not_collide(self, tmp_path):
        from repro.campaign.store import ResultStore
        store = ResultStore(tmp_path)
        calls = []
        runner = self.counting_runner(calls)
        kw = dict(variants=["A"], graphs=["g1"], threads=[1])
        run_panel("one", runner, store=store, **kw)
        run_panel("two", runner, store=store, **kw)
        assert len(calls) == 2  # same coordinates, different panel keys

    def test_store_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        calls = []
        runner = self.counting_runner(calls)
        kw = dict(variants=["A"], graphs=["g1"], threads=[1])
        run_panel("p", runner, **kw)
        run_panel("p", runner, **kw)
        assert len(calls) == 2  # no caching without REPRO_STORE/store=

    def test_store_env_var_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        calls = []
        runner = self.counting_runner(calls)
        kw = dict(variants=["A"], graphs=["g1"], threads=[1])
        run_panel("p", runner, **kw)
        run_panel("p", runner, **kw)
        assert len(calls) == 1

    def test_rerun_recomputes_only_the_failed_cell(self, tmp_path):
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
        p1 = run_panel("p", runner, **kw)
        assert math.isnan(p1.per_graph[("A", "g1")][1])
        assert store.get({"panel": "p", "graph": "g1", "variant": "A",
                          "threads": 10}) is None  # NaN is never stored

        state["fail"] = False
        first_pass = len(state["calls"])
        p2 = run_panel("p", runner, **kw)
        assert state["calls"][first_pass:] == [("g1", "A", 10)]
        assert not p2.failures
        assert p2.series["A"][1] == pytest.approx(10.0)

    def test_interrupted_sweep_resumes_from_store(self, tmp_path):
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
            run_panel("p", runner, **kw)
        finished = state["calls"][:state["stop_at"] - 1]

        state["stop_at"] = None
        first_pass = len(state["calls"])
        panel = run_panel("p", runner, **kw)
        every = [("g1", v, t) for v in ("A", "B") for t in (1, 10)]
        assert state["calls"][first_pass:] == \
            [c for c in every if c not in finished]
        assert not panel.failures
        assert np.allclose(panel.per_graph[("B", "g1")], [1.0, 10.0])


class TestBaselinePoint:
    def test_zero_point_prepended_and_used(self):
        def runner(g, v, t):
            return 100.0 * (1.0 + t)  # t=0 is the fastest cell

        panel = run_panel("p", runner, ["A"], graphs=["g1"],
                          threads=[10], baseline_point=0,
                          per_variant_baseline=True)
        assert panel.thread_counts == [0, 10]
        assert panel.series["A"][0] == pytest.approx(1.0)
        assert panel.series["A"][1] == pytest.approx(100.0 / 1100.0)
