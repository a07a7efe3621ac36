"""Parallel executor: parity, retries, store short-circuit, Ctrl-C API."""

import math

import pytest

from repro.campaign.executor import (ExecutionReport, default_jobs,
                                     default_retries, execute)
from repro.campaign.store import ResultStore


def runner(key):
    """Deterministic synthetic cell: pure function of its key."""
    return 1000.0 / key + key * 0.25


KEYS = [1, 2, 3, 5, 8, 13]


class TestSerial:
    def test_all_cells_computed(self):
        report = execute(runner, KEYS, jobs=1)
        assert report.computed == len(KEYS)
        assert report.failed == 0 and report.hits == 0
        assert report.values == {k: runner(k) for k in KEYS}
        assert not report.interrupted

    def test_on_cell_fires_per_cell(self):
        seen = []
        execute(runner, KEYS, jobs=1, on_cell=lambda k, v: seen.append(k))
        assert seen == KEYS

    def test_empty_keys(self):
        report = execute(runner, [], jobs=1)
        assert report.total == 0
        assert report.hit_rate == 0.0


class TestParallelParity:
    def test_jobs2_bitwise_identical_to_serial(self):
        serial = execute(runner, KEYS, jobs=1)
        parallel = execute(runner, KEYS, jobs=2)
        assert parallel.values == serial.values  # exact float equality
        assert parallel.computed == serial.computed

    def test_jobs_zero_means_cpu_count(self):
        report = execute(runner, KEYS, jobs=0)
        assert report.values == {k: runner(k) for k in KEYS}

    def test_failures_survive_the_pool(self):
        def flaky(key):
            if key == 3:
                raise RuntimeError("injected")
            return runner(key)

        report = execute(flaky, KEYS, jobs=2)
        assert math.isnan(report.values[3])
        assert "injected" in report.errors[3]
        assert report.failed == 1
        assert report.computed == len(KEYS) - 1

    def test_failing_run_matches_serial(self):
        # A long run of failing cells must not change how the healthy
        # cells after it are reported: every cell is computed once, the
        # same way at any job count.
        def sick_then_healthy(key):
            if key < 0:
                raise RuntimeError(f"cell {key} is broken")
            return runner(key)

        keys = list(range(-30, 0)) + list(range(1, 21))
        serial = execute(sick_then_healthy, keys, jobs=1, retries=0)
        parallel = execute(sick_then_healthy, keys, jobs=2, retries=0)
        assert serial.failed == 30 and serial.computed == 20
        assert parallel.errors == serial.errors
        # repr compares NaN == NaN and every float bit for bit.
        assert {k: repr(v) for k, v in parallel.values.items()} == \
            {k: repr(v) for k, v in serial.values.items()}

    def test_pool_on_error_raise_reports_cell(self):
        def bad(key):
            raise ValueError("nope")

        with pytest.raises(RuntimeError, match="failed after"):
            execute(bad, KEYS, jobs=2, on_error="raise")


class TestRetries:
    def test_flaky_cell_recovers(self):
        attempts = {"n": 0}

        def flaky(key):
            if key == 2:
                attempts["n"] += 1
                if attempts["n"] < 3:
                    raise OSError("transient")
            return runner(key)

        report = execute(flaky, KEYS, jobs=1, retries=2)
        assert report.failed == 0
        assert attempts["n"] == 3

    def test_budget_spent_records_nan(self):
        calls = {"n": 0}

        def always(key):
            calls["n"] += 1
            raise RuntimeError("always")

        report = execute(always, [7], jobs=1, retries=2)
        assert calls["n"] == 3
        assert math.isnan(report.values[7])
        assert "always" in report.errors[7]

    def test_serial_raise_propagates_original_exception(self):
        def bad(key):
            raise KeyError("original")

        with pytest.raises(KeyError, match="original"):
            execute(bad, [1], jobs=1, on_error="raise")


class TestValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError, match="retries"):
            execute(runner, KEYS, retries=-1)
        with pytest.raises(ValueError, match="on_error"):
            execute(runner, KEYS, on_error="explode")
        with pytest.raises(ValueError, match="jobs"):
            execute(runner, KEYS, jobs=-2)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() >= 1
        monkeypatch.setenv("REPRO_JOBS", "x")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()
        monkeypatch.setenv("REPRO_JOBS", "-1")
        with pytest.raises(ValueError, match=">= 0"):
            default_jobs()

    def test_default_retries_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert default_retries() == 1
        monkeypatch.setenv("REPRO_RETRIES", "0")
        assert default_retries() == 0
        monkeypatch.setenv("REPRO_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            default_retries()


class TestStoreIntegration:
    def spec_for(self, key):
        return {"panel": "test", "cell": key}

    def test_second_run_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        first = execute(runner, KEYS, jobs=1, store=store,
                        spec_for=self.spec_for)
        assert first.computed == len(KEYS)
        second = execute(runner, KEYS, jobs=1, store=store,
                         spec_for=self.spec_for)
        assert second.hits == len(KEYS)
        assert second.computed == 0
        assert second.hit_rate == 1.0
        assert second.values == first.values

    def test_hits_skip_the_runner(self, tmp_path):
        store = ResultStore(tmp_path)
        execute(runner, KEYS, jobs=1, store=store, spec_for=self.spec_for)
        calls = []

        def spy(key):
            calls.append(key)
            return runner(key)

        execute(spy, KEYS, jobs=1, store=store, spec_for=self.spec_for)
        assert calls == []

    def test_failed_cells_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)

        def flaky(key):
            if key == 2:
                raise RuntimeError("boom")
            return runner(key)

        execute(flaky, KEYS, jobs=1, store=store, spec_for=self.spec_for)
        second = execute(runner, KEYS, jobs=1, store=store,
                         spec_for=self.spec_for)
        assert second.hits == len(KEYS) - 1
        assert second.computed == 1  # the failed cell is retried
        assert not math.isnan(second.values[2])

    def test_parallel_run_hits_serial_store(self, tmp_path):
        store = ResultStore(tmp_path)
        serial = execute(runner, KEYS, jobs=1, store=store,
                         spec_for=self.spec_for)
        warm = execute(runner, KEYS, jobs=2, store=store,
                       spec_for=self.spec_for)
        assert warm.hits == len(KEYS)
        assert warm.values == serial.values


class TestTelemetry:
    def test_cells_counted_by_status(self, tmp_path):
        from repro.obs import Observer
        store = ResultStore(tmp_path)
        spec_for = lambda k: {"cell": k}  # noqa: E731
        with Observer(trace=False) as obs:
            def flaky(key):
                if key == 2:
                    raise RuntimeError("boom")
                return runner(key)
            execute(flaky, [1, 2], jobs=1, store=store, spec_for=spec_for,
                    labels_for=lambda k: {"graph": "g", "variant": "v",
                                          "threads": k})
            execute(runner, [1], jobs=1, store=store, spec_for=spec_for)
        snap = obs.registry.snapshot()
        assert snap["campaign.cells{status=computed}"] == 1.0
        assert snap["campaign.cells{status=failed}"] == 1.0
        assert snap["campaign.cells{status=hit}"] == 1.0


class TestReportShape:
    def test_totals_and_hit_rate(self):
        r = ExecutionReport(hits=3, computed=6, failed=1)
        assert r.total == 10
        assert r.hit_rate == pytest.approx(0.3)


class TestWallCounters:
    def test_derived_properties(self):
        r = ExecutionReport(computed=8, failed=2, elapsed=2.0, jobs=4,
                            busy_seconds=6.0, store_gets=10,
                            store_get_seconds=0.5)
        assert r.cells_per_second == pytest.approx(5.0)
        assert r.worker_utilization == pytest.approx(0.75)
        assert r.store_get_latency == pytest.approx(0.05)

    def test_zero_guards(self):
        r = ExecutionReport()
        assert r.cells_per_second == 0.0
        assert r.worker_utilization == 0.0
        assert r.store_get_latency == 0.0

    def test_wall_block_keys(self):
        wall = ExecutionReport(computed=1, elapsed=1.0).wall()
        assert set(wall) == {"elapsed_s", "jobs", "busy_s",
                             "cells_per_second", "worker_utilization",
                             "store_gets", "store_get_latency_s"}

    def test_serial_execute_accrues_wall_time(self):
        report = execute(runner, KEYS, jobs=1)
        assert report.jobs == 1
        assert report.elapsed > 0
        assert 0.0 < report.busy_seconds <= report.elapsed + 0.1
        assert report.cells_per_second > 0
        assert report.store_gets == 0  # no store attached

    def test_store_lookups_timed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec_for = lambda k: {"cell": k}  # noqa: E731
        execute(runner, KEYS, jobs=1, store=store, spec_for=spec_for)
        report = execute(runner, KEYS, jobs=1, store=store,
                         spec_for=spec_for)
        assert report.hits == len(KEYS)
        assert report.store_gets == len(KEYS)
        assert report.store_get_seconds >= 0.0
        assert report.store_get_latency >= 0.0

    def test_pool_busy_seconds_from_supervisor(self):
        report = execute(runner, KEYS, jobs=2)
        assert report.jobs == 2
        assert report.busy_seconds > 0
        assert report.busy_seconds == \
            pytest.approx(report.resilience["busy_seconds"])
        assert 0.0 < report.worker_utilization <= 1.0


class TestInterrupt:
    def test_serial_first_sigint_returns_partial(self):
        def interrupting(key):
            if key == 3:
                raise KeyboardInterrupt
            return runner(key)

        report = execute(interrupting, KEYS, jobs=1)
        assert report.interrupted
        assert report.values == {1: runner(1), 2: runner(2)}
        assert report.elapsed >= 0.0  # the finally path still ran

    def test_pool_first_sigint_drains_and_persists_partial(self, tmp_path):
        import time

        store = ResultStore(tmp_path)
        fired = {"n": 0}

        def on_cell(key, value):
            fired["n"] += 1
            if fired["n"] == 1:
                raise KeyboardInterrupt

        def slow(key):
            time.sleep(0.05)
            return runner(key)

        report = execute(slow, KEYS, jobs=2, on_cell=on_cell, store=store,
                         spec_for=lambda k: {"cell": k})
        assert report.interrupted
        # Partial: at least the interrupting cell, not the whole sweep.
        assert 1 <= len(report.values) < len(KEYS)
        assert all(report.values[k] == runner(k) for k in report.values)
        # Every completed cell was persisted before the drain finished.
        assert all(store.contains({"cell": k}) for k in report.values)

    def test_pool_second_sigint_aborts_hard(self):
        import time

        def on_cell(key, value):
            raise KeyboardInterrupt

        def slow(key):
            time.sleep(0.05)
            return runner(key)

        with pytest.raises(KeyboardInterrupt):
            execute(slow, KEYS, jobs=2, on_cell=on_cell)


class TestProgressEta:
    def line(self, report, total=4):
        import io
        from repro.campaign.executor import _Progress

        meter = _Progress(total, "cells", enabled=True)
        meter.stream = io.StringIO()
        meter.tty = False
        meter.step = 1
        meter.t0 -= 1.0  # pretend a second has elapsed
        meter.update(report)
        return meter.stream.getvalue()

    def test_failed_cells_count_toward_rate(self):
        line = self.line(ExecutionReport(computed=1, failed=1))
        assert "eta -" not in line  # worked=2 over ~1s gives a real ETA

    def test_all_hits_so_far_reads_eta_zero(self):
        line = self.line(ExecutionReport(hits=2))
        assert "eta 0s" in line

    def test_nothing_done_yet_reads_dash(self):
        line = self.line(ExecutionReport(), total=4)
        assert line == "" or "eta -" in line
