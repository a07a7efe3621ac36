"""Worker supervision: deaths, timeouts, retries and Ctrl-C draining."""

import math
import multiprocessing
import os
import signal
import time

import pytest

from repro.campaign import supervise
from repro.campaign.supervise import Supervisor, cell_timeout


CTX = multiprocessing.get_context("fork")


def runner(key):
    return 1000.0 / key


def collect(supervisor, work):
    """Drive the supervisor; returns ``(values, errors, interrupted)``."""
    values, errors = {}, {}

    def on_result(key, value, error):
        values[key] = value
        if error is not None:
            errors[key] = error

    interrupted = supervisor.run(work, on_result)
    return values, errors, interrupted


class TestHappyPath:
    def test_results_keyed_not_ordered(self):
        sup = Supervisor(runner, CTX, jobs=3)
        values, errors, interrupted = collect(sup, [1, 2, 4, 5, 8])
        assert values == {k: runner(k) for k in [1, 2, 4, 5, 8]}
        assert errors == {} and not interrupted
        assert sup.stats.workers_spawned <= 3
        assert sup.stats.worker_deaths == 0

    def test_worker_exceptions_are_isolated(self):
        def flaky(key):
            if key == 2:
                raise RuntimeError("injected")
            return runner(key)

        sup = Supervisor(flaky, CTX, jobs=2)
        values, errors, _ = collect(sup, [1, 2, 4])
        assert math.isnan(values[2])
        assert "injected" in errors[2]
        assert values[1] == runner(1)


class TestWorkerDeath:
    def test_sigkilled_worker_is_requeued_and_replaced(self, tmp_path):
        marker = str(tmp_path / "killed-once")

        def suicidal(key):
            if key == 5:
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL)
                except FileExistsError:
                    pass  # already died once: succeed this time
                else:
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGKILL)
            return runner(key)

        sup = Supervisor(suicidal, CTX, jobs=2)
        values, errors, _ = collect(sup, [1, 5])
        assert errors == {}
        assert values == {1: runner(1), 5: runner(5)}
        assert sup.stats.worker_deaths == 1
        assert sup.stats.requeues == 1
        assert sup.stats.retries == 0  # a death never burns retry budget

    def test_repeat_killer_fails_after_requeue_limit(self, monkeypatch):
        def always_dies(key):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(supervise, "REQUEUE_LIMIT", 1)
        sup = Supervisor(always_dies, CTX, jobs=1)
        values, errors, _ = collect(sup, [3])
        assert math.isnan(values[3])
        assert "worker died 2 time(s)" in errors[3]
        assert sup.stats.worker_deaths == 2
        assert sup.stats.requeues == 1


    def test_worker_dead_while_idle_is_replaced(self):
        sup = Supervisor(runner, CTX, jobs=1)
        order = []

        def on_result(key, value, error):
            order.append(key)
            if len(order) == 1:
                # Kill the now idle worker and wait until it has exited,
                # without reaping it, so the supervisor sees it dead.
                pid = sup.pids()[0]
                os.kill(pid, signal.SIGKILL)
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)

        sup.run([1, 2], on_result)
        assert order == [1, 2]
        assert sup.stats.workers_spawned == 2
        assert sup.stats.worker_deaths == 0  # no cell was in flight


class TestRetry:
    def test_retry_runs_at_once_at_original_position(self, tmp_path):
        marker = str(tmp_path / "failed-once")

        def fails_once(key):
            if key == 2:
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL)
                except FileExistsError:
                    return runner(key)
                os.close(fd)
                raise RuntimeError("transient")
            return runner(key)

        order = []
        sup = Supervisor(fails_once, CTX, jobs=1, retries=1)
        sup.run([1, 2, 4, 5], lambda key, value, error: order.append(key))
        assert order == [1, 2, 4, 5]  # the retry went ahead of 4
        assert sup.stats.retries == 1


class TestTimeout:
    def test_hung_cell_is_killed_and_retried(self, tmp_path):
        marker = str(tmp_path / "hung-once")

        def hangs_once(key):
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                return runner(key)
            os.close(fd)
            time.sleep(3600)

        sup = Supervisor(hangs_once, CTX, jobs=1, retries=1, timeout=0.5)
        values, errors, _ = collect(sup, [4])
        assert errors == {}
        assert values[4] == runner(4)
        assert sup.stats.timeouts == 1
        assert sup.stats.retries == 1  # a timeout does burn an attempt

    def test_timeout_without_retries_records_error(self):
        def hangs(key):
            time.sleep(3600)

        sup = Supervisor(hangs, CTX, jobs=1, retries=0, timeout=0.3)
        values, errors, _ = collect(sup, [7])
        assert math.isnan(values[7])
        assert "REPRO_CELL_TIMEOUT" in errors[7]

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
        assert cell_timeout() is None
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
        assert cell_timeout() is None
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert cell_timeout() == 2.5
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "nope")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            cell_timeout()


class TestInterrupt:
    def test_first_interrupt_drains_and_reports(self):
        fired = {"n": 0}
        values = {}

        def on_result(key, value, error):
            values[key] = value
            fired["n"] += 1
            if fired["n"] == 1:
                raise KeyboardInterrupt

        def slow(key):
            time.sleep(0.05)
            return runner(key)

        sup = Supervisor(slow, CTX, jobs=2)
        interrupted = sup.run([1, 2, 4, 5, 8, 13], on_result)
        assert interrupted
        # Partial: the first cell plus at most the drained in-flight ones.
        assert 1 <= len(values) < 6
        assert all(values[k] == runner(k) for k in values)

    def test_second_interrupt_aborts_hard(self):
        def on_result(key, value, error):
            raise KeyboardInterrupt

        def slow(key):
            time.sleep(0.05)
            return runner(key)

        sup = Supervisor(slow, CTX, jobs=2)
        with pytest.raises(KeyboardInterrupt):
            sup.run([1, 2, 4, 5, 8, 13], on_result)
        assert sup.interrupted

    def test_workers_are_reaped_after_run(self):
        sup = Supervisor(runner, CTX, jobs=2)
        collect(sup, [1, 2, 4])
        assert sup.pids() == []
