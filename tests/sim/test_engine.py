"""Tests for the discrete-event engine."""

import re

import numpy as np
import pytest

from repro.sim.engine import Barrier, Condition, Engine


class TestEngine:
    def test_empty_run(self):
        assert Engine().run() == 0.0

    def test_schedule_order(self):
        eng = Engine()
        log = []
        eng.schedule(5.0, lambda: log.append(("a", eng.now)))
        eng.schedule(2.0, lambda: log.append(("b", eng.now)))
        eng.run()
        assert log == [("b", 2.0), ("a", 5.0)]

    def test_ties_broken_by_insertion_order(self):
        eng = Engine()
        log = []
        for name in "abc":
            eng.schedule(1.0, log.append, name)
        eng.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Engine().schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Engine().schedule(float("nan"), lambda: None)

    @pytest.mark.parametrize("delay", [
        -1.0, float("nan"), pytest.param(-2, id="int"),
        pytest.param(np.float64(-0.5), id="np-negative"),
        pytest.param(np.float64("nan"), id="np-nan"),
    ])
    def test_bad_yield_rejected(self, delay):
        eng = Engine()
        log = []
        eng.schedule(2.0, log.append, "later")

        def proc():
            yield delay

        eng.spawn(proc())
        message = f"negative or NaN delay {delay}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            eng.run()
        assert log == [] and eng.now == 0.0

    def test_run_until(self):
        eng = Engine()
        log = []
        eng.schedule(1.0, log.append, 1)
        eng.schedule(10.0, log.append, 10)
        eng.run(until=5.0)
        assert log == [1]
        eng.run()
        assert log == [1, 10]

    def test_time_monotone(self):
        eng = Engine()
        times = []

        def proc():
            for d in [3.0, 0.0, 7.5, 1.0]:
                yield d
                times.append(eng.now)

        eng.spawn(proc())
        eng.run()
        assert times == [3.0, 3.0, 10.5, 11.5]
        assert times == sorted(times)

    def test_process_completion(self):
        eng = Engine()

        def empty():
            return
            yield  # pragma: no cover - makes this a generator

        p = eng.spawn(empty())
        eng.run()
        assert p.finished

    def test_unsupported_yield_rejected(self):
        for request in ("what", None, [1.0]):
            eng = Engine()

            def proc(request):
                yield request

            eng.spawn(proc(request))
            message = f"process yielded unsupported request {request!r}"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                eng.run()

    def test_deterministic_interleaving(self):
        def run_once():
            eng = Engine()
            log = []

            def proc(name, step):
                for i in range(5):
                    yield step
                    log.append((name, eng.now))

            eng.spawn(proc("x", 2.0))
            eng.spawn(proc("y", 3.0))
            eng.run()
            return log

        assert run_once() == run_once()


class TestBarrier:
    def test_releases_when_full(self):
        eng = Engine()
        done = []
        barrier = Barrier(eng, 3)

        def proc(delay):
            yield delay
            yield barrier
            done.append(eng.now)

        for d in (1.0, 5.0, 2.0):
            eng.spawn(proc(d))
        eng.run()
        assert done == [5.0, 5.0, 5.0]
        assert barrier.trips == 1

    def test_release_cost(self):
        eng = Engine()
        done = []
        barrier = Barrier(eng, 2, cost_fn=lambda n: 10.0 * n)

        def proc():
            yield barrier
            done.append(eng.now)

        eng.spawn(proc())
        eng.spawn(proc())
        eng.run()
        assert done == [20.0, 20.0]

    def test_reusable(self):
        eng = Engine()
        count = []
        barrier = Barrier(eng, 2)

        def proc():
            yield barrier
            yield 1.0
            yield barrier
            count.append(eng.now)

        eng.spawn(proc())
        eng.spawn(proc())
        eng.run()
        assert barrier.trips == 2
        assert count == [1.0, 1.0]

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            Barrier(Engine(), 0)

    def test_deadlock_detected(self):
        eng = Engine()
        barrier = Barrier(eng, 2)

        def proc():
            yield barrier

        eng.spawn(proc())  # second party never arrives
        with pytest.raises(RuntimeError, match="deadlock"):
            eng.run()


class TestCondition:
    def test_wakes_waiters(self):
        eng = Engine()
        log = []
        cond = Condition(eng)

        def waiter():
            yield cond
            log.append(eng.now)

        def firer():
            yield 7.0
            cond.fire()

        eng.spawn(waiter())
        eng.spawn(firer())
        eng.run()
        assert log == [7.0]

    def test_fired_condition_passes_through(self):
        eng = Engine()
        log = []
        cond = Condition(eng)
        cond.fire()

        def waiter():
            yield 2.0
            yield cond
            log.append(eng.now)

        eng.spawn(waiter())
        eng.run()
        assert log == [2.0]

    def test_fire_with_no_waiters_releases_later_arrival(self):
        eng = Engine()
        log = []
        cond = Condition(eng)

        def firer():
            yield 1.0
            cond.fire()

        def late_waiter():
            yield 5.0
            yield cond  # fired long ago: passes straight through
            log.append(eng.now)

        eng.spawn(firer())
        eng.spawn(late_waiter())
        eng.run()
        assert log == [5.0]


class TestWatchdog:
    @staticmethod
    def ticker(eng, step=1.0):
        def proc():
            while True:
                yield step
        return proc

    def test_event_budget(self):
        from repro.sim.engine import SimulationTimeout
        eng = Engine(max_events=50)
        eng.spawn(self.ticker(eng)())
        with pytest.raises(SimulationTimeout, match="event") as exc:
            eng.run()
        assert exc.value.kind == "events"
        assert exc.value.events > 50

    def test_time_budget(self):
        from repro.sim.engine import SimulationTimeout
        eng = Engine(max_time=100.0)
        eng.spawn(self.ticker(eng)())
        with pytest.raises(SimulationTimeout, match="time") as exc:
            eng.run()
        assert exc.value.kind == "time"
        assert exc.value.now == pytest.approx(100.0)

    def test_budgets_off_by_default(self):
        eng = Engine()

        def proc():
            for _ in range(500):
                yield 1.0

        eng.spawn(proc())
        assert eng.run() == 500.0
        assert eng.events_processed >= 500

    def test_timeout_reports_blocked_processes(self):
        from repro.sim.engine import SimulationTimeout
        eng = Engine(max_events=20)
        barrier = Barrier(eng, 2)

        def stuck():
            yield barrier

        def spinner():
            while True:
                yield 1.0

        eng.spawn(stuck(), name="stuck-worker")
        eng.spawn(spinner(), name="spinner")
        with pytest.raises(SimulationTimeout) as exc:
            eng.run()
        assert any("stuck-worker" in b for b in exc.value.blocked)


class TestDeadlockDiagnostics:
    def test_names_blocked_process_and_primitive(self):
        from repro.sim.engine import DeadlockError
        eng = Engine()
        barrier = Barrier(eng, 2)

        def proc():
            yield barrier

        eng.spawn(proc(), name="omp-w0")
        with pytest.raises(DeadlockError, match="omp-w0") as exc:
            eng.run()
        assert "Barrier" in str(exc.value)
        assert len(exc.value.blocked) == 1

    def test_condition_waiter_named(self):
        from repro.sim.engine import DeadlockError
        eng = Engine()
        cond = Condition(eng)

        def proc():
            yield cond

        eng.spawn(proc(), name="idle-worker")
        with pytest.raises(DeadlockError, match="idle-worker"):
            eng.run()

    def test_run_until_still_detects_drained_heap_deadlock(self):
        # Regression: run(until=...) used to skip the deadlock check when
        # the heap drained before the horizon, silently returning.
        from repro.sim.engine import DeadlockError
        eng = Engine()
        barrier = Barrier(eng, 2)

        def proc():
            yield barrier

        eng.spawn(proc(), name="w0")
        with pytest.raises(DeadlockError, match="w0"):
            eng.run(until=1e9)

    def test_run_until_pending_events_is_not_deadlock(self):
        eng = Engine()
        barrier = Barrier(eng, 2)
        log = []

        def blocked():
            yield barrier
            log.append(eng.now)

        def late():
            yield 100.0
            yield barrier
            log.append(eng.now)

        eng.spawn(blocked())
        eng.spawn(late())
        eng.run(until=10.0)  # late arrival still pending: fine
        assert log == []
        eng.run()
        assert log == [100.0, 100.0]


class TestDropParty:
    def test_survivors_released(self):
        eng = Engine()
        done = []
        barrier = Barrier(eng, 3)

        def proc():
            yield barrier
            done.append(eng.now)

        eng.spawn(proc())
        eng.spawn(proc())

        def reaper():
            yield 5.0
            barrier.drop_party()

        eng.spawn(reaper())
        eng.run()
        assert len(done) == 2

    def test_drop_below_zero_rejected(self):
        eng = Engine()
        barrier = Barrier(eng, 1)
        barrier.drop_party()
        with pytest.raises(RuntimeError, match="no parties"):
            barrier.drop_party()

    def test_drop_then_reuse(self):
        eng = Engine()
        count = []
        barrier = Barrier(eng, 3)
        barrier.drop_party()

        def proc():
            yield barrier
            yield 1.0
            yield barrier
            count.append(eng.now)

        eng.spawn(proc())
        eng.spawn(proc())
        eng.run()
        assert barrier.trips == 2
        assert count == [1.0, 1.0]


class TestThreadKilledRetire:
    def test_killed_process_marks_flag(self):
        from repro.sim.engine import ThreadKilled
        eng = Engine()

        def proc():
            yield 1.0
            raise ThreadKilled(0, eng.now)

        p = eng.spawn(proc())
        eng.run()
        assert p.finished and p.killed

    def test_other_exceptions_propagate(self):
        eng = Engine()

        def proc():
            yield 1.0
            raise ValueError("boom")

        eng.spawn(proc())
        with pytest.raises(ValueError, match="boom"):
            eng.run()


class TestDelayRequests:
    """A plain non-negative float takes the short path in Process._step;
    ints and numpy floats keep their conversion (the rejected requests
    are in TestEngine)."""

    @pytest.mark.parametrize("pending", [False, True])
    def test_int_and_numpy_delays_leave_now_a_float(self, pending):
        eng = Engine()
        seen = []
        if pending:  # an earlier event sends each wake-up through the heap
            eng.schedule(0.5, lambda: None)

        def proc():
            for d in [3, np.float64(2.5), 1.25, 0, np.float64(0.0)]:
                yield d
                seen.append((type(eng.now), eng.now))

        eng.spawn(proc())
        assert type(eng.run()) is float
        assert seen == [(float, 3.0), (float, 5.5), (float, 6.75),
                        (float, 6.75), (float, 6.75)]


class TestRunAhead:
    """A wake-up strictly earlier than every pending event resumes its
    process in place; nothing observable may differ from the heap path."""

    def test_equal_time_heap_event_runs_first(self):
        eng = Engine()
        log = []

        def proc():
            yield 5.0
            log.append(("proc", eng.now))

        eng.spawn(proc())
        eng.schedule(5.0, lambda: log.append(("event", eng.now)))
        eng.run()
        assert log == [("event", 5.0), ("proc", 5.0)]

    def test_interleaving_follows_time_then_seq(self):
        eng = Engine()
        log = []

        def proc(name, step, n):
            for _ in range(n):
                yield step
                log.append((name, eng.now))

        eng.spawn(proc("x", 2.0, 3))
        eng.spawn(proc("y", 3.0, 2))
        eng.run()
        assert log == [("x", 2.0), ("y", 3.0), ("x", 4.0), ("y", 6.0),
                       ("x", 6.0)]
        assert eng.events_processed == 7

    def test_run_until_stops_at_the_same_event(self):
        eng = Engine()
        times = []

        def proc():
            for _ in range(6):
                yield 1.0
                times.append(eng.now)

        eng.spawn(proc())
        assert eng.run(until=3.0) == 3.0
        assert times == [1.0, 2.0, 3.0]
        assert eng.events_processed == 4
        assert eng.run() == 6.0
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert eng.events_processed == 7

    def test_max_time_raises_at_the_same_time_and_count(self):
        from repro.sim.engine import SimulationTimeout
        eng = Engine(max_time=10.0)
        eng.spawn(TestWatchdog.ticker(eng, 3.0)())
        with pytest.raises(SimulationTimeout) as exc:
            eng.run()
        assert exc.value.kind == "time"
        assert (exc.value.now, exc.value.events) == (9.0, 4)
        assert eng.events_processed == 4

    def test_max_events_raises_at_the_same_time_and_count(self):
        from repro.sim.engine import SimulationTimeout
        eng = Engine(max_events=3)
        eng.spawn(TestWatchdog.ticker(eng)())
        with pytest.raises(SimulationTimeout) as exc:
            eng.run()
        assert exc.value.kind == "events"
        assert (exc.value.now, exc.value.events) == (3.0, 4)


class TestGroupWake:
    """Processes woken together (a barrier release, a condition firing, a
    region's workers starting) share one heap entry.  The expected values
    were recorded with one heap entry per woken process."""

    def test_event_budget_inside_released_barrier_group(self):
        from repro.sim.engine import SimulationTimeout
        eng = Engine(max_events=7)
        barrier = Barrier(eng, 3, cost_fn=lambda n: 4.0)
        log = []

        def proc(name, delay):
            yield delay
            yield barrier
            log.append((name, eng.now))
            yield 1.0

        for i, delay in enumerate((1.0, 3.0, 2.0)):
            eng.spawn(proc(f"w{i}", delay), name=f"w{i}")
        with pytest.raises(SimulationTimeout) as exc:
            eng.run()
        assert (exc.value.kind, exc.value.events, exc.value.now) == \
            EXPECTED_BUDGET_IN_GROUP["exc"]
        assert exc.value.blocked == EXPECTED_BUDGET_IN_GROUP["blocked"]
        assert log == EXPECTED_BUDGET_IN_GROUP["log"]
        assert eng.events_processed == exc.value.events

    @pytest.mark.parametrize("budget", range(1, 12))
    def test_every_event_budget_trips_where_it_did(self, budget):
        from repro.sim.engine import SimulationTimeout
        eng = Engine(max_events=budget)
        barrier = Barrier(eng, 3, cost_fn=lambda n: 4.0)
        cond = Condition(eng)

        def proc(delay):
            yield delay
            yield barrier
            yield cond
            yield 0.0

        def firer():
            yield 9.0
            cond.fire()

        for delay in (1.0, 3.0, 2.0):
            eng.spawn(proc(delay))
        eng.spawn(firer())
        try:
            eng.run()
            got = ("done", eng.events_processed, eng.now)
        except SimulationTimeout as exc:
            got = ("timeout", exc.events, exc.now, exc.blocked)
        assert got == EXPECTED_EVERY_BUDGET[budget]

    def test_member_yielding_zero_resumes_after_pending_siblings(self):
        eng = Engine()
        cond = Condition(eng)
        log = []

        def waiter(name, zero):
            yield cond
            log.append((name, "woke", eng.now))
            if zero:
                yield 0
                log.append((name, "after 0", eng.now))
            yield 2.0
            log.append((name, "slept", eng.now))

        def firer():
            yield 5.0
            cond.fire()

        eng.spawn(waiter("a", True))
        eng.spawn(waiter("b", False))
        eng.spawn(waiter("c", True))
        eng.spawn(firer())
        eng.run()
        assert log == [("a", "woke", 5.0), ("b", "woke", 5.0),
                       ("c", "woke", 5.0), ("a", "after 0", 5.0),
                       ("c", "after 0", 5.0), ("b", "slept", 7.0),
                       ("a", "slept", 7.0), ("c", "slept", 7.0)]
        assert eng.events_processed == EXPECTED_ZERO_YIELD_EVENTS

    @pytest.mark.parametrize("name", ["omp-dynamic", "omp-static", "cilk"])
    def test_kill_armed_at_zero_after_the_spawn_group(self, name,
                                                      monkeypatch):
        import hashlib

        import numpy as np

        from repro.machine.config import KNF
        from repro.machine.costs import WorkCosts
        from repro.runtime.base import Schedule
        from repro.runtime.cilk import cilk_parallel_for
        from repro.runtime.openmp import openmp_parallel_for
        from repro.sim import engine as _engine
        from repro.sim.faults import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec)

        rng = np.random.default_rng(5)
        work = WorkCosts(rng.gamma(2.0, 150.0, 600),
                         rng.exponential(80.0, 600), np.full(600, 0.25))
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(FaultKind.THREAD_KILL, 2, 0.0),)))
        events = []
        run = _engine.Engine.run

        def counting_run(self, *args, **kwargs):
            end = run(self, *args, **kwargs)
            events.append(self.events_processed)
            return end

        monkeypatch.setattr(_engine.Engine, "run", counting_run)
        if name == "cilk":
            stats = cilk_parallel_for(KNF, 8, work, grain=16, seed=2,
                                      faults=inj)
        else:
            schedule = (Schedule.DYNAMIC if name == "omp-dynamic"
                        else Schedule.STATIC)
            stats = openmp_parallel_for(KNF, 8, work, schedule=schedule,
                                        chunk=16, faults=inj)
        digest = hashlib.sha256(";".join(
            f"{c.lo},{c.hi},{c.thread},{c.start!r},{c.end!r}"
            for c in stats.chunks).encode()).hexdigest()[:16]
        # Every worker's first step precedes the kill event, so the victim
        # dies at its second scheduling point, not its first.
        assert stats.killed_threads == [2]
        assert (digest, len(stats.chunks), events, stats.span) == \
            EXPECTED_KILL_AT_ZERO[name]


R = "<runnable or sleeping>"


def _barrier(arrived, trips):
    return f"Barrier(parties=3, arrived={arrived}, trips={trips})"


def _cond(fired, waiters):
    return f"Condition(fired={fired}, waiters={waiters})"


def _waiting(*targets):
    return [f"proc-{i} waiting on {t}" for i, t in enumerate(targets)]


EXPECTED_BUDGET_IN_GROUP = {
    "exc": ("events", 8, 7.0),
    "blocked": [f"w0 waiting on {R}", f"w1 waiting on {_barrier(0, 1)}",
                f"w2 waiting on {R}"],
    "log": [("w0", 7.0), ("w2", 7.0)],
}
EXPECTED_EVERY_BUDGET = {
    1: ("timeout", 2, 0.0, _waiting(R, R, R, R)),
    2: ("timeout", 3, 0.0, _waiting(R, R, R, R)),
    3: ("timeout", 4, 0.0, _waiting(R, R, R, R)),
    4: ("timeout", 5, 1.0, _waiting(_barrier(1, 0), R, R, R)),
    5: ("timeout", 6, 2.0, _waiting(_barrier(2, 0), R, _barrier(2, 0), R)),
    6: ("timeout", 7, 3.0, _waiting(_barrier(0, 1), _barrier(0, 1),
                                    _barrier(0, 1), R)),
    7: ("timeout", 8, 7.0, _waiting(_cond(False, 1), _barrier(0, 1),
                                    _barrier(0, 1), R)),
    8: ("timeout", 9, 7.0, _waiting(_cond(False, 2), _barrier(0, 1),
                                    _cond(False, 2), R)),
    9: ("timeout", 10, 7.0, _waiting(_cond(False, 3), _cond(False, 3),
                                     _cond(False, 3), R)),
    10: ("timeout", 11, 9.0, _waiting(_cond(True, 0), _cond(True, 0),
                                      _cond(True, 0))),
    11: ("timeout", 12, 9.0, _waiting(R, _cond(True, 0), _cond(True, 0))),
}
EXPECTED_ZERO_YIELD_EVENTS = 13
EXPECTED_KILL_AT_ZERO = {
    "omp-dynamic": ("65b871ada6f4d64d", 38, [99], 38572.32227306765),
    "omp-static": ("37c1b3146a5dcfa9", 34, [84], 34443.83881482977),
    "cilk": ("6723c712ed8a86c8", 64, [177], 40209.445142023666),
}
