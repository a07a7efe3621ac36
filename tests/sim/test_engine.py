"""Tests for the discrete-event engine."""

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

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_bad_yield_rejected(self, delay):
        eng = Engine()
        log = []
        eng.schedule(2.0, log.append, "later")

        def proc():
            yield delay

        eng.spawn(proc())
        with pytest.raises(ValueError, match="negative or NaN"):
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
        eng = Engine()

        def proc():
            yield "what"

        eng.spawn(proc())
        with pytest.raises(TypeError, match="unsupported"):
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
