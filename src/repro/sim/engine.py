"""A small deterministic discrete-event engine.

Simulated threads are Python generators that ``yield`` requests:

* a non-negative number — advance simulated time by that many cycles,
* a :class:`Barrier` — block until all parties arrive,
* a :class:`Condition` — block until :meth:`Condition.fire` is called.

The engine is deterministic: ties in time are broken by scheduling order
(a monotonically increasing sequence number), so identical inputs always
produce identical schedules — a property the tests assert and the
experiment harness relies on for reproducibility.  A process whose
wake-up is strictly the next event resumes in place instead of taking a
heap round-trip (:meth:`Process._step`), and processes woken together
(a barrier release, a condition firing, a region's workers starting)
share one heap entry that resumes them in order (:meth:`Engine.wake`);
the order, count and time of every event are unchanged.

Time is measured in clock cycles (floats).  Resources with queueing
semantics (atomics, memory channels) live in :mod:`repro.sim.resources`
and use time-reservation rather than engine-level blocking, which keeps
the event count per simulated kernel proportional to the number of
*chunks*, not the number of memory operations.

Hardening (used by the fault-injection layer, :mod:`repro.sim.faults`):

* a watchdog with event-count (``max_events``) and simulated-time
  (``max_time``) budgets raising :class:`SimulationTimeout`;
* deadlock detection that names which processes are blocked on which
  primitive (:class:`DeadlockError`), including when ``run(until=...)``
  drains the heap early;
* :class:`ThreadKilled` — raised inside a process generator to model a
  simulated thread dying mid-kernel; the engine retires the process
  instead of crashing the simulation.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Generator

from repro.check import checker as _check
from repro.obs import tracer as _obs_tracer
from repro.obs.tracer import PID_ENGINE, PID_THREADS

__all__ = ["Engine", "Barrier", "Condition", "Process",
           "SimulationError", "SimulationTimeout", "DeadlockError",
           "ThreadKilled"]


class SimulationError(RuntimeError):
    """Base class for structured simulation failures."""


class SimulationTimeout(SimulationError):
    """The watchdog budget (events or simulated time) was exhausted.

    Attributes name the exceeded budget and carry the engine state at the
    moment of the timeout, plus any blocked processes — the most common
    cause of a runaway simulation is a livelock that keeps generating
    events without finishing.
    """

    def __init__(self, message: str, *, kind: str, now: float,
                 events: int, blocked: list[str]):
        super().__init__(message)
        self.kind = kind          # "events" or "time"
        self.now = now
        self.events = events
        self.blocked = blocked


class DeadlockError(SimulationError):
    """No pending events but processes remain blocked.

    ``blocked`` lists human-readable descriptions (process name + the
    primitive it waits on) so a hung runtime names its stuck threads
    instead of failing with an opaque count.
    """

    def __init__(self, message: str, *, blocked: list[str]):
        super().__init__(message)
        self.blocked = blocked


class ThreadKilled(Exception):
    """A simulated thread was killed mid-kernel (fault injection).

    Raised *inside* a process generator (see
    :meth:`repro.sim.faults.FaultInjector`); the engine catches it and
    retires the process without treating it as an error.
    """

    def __init__(self, thread: int, at: float):
        super().__init__(f"thread {thread} killed at t={at:.1f}")
        self.thread = thread
        self.at = at


class Engine:
    """Event loop: a heap of ``(time, seq, callback)`` entries.

    ``max_events`` / ``max_time`` arm the watchdog: exceeding either
    budget raises :class:`SimulationTimeout` instead of looping forever.
    """

    def __init__(self, max_events: int | None = None,
                 max_time: float | None = None):
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        if max_time is not None and max_time < 0:
            raise ValueError(f"max_time must be >= 0, got {max_time}")
        self._now = 0.0
        self._heap: list = []
        self._seq = count()
        # Latest wake-up time a process may run ahead to: run()'s
        # ``until`` and ``max_time``, whichever is earlier (see Process._step).
        self._horizon = -math.inf
        self._active = 0  # processes not yet finished
        self._processes: list[Process] = []
        self.max_events = max_events
        self.max_time = max_time
        self.events_processed = 0
        # Telemetry (repro.obs) and concurrency checking (repro.check):
        # captured once here, null-checked per use.
        self.trace = _obs_tracer.active()
        self.check = _check.active()

    @property
    def now(self) -> float:
        """Current simulated time (cycles)."""
        return self._now

    def schedule(self, delay: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` after *delay* cycles."""
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay}")
        heappush(self._heap, (self._now + delay, next(self._seq), fn, args))

    def spawn(self, gen: Generator, name: str | None = None,
              tid: int | None = None) -> "Process":
        """Register a generator as a simulated process, starting now.

        ``tid`` is the simulated software-thread id — used by the tracer
        to place the process' events on its thread track.
        """
        proc = Process(self, gen, name=name, tid=tid)
        self.wake([proc], 0.0)
        return proc

    def wake(self, procs: list["Process"], delay: float) -> None:
        """Resume *procs* after *delay* cycles, in list order.

        The group takes one heap entry (one ``seq``) in place of one per
        member.  Its members' entries would have had consecutive ``seq``
        numbers at one time, so no other event could run between them;
        :meth:`_resume` runs them back to back, each still one event.
        """
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay}")
        if len(procs) == 1:
            entry = (self._now + delay, next(self._seq), procs[0]._wake, ())
        else:
            entry = (self._now + delay, next(self._seq), self._resume,
                     (procs,))
        heappush(self._heap, entry)

    def _resume(self, procs: list["Process"]) -> None:
        """Heap callback of a group :meth:`wake`: step each member.

        Each member but the last is counted, and the event budget
        checked, right after its step, where ``run()`` would count it had
        it been popped on its own; ``run()`` counts the last.  While a
        sibling is still pending at ``now``, no wake-up can be strictly
        the next event, so the horizon is lowered to keep the member from
        running ahead (see :meth:`Process._step`).
        """
        horizon, self._horizon = self._horizon, -math.inf
        try:
            for proc in procs[:-1]:
                proc._step()
                self.events_processed += 1
                if self.max_events is not None \
                        and self.events_processed > self.max_events:
                    raise self._timeout("events", self.max_events)
        finally:
            self._horizon = horizon
        procs[-1]._step()

    def blocked_processes(self) -> list[str]:
        """Descriptions of every live process blocked on a primitive."""
        out = []
        for p in self._processes:
            if not p.finished:
                target = repr(p.waiting_on) if p.waiting_on is not None \
                    else "<runnable or sleeping>"
                out.append(f"{p.name} waiting on {target}")
        return out

    def _timeout(self, kind: str, budget) -> SimulationTimeout:
        blocked = self.blocked_processes()
        detail = ("; blocked: " + ", ".join(blocked)) if blocked else ""
        if self.trace is not None:
            self.trace.instant("watchdog-timeout", PID_ENGINE, 0, self._now,
                               kind=kind, blocked=list(blocked))
        return SimulationTimeout(
            f"simulation exceeded its {kind} budget ({budget}) at "
            f"t={self._now:.1f} after {self.events_processed} events{detail}",
            kind=kind, now=self._now, events=self.events_processed,
            blocked=blocked)

    def run(self, until: float | None = None) -> float:
        """Process events until the heap is empty (or *until* is reached).

        Returns the final simulated time.  Raises :class:`DeadlockError`
        if the heap drains — even before *until* — while processes are
        still blocked, and :class:`SimulationTimeout` if a watchdog
        budget is exceeded.
        """
        horizon = min(math.inf if until is None else until,
                      math.inf if self.max_time is None else self.max_time)
        self._horizon = horizon
        heap = self._heap
        max_events = self.max_events
        while heap:
            t, _, fn, args = heap[0]
            if t > horizon:
                if until is not None and t > until:
                    # Stopped early with work still pending: not a deadlock.
                    return self._now
                raise self._timeout("time", self.max_time)
            heappop(heap)
            self._now = t
            fn(*args)
            self.events_processed += 1
            if max_events is not None and self.events_processed > max_events:
                raise self._timeout("events", max_events)
        if self._active:
            blocked = self.blocked_processes()
            lines = "\n  ".join(blocked) if blocked else "(unnamed)"
            if self.trace is not None:
                self.trace.instant("deadlock", PID_ENGINE, 0, self._now,
                                   blocked=list(blocked))
            raise DeadlockError(
                f"deadlock: {self._active} process(es) blocked with no "
                f"pending events at t={self._now:.1f}:\n  {lines}",
                blocked=blocked)
        return self._now


class Process:
    """A generator-backed simulated thread (see module docstring).

    Creating one registers it with the engine but schedules nothing:
    whoever creates it wakes it (:meth:`Engine.spawn`, or one group
    :meth:`Engine.wake` for a region's workers).
    """

    def __init__(self, engine: Engine, gen: Generator, name: str | None = None,
                 tid: int | None = None):
        self.engine = engine
        self.gen = gen
        self.name = name if name is not None else f"proc-{len(engine._processes)}"
        self.tid = tid  # simulated software-thread id (tracer track), or None
        self.finished = False
        self.killed = False
        self.waiting_on = None  # Barrier/Condition currently blocking us
        self._wake = self._step  # one bound method for every heap entry
        engine._active += 1
        engine._processes.append(self)

    def _retire(self, killed: bool = False) -> None:
        self.finished = True
        self.killed = killed
        self.waiting_on = None
        self.engine._active -= 1
        trace = self.engine.trace
        if trace is not None and self.tid is not None and killed:
            trace.instant("killed", PID_THREADS, self.tid, self.engine.now)
        if killed and self.engine.check is not None:
            self.engine.check.on_kill(self.tid)

    def _step(self) -> None:
        """Resume the generator until it blocks, finishes or sleeps.

        A sleep whose wake-up time is strictly earlier than every pending
        event, and within ``run()``'s horizon, is the event ``run()``
        would pop next: the process runs ahead in place, counting the
        event (and checking the event budget) exactly where ``run()``
        would.  Equal times go through the heap, where the older
        sequence number wins (DESIGN.md §3, "Event order"), and so does
        every wake-up of a group member with siblings still pending
        (:meth:`Engine._resume` lowers the horizon for those).
        """
        self.waiting_on = None
        engine = self.engine
        heap = engine._heap
        send = self.gen.send
        while True:
            try:
                request = send(None)
            except StopIteration:
                self._retire()
                return
            except ThreadKilled:
                self._retire(killed=True)
                return
            if request.__class__ is float and request >= 0:
                # The common case, a plain non-negative float delay: the
                # checks below would pass and float() would return it.
                t = engine._now + request
            else:
                if not isinstance(request, (int, float)):
                    if isinstance(request, (Barrier, Condition)):
                        request._block(self)
                        return
                    raise TypeError(
                        f"process yielded unsupported request {request!r}")
                if not request >= 0:
                    raise ValueError(f"negative or NaN delay {request}")
                t = engine._now + float(request)
            if t > engine._horizon or (heap and t >= heap[0][0]):
                heappush(heap, (t, next(engine._seq), self._wake, ()))
                return
            engine.events_processed += 1
            if engine.max_events is not None \
                    and engine.events_processed > engine.max_events:
                raise engine._timeout("events", engine.max_events)
            engine._now = t


class Barrier:
    """Reusable synchronisation barrier for *parties* processes.

    Release is charged ``cost_fn(parties)`` cycles after the last arrival
    (e.g. a logarithmic ring-hop tree on the simulated chip).

    :meth:`drop_party` removes one expected arrival — the fault layer
    calls it when a participating thread is killed, so the survivors are
    released instead of deadlocking.
    """

    def __init__(self, engine: Engine, parties: int,
                 cost_fn: Callable[[int], float] | None = None):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.engine = engine
        self.parties = parties
        self.cost_fn = cost_fn or (lambda n: 0.0)
        self._waiting: list[Process] = []
        self.trips = 0

    def __repr__(self) -> str:
        return (f"Barrier(parties={self.parties}, "
                f"arrived={len(self._waiting)}, trips={self.trips})")

    def _block(self, proc: Process) -> None:
        proc.waiting_on = self
        self._waiting.append(proc)
        trace = self.engine.trace
        if trace is not None and proc.tid is not None:
            trace.begin("barrier-wait", PID_THREADS, proc.tid, self.engine.now)
        self._maybe_release()

    def drop_party(self) -> None:
        """One expected participant died; stop waiting for it."""
        if self.parties <= 0:
            raise RuntimeError("drop_party() on a barrier with no parties")
        self.parties -= 1
        self._maybe_release()

    def _maybe_release(self) -> None:
        if self._waiting and len(self._waiting) >= self.parties:
            waiting, self._waiting = self._waiting, []
            self.trips += 1
            release_delay = self.cost_fn(max(1, self.parties))
            trace = self.engine.trace
            for p in waiting:
                if trace is not None and p.tid is not None:
                    trace.end("barrier-wait", PID_THREADS, p.tid,
                              self.engine.now + release_delay)
            self.engine.wake(waiting, release_delay)
            if self.engine.check is not None:
                tids = [p.tid for p in waiting if p.tid is not None]
                self.engine.check.on_barrier(self, tids, self.engine.now)


class Condition:
    """One-shot wakeup: processes block until :meth:`fire` is called.

    Processes that wait after the condition has fired resume immediately.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self.fired = False
        self._waiting: list[Process] = []

    def __repr__(self) -> str:
        return (f"Condition(fired={self.fired}, "
                f"waiters={len(self._waiting)})")

    def _block(self, proc: Process) -> None:
        if self.fired:
            if self.engine.check is not None:
                self.engine.check.on_cond_wake(self, proc.tid)
            self.engine.wake([proc], 0.0)
        else:
            proc.waiting_on = self
            self._waiting.append(proc)
            trace = self.engine.trace
            if trace is not None and proc.tid is not None:
                trace.begin("cond-wait", PID_THREADS, proc.tid,
                            self.engine.now)

    def fire(self, tid: int | None = None) -> None:
        """Wake all current and future waiters.

        ``tid`` identifies the firing thread so the checker can mint a
        happens-before edge from the firer to every (current and future)
        waiter; it has no effect on the simulation itself.
        """
        self.fired = True
        waiting, self._waiting = self._waiting, []
        trace = self.engine.trace
        check = self.engine.check
        if check is not None:
            check.on_cond_fire(self, tid)
        for p in waiting:
            if trace is not None and p.tid is not None:
                trace.end("cond-wait", PID_THREADS, p.tid, self.engine.now)
            if check is not None:
                check.on_cond_wake(self, p.tid)
        if waiting:
            self.engine.wake(waiting, 0.0)
