"""Shared machinery for the simulated programming-model runtimes.

Each runtime executes a ``parallel_for`` over ``len(work)`` items on a
simulated :class:`~repro.machine.core.Chip`: software threads are event
processes that fetch chunks according to the model's scheduling policy,
execute them on their SMT context (costs from
:class:`~repro.machine.costs.WorkCosts`), and join at a barrier.  The
returned :class:`~repro.sim.stats.LoopStats` carries the elapsed simulated
cycles *and* the chunk schedule — `(lo, hi, thread, start, end)` per chunk
— which the kernels replay to compute time-faithful semantics (speculative
colouring conflicts, relaxed-queue duplicates).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable


from repro._util import env_float, env_int
from repro.machine.config import MachineConfig
from repro.machine.core import Chip
from repro.machine.costs import WorkCosts
from repro.obs import metrics as _obs_metrics
from repro.obs.metrics import MetricsFrame
from repro.obs.tracer import PID_ENGINE, PID_THREADS
from repro.sim.engine import Barrier, Engine, Process
from repro.sim.stats import ChunkExec, LoopStats

#: Watchdog default: engine events per parallel region.  Far above any
#: legitimate run (events scale with chunk count), so it only trips on
#: runaway/livelocked simulations.  Override with REPRO_MAX_EVENTS
#: (0 disables); REPRO_MAX_SIM_CYCLES bounds simulated time (default off).
DEFAULT_MAX_EVENTS = 100_000_000


def _watchdog_budgets() -> tuple[int | None, float | None]:
    """(max_events, max_time) for a region engine, from the environment."""
    ev = env_int("REPRO_MAX_EVENTS", lo=0)
    max_events = DEFAULT_MAX_EVENTS if ev is None else (ev or None)
    max_time = env_float("REPRO_MAX_SIM_CYCLES", lo=0.0)
    return max_events, max_time or None

__all__ = ["ProgrammingModel", "Schedule", "Partitioner", "TlsMode",
           "RuntimeSpec", "LoopContext"]


class ProgrammingModel(enum.Enum):
    """The three models the paper compares (§II)."""

    OPENMP = "openmp"
    CILK = "cilkplus"
    TBB = "tbb"


class Schedule(enum.Enum):
    """OpenMP loop scheduling policies (§II-A)."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    GUIDED = "guided"


class Partitioner(enum.Enum):
    """TBB range partitioners (§II-C)."""

    SIMPLE = "simple"
    AUTO = "auto"
    AFFINITY = "affinity"


class TlsMode(enum.Enum):
    """How per-thread scratch state (the ``localFC`` array) is obtained
    (§IV-A2): pre-allocated by worker ID, or lazily via a holder/view."""

    WORKER_ID = "worker_id"
    HOLDER = "holder"


@dataclass(frozen=True)
class RuntimeSpec:
    """A fully-specified runtime variant, e.g. "OpenMP dynamic, chunk 100".

    ``chunk`` is the OpenMP chunk size / Cilk grain / TBB minimum range
    size.  ``tls_entries`` (set per call) models the per-thread scratch
    array the kernel needs (colouring: Δ+1 forbidden-colour slots).
    """

    model: ProgrammingModel
    schedule: Schedule = Schedule.DYNAMIC
    partitioner: Partitioner = Partitioner.SIMPLE
    tls_mode: TlsMode = TlsMode.HOLDER
    chunk: int = 100

    @property
    def tls_access_cycles(self) -> float:
        """Issue cycles per *access* to thread-local scratch state.

        OpenMP code indexes a preallocated array through a raw pointer
        (§IV-A1, ~free); a Cilk holder resolves the view through the
        runtime's hash map on each access (§IV-A2); TBB's
        ``enumerable_thread_specific::local()`` is cheaper but not free
        (§IV-A3).  On the in-order KNF pipeline these extra instructions
        consume issue slots, which — as the paper's conclusion notes — both
        slows the sequential run and *dampens scalability* once SMT
        saturates the pipeline.  This constant is the main calibrated
        lever behind the OpenMP > TBB > Cilk ordering of Figure 1.
        """
        if self.model is ProgrammingModel.OPENMP:
            return 1.0
        if self.model is ProgrammingModel.TBB:
            return 30.0
        # Cilk: holder view lookup, or __cilkrts_get_worker_number indexing
        # ("the performance of both variants are very close", §V-B).  Most
        # of Cilk's measured per-item cost sits in the outlined loop body
        # (see ``body_overhead``), not the view lookup itself.
        return 4.0 if self.tls_mode is TlsMode.HOLDER else 3.5

    @property
    def body_overhead(self) -> tuple[float, float]:
        """(per-item, per-edge) issue-cycle overhead of the outlined loop
        body.

        OpenMP loop bodies compile to straight-line code; ``cilk_for`` and
        ``tbb::parallel_for`` invoke the body through an outlined function
        object / lambda whose captures defeat some inlining — a small
        per-iteration and per-neighbour-access tax that, like the TLS
        lookups, "increases in-core pressure" (paper §VI) and therefore
        caps scalability once SMT saturates the in-order pipeline.
        Calibrated jointly with the other constants (EXPERIMENTS.md).
        """
        if self.model is ProgrammingModel.OPENMP:
            return (0.0, 0.0)
        if self.model is ProgrammingModel.TBB:
            if self.partitioner is Partitioner.AFFINITY:
                # Mailbox replay bookkeeping per task plus affinity-miss
                # rescheduling ("consistently slower than the auto
                # partitioner", §V-B).
                return (40.0, 14.0)
            return (15.0, 5.0)
        # Calibrated against Fig. 1(b)/3(b): the paper's Cilk runs imply a
        # per-neighbour-access cost several times OpenMP's, consistent
        # with icc failing to optimise the gather loop inside the outlined
        # cilk_for body.  Because it is charged per edge (not per
        # repetition), it amortises as the computation grows — producing
        # Fig. 3(b)'s *rising* Cilk curve.
        return (30.0, 36.0)

    @property
    def label(self) -> str:
        """Figure-legend style name, e.g. ``OpenMP-dynamic``."""
        if self.model is ProgrammingModel.OPENMP:
            return f"OpenMP-{self.schedule.value}"
        if self.model is ProgrammingModel.TBB:
            return f"TBB-{self.partitioner.value}"
        suffix = "-holder" if self.tls_mode is TlsMode.HOLDER else ""
        return f"CilkPlus{suffix}"

    def parallel_for(self, config: MachineConfig, n_threads: int,
                     work: WorkCosts, *, tls_entries: int = 0,
                     fork: bool = True, seed: int = 0,
                     faults=None, access=None) -> LoopStats:
        """Run one simulated parallel loop; returns its :class:`LoopStats`.

        ``faults`` is an optional
        :class:`~repro.sim.faults.FaultInjector`; pass the same instance
        to every loop of a kernel so fault windows span the whole run.
        ``access`` is an optional :class:`~repro.kernels.base.AccessSet`
        declaring the loop's per-chunk memory footprint for the
        concurrency checker (:mod:`repro.check`); it is ignored when no
        checker is installed.
        """
        from repro.runtime.openmp import openmp_parallel_for
        from repro.runtime.cilk import cilk_parallel_for
        from repro.runtime.tbb import tbb_parallel_for

        if self.model is ProgrammingModel.OPENMP:
            return openmp_parallel_for(config, n_threads, work,
                                       schedule=self.schedule, chunk=self.chunk,
                                       tls_entries=tls_entries, fork=fork,
                                       faults=faults, access=access)
        if self.model is ProgrammingModel.CILK:
            return cilk_parallel_for(config, n_threads, work, grain=self.chunk,
                                     tls_mode=self.tls_mode,
                                     tls_entries=tls_entries, fork=fork,
                                     seed=seed, faults=faults, access=access)
        return tbb_parallel_for(config, n_threads, work,
                                partitioner=self.partitioner, chunk=self.chunk,
                                tls_entries=tls_entries, fork=fork, seed=seed,
                                faults=faults, access=access)


@dataclass
class LoopContext:
    """Per-loop simulation state shared by the runtime implementations.

    ``faults`` (a :class:`~repro.sim.faults.FaultInjector` or None) plugs
    the fault layer into the region: kill events are armed on the region
    engine, SMT hangs delay chunk starts, and the chip applies
    throttle/stall/jitter inside :meth:`execute_chunk`.  Runtime worker
    bodies must call :meth:`fault_point` at every chunk-fetch boundary and
    join via :meth:`join` so a killed thread stops at a scheduling point
    and never strands the barrier.
    """

    config: MachineConfig
    n_threads: int
    work: WorkCosts
    stats: LoopStats = field(default_factory=LoopStats)
    faults: object = None
    access: object = None  # AccessSet for the checker, or None

    def __post_init__(self):
        max_events, max_time = _watchdog_budgets()
        self.engine = Engine(max_events=max_events, max_time=max_time)
        self.chip = Chip(self.config, self.n_threads, faults=self.faults)
        self.barrier = Barrier(self.engine, self.n_threads,
                               cost_fn=self.config.barrier_cost)
        self.procs: dict[int, object] = {}
        self.label = ""
        # Telemetry (repro.obs) and checking (repro.check): handles
        # captured once per loop and null-checked per use, so
        # uninstrumented runs pay nothing more.
        self.trace = self.engine.trace
        self.check = self.engine.check
        self._post_run: list[Callable] = []

    def post_run(self, hook: Callable) -> None:
        """Register *hook* to run after the event loop, before the loop's
        stats are considered final (runtimes fold counter totals here so
        the telemetry frame sees the complete accounting)."""
        self._post_run.append(hook)

    def spawn_workers(self, body: Callable, prefix: str) -> None:
        """Spawn ``body(tid)`` for every thread, then arm fault injection.

        Workers get stable names (``"<prefix>-w<tid>"``) so deadlock and
        timeout diagnostics identify the stuck thread.  They start as one
        group wake, in thread order.  Kill events are armed after all
        workers exist so every victim is addressable.
        """
        self.label = prefix
        if self.trace is not None:
            self.trace.begin(f"loop:{prefix}", PID_ENGINE, 0, 0.0,
                             threads=self.n_threads, items=len(self.work))
        if self.check is not None:
            self.check.begin_loop(prefix, self.n_threads, self.access)
        for tid in range(self.n_threads):
            self.procs[tid] = Process(self.engine, body(tid),
                                      name=f"{prefix}-w{tid}", tid=tid)
        self.engine.wake(list(self.procs.values()), 0.0)
        if self.faults is not None:
            self.faults.begin_loop(self.engine, self.barrier, self.procs)

    def fault_point(self, tid: int) -> None:
        """Scheduling point: a killed thread dies here (raises ThreadKilled)."""
        if self.faults is not None:
            self.faults.check_kill(tid, self.engine.now)

    def join(self, tid: int):
        """Generator fragment: arrive at the region barrier.

        The kill check precedes the arrival, so a dead thread never
        occupies a barrier slot its :meth:`Barrier.drop_party` released.
        """
        self.fault_point(tid)
        yield self.barrier

    def execute_chunk(self, tid: int, lo: int, hi: int):
        """Generator fragment: run items ``[lo, hi)`` on thread *tid*.

        Yields the chunk duration; records the :class:`ChunkExec`.  With
        fault injection, a hung SMT context first waits out its freeze
        window.
        """
        engine, stats, chip = self.engine, self.stats, self.chip
        if self.faults is not None:
            now = engine._now
            hang = self.faults.hang_delay(tid, now)
            if hang > 0:
                stats.hang_cycles += hang
                stats.hangs.append((tid, now, now + hang))
                if self.trace is not None:
                    self.trace.span("hang", PID_THREADS, tid, now, now + hang)
                yield hang
        compute, stall, volume = self.work.range_cost(lo, hi)
        core = chip.thread_cores[tid]
        core.busy += 1
        start = engine._now
        duration = chip.execute(start, core, compute, stall, volume)
        yield duration
        core.busy -= 1
        end = engine._now
        stats.busy_cycles += duration
        # tuple.__new__ skips the named tuple's Python-level __new__.
        stats.chunks.append(tuple.__new__(ChunkExec, (lo, hi, tid, start, end)))
        if self.trace is not None:
            self.trace.span("chunk", PID_THREADS, tid, start, end,
                            lo=lo, hi=hi)
        if self.check is not None:
            self.check.on_chunk(tid, lo, hi, start, end)

    def init_tls(self, tid: int, tls_entries: int, lazy: bool):
        """Generator fragment: pay a thread's scratch-state first touch.

        Accounts the time in ``LoopStats.tls_cycles`` (a component of the
        telemetry frame's cycle breakdown) and traces it as a span; the
        ``tls_inits`` *count* stays runtime-specific (eager runtimes set
        it per region, lazy runtimes per first touch).
        """
        cycles = self.tls_first_touch_cycles(tls_entries, lazy)
        if cycles:
            self.stats.tls_cycles += cycles
            if self.trace is not None:
                self.trace.span("tls-init", PID_THREADS, tid, self.engine.now,
                                self.engine.now + cycles, lazy=lazy)
            if self.check is not None:
                self.check.on_tls(tid)
            yield cycles

    def tls_first_touch_cycles(self, tls_entries: int, lazy: bool) -> float:
        """Cycles to materialise a thread's scratch state.

        Lazy (holder/ETS) initialisation also pays a heap allocation —
        the cost the paper attributes to Cilk views and TBB
        ``enumerable_thread_specific``.
        """
        cycles = tls_entries * self.config.tls_init_cycles_per_entry
        if lazy and tls_entries:
            cycles += self.config.alloc_cycles
        return cycles

    def finish(self, fork: bool) -> LoopStats:
        """Run the event loop to completion and finalise the stats.

        After the engine drains, registered :meth:`post_run` hooks fold
        runtime-held counters into the stats; only then is the telemetry
        frame cut, so exported totals always match the returned
        :class:`~repro.sim.stats.LoopStats`.
        """
        end = self.engine.run()
        self.stats.span = end + (self.config.fork_cycles if fork else 0.0)
        if self.faults is not None:
            self.stats.killed_threads = self.faults.loop_kills
            self.faults.end_loop(self.stats.span)
        for hook in self._post_run:
            hook()
        if self.check is not None:
            self.check.end_loop(self.stats.span)
        if self.trace is not None:
            self.trace.end(f"loop:{self.label}", PID_ENGINE, 0, end)
            self.trace.advance(self.stats.span)
        self._emit_frame()
        return self.stats

    def _emit_frame(self) -> None:
        """Snapshot this loop into the active metrics registry (if any)."""
        registry = _obs_metrics.active()
        if registry is None:
            return
        stats, ch = self.stats, self.chip.channel
        bank_budget = stats.span * ch.n_banks
        channel = {
            "transfers": ch.transfers,
            "lines": ch.lines,
            "wait_cycles": ch.wait_cycles,
            "busy_cycles": ch.busy_cycles,
            "n_banks": ch.n_banks,
            "saturation": ch.busy_cycles / bank_budget if bank_budget > 0
            else 0.0,
        }
        registry.counter("channel.transfers").inc(ch.transfers)
        registry.counter("channel.lines").inc(ch.lines)
        registry.counter("channel.busy_cycles").inc(ch.busy_cycles)
        registry.counter("channel.wait_cycles").inc(ch.wait_cycles)
        frame = MetricsFrame.from_stats(
            stats, n_threads=self.n_threads, label=self.label,
            channel=channel, counters=registry.loop_delta())
        frame.index = len(registry.frames)
        frame.cell = registry.current_cell()
        registry.add_frame(frame)
