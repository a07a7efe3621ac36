"""Simulated OpenMP ``parallel for`` with static / dynamic / guided
scheduling (§II-A).

* **static** — chunks are dealt round-robin at region entry; fetching the
  next chunk is pure bookkeeping (no shared state).
* **dynamic** — a shared chunk counter advanced with atomic fetch-and-add;
  contention on that one cache line grows with the thread count, which is
  the overhead the paper weighs against dynamic's better load balance.
* **guided** — the same shared counter, but each fetch takes
  ``max(chunk, remaining / (2t))`` iterations, geometrically shrinking.

Per-thread scratch state (``localFC``) is initialised at region entry by
each thread (the paper's worker-ID indexing, §IV-A1).

Counter totals (atomic ops, waits, scheduler cycles) are folded into the
:class:`~repro.sim.stats.LoopStats` through :meth:`LoopContext.post_run`
hooks, so they are already in place when the telemetry frame is cut.
"""

from __future__ import annotations

from repro.machine.config import MachineConfig
from repro.machine.costs import WorkCosts
from repro.obs import metrics as _obs_metrics
from repro.runtime.base import LoopContext, Schedule
from repro.sim.resources import AtomicVar
from repro.sim.stats import LoopStats

__all__ = ["openmp_parallel_for"]


def openmp_parallel_for(
    config: MachineConfig,
    n_threads: int,
    work: WorkCosts,
    schedule: Schedule = Schedule.DYNAMIC,
    chunk: int = 100,
    tls_entries: int = 0,
    fork: bool = True,
    faults=None,
    access=None,
) -> LoopStats:
    """Simulate ``#pragma omp parallel for schedule(...)`` over *work*."""
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    ctx = LoopContext(config, n_threads, work, faults=faults, access=access)

    if schedule is Schedule.STATIC:
        _spawn_static(ctx, chunk, tls_entries)
    elif schedule is Schedule.DYNAMIC:
        _spawn_shared_counter(ctx, chunk, tls_entries, guided=False)
    elif schedule is Schedule.GUIDED:
        _spawn_shared_counter(ctx, chunk, tls_entries, guided=True)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown schedule {schedule!r}")

    def record_tls():
        ctx.stats.tls_inits = n_threads if tls_entries else 0

    ctx.post_run(record_tls)
    return ctx.finish(fork)


def _fold_counter(ctx: LoopContext, counter: AtomicVar) -> None:
    """Register the fold of the shared chunk counter's totals."""

    def fold():
        stats = ctx.stats
        stats.atomic_operations += counter.operations
        stats.atomic_wait_cycles += counter.wait_cycles
        stats.sched_cycles += counter.operations * counter.latency
        registry = _obs_metrics.active()
        if registry is not None:
            registry.counter("atomic.ops", var=counter.label).inc(
                counter.operations)
            registry.counter("atomic.wait_cycles", var=counter.label).inc(
                counter.wait_cycles)

    ctx.post_run(fold)


def _spawn_static(ctx: LoopContext, chunk: int, tls_entries: int) -> None:
    """Round-robin chunk deal: thread k runs chunks k, k+t, k+2t, ..."""
    n, t = len(ctx.work), ctx.n_threads
    starts = list(range(0, n, chunk))
    stats, faults = ctx.stats, ctx.faults
    sched_cycles = ctx.config.sched_chunk_cycles

    def body(tid: int):
        yield from ctx.init_tls(tid, tls_entries, lazy=False)
        for s in starts[tid::t]:
            # A killed thread dies here: its remaining pre-dealt chunks
            # are lost — static scheduling cannot redistribute them.
            if faults is not None:
                ctx.fault_point(tid)
            yield sched_cycles
            stats.sched_cycles += sched_cycles
            yield from ctx.execute_chunk(tid, s, min(s + chunk, n))
        yield from ctx.join(tid)

    ctx.spawn_workers(body, "omp-static")


def _spawn_shared_counter(ctx: LoopContext, chunk: int, tls_entries: int,
                          guided: bool) -> AtomicVar:
    """Dynamic/guided scheduling: chunks fetched off one atomic counter.

    The engine delivers RMWs in simulated-time order, so advancing a plain
    Python cursor inside each granted fetch reproduces FIFO semantics.
    """
    counter = AtomicVar(ctx.config.atomic_cycles, label="omp-chunk-counter")
    cursor = [0]
    n, t = len(ctx.work), ctx.n_threads
    engine, faults = ctx.engine, ctx.faults

    def body(tid: int):
        yield from ctx.init_tls(tid, tls_entries, lazy=False)
        while True:
            # A killed thread dies before fetching, so no granted chunk
            # is ever lost — survivors drain the shared counter.
            if faults is not None:
                ctx.fault_point(tid)
            now = engine._now
            yield counter.rmw(now, tid=tid) - now
            lo = cursor[0]
            if lo >= n:
                break
            size = max(chunk, (n - lo) // (2 * t)) if guided else chunk
            hi = min(lo + size, n)
            cursor[0] = hi
            yield from ctx.execute_chunk(tid, lo, hi)
        yield from ctx.join(tid)

    ctx.spawn_workers(body, "omp-guided" if guided else "omp-dynamic")
    _fold_counter(ctx, counter)
    return counter
