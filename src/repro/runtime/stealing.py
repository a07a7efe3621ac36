"""Generic work-stealing loop execution (shared by Cilk Plus and TBB).

Workers keep a deque of index ranges.  A worker repeatedly pops the
*bottom* (most recently pushed) range; ranges larger than the split
threshold are halved — the right half is pushed back, costing one task
spawn — until an executable leaf remains (lazy binary splitting, which is
how both ``cilk_for`` (§II-B) and TBB's partitioners (§II-C) unfold a
loop).  An idle worker steals the *top* (oldest, largest) range of a
random victim, paying a ring round-trip.  Work therefore spreads through
a binary steal chain, reaching full parallelism after ~log2(t) steal
latencies — the distribution behaviour that separates these runtimes from
OpenMP's flat chunk counter in the paper's Figure 1.
"""

from __future__ import annotations

from bisect import insort
from collections import deque as _deque

import numpy as np

from repro.obs import metrics as _obs_metrics
from repro.obs.tracer import PID_THREADS
from repro.runtime.base import LoopContext
from repro.sim.engine import Condition

__all__ = ["run_work_stealing"]


def run_work_stealing(
    ctx: LoopContext,
    *,
    split_threshold: int,
    task_cycles: float,
    per_chunk_cycles: float = 0.0,
    tls_entries: int = 0,
    lazy_tls: bool = True,
    initial_ranges: list[tuple[int, int]] | None = None,
    deal_round_robin: bool = False,
    seed: int = 0,
    prefix: str = "steal",
) -> None:
    """Spawn the worker processes for one stolen-loop execution.

    Parameters
    ----------
    split_threshold:
        Ranges strictly larger than this are split before execution.
    task_cycles:
        Cost of one split (task allocation + deque push).
    per_chunk_cycles:
        Extra dispatch cost per executed leaf (e.g. TBB affinity mailbox
        checks).
    tls_entries / lazy_tls:
        Thread-local scratch size; lazy (holder/ETS) init happens right
        before a worker's first leaf and includes a heap allocation,
        eager (worker-ID) init happens at region entry on every worker.
    initial_ranges / deal_round_robin:
        Starting distribution: by default the whole range sits on worker 0
        (stealing spreads it); the affinity partitioner pre-deals ranges
        round-robin.
    prefix:
        Worker-name / loop-label prefix, so traces and diagnostics name
        the runtime that owns the loop (``cilk``, ``tbb-auto``, ...).
    """
    if split_threshold < 1:
        raise ValueError(f"split_threshold must be >= 1, got {split_threshold}")
    n, t = len(ctx.work), ctx.n_threads
    # The victim generator, built on the first draw with more than one
    # candidate: a lone victim is taken without a draw, which leaves the
    # stream exactly as ``integers(1)`` would (it returns 0 and consumes
    # no state).
    rng: np.random.Generator | None = None

    deques: list[_deque] = [_deque() for _ in range(t)]
    if initial_ranges is None:
        initial_ranges = [(0, n)] if n else []
    if deal_round_robin:
        for i, rng_item in enumerate(initial_ranges):
            deques[i % t].append(rng_item)
    else:
        for rng_item in initial_ranges:
            deques[0].append(rng_item)

    # Workers whose deque is non-empty, ascending: updated only when a
    # deque empties or refills, so a thief (whose own deque is always
    # empty) picks its victim without scanning all t deques.
    stocked = [w for w in range(t) if deques[w]]
    remaining = [sum(hi - lo for lo, hi in initial_ranges)]
    # Idle workers with nothing to steal sleep on a generation condition
    # instead of polling: it fires whenever a deque turns non-empty (or all
    # work finishes), which keeps the event count proportional to the task
    # count rather than to idle time.
    signal = [Condition(ctx.engine)]

    def notify(wid: int):
        fired, signal[0] = signal[0], Condition(ctx.engine)
        fired.fire(tid=wid)

    # Telemetry (repro.obs): captured once per loop, null-checked per use.
    registry = _obs_metrics.active()
    # Per-loop handles, read once instead of in every worker iteration.
    stats, check, trace, engine = ctx.stats, ctx.check, ctx.trace, ctx.engine
    faults = ctx.faults
    steal_cycles = ctx.config.steal_cycles

    def body(wid: int):
        nonlocal rng
        my = deques[wid]
        tls_done = False
        if tls_entries and not lazy_tls:
            yield from ctx.init_tls(wid, tls_entries, lazy=False)
            tls_done = True
        while True:
            # A killed worker dies between chunks, before popping: its
            # deque stays intact as plain data, so survivors steal the
            # stranded ranges and no work is lost.
            if faults is not None:
                ctx.fault_point(wid)
            if my:
                lo, hi = my.pop()
                if not my:
                    stocked.remove(wid)
                if check is not None:
                    check.on_pop(wid)
                while hi - lo > split_threshold:
                    mid = (lo + hi) // 2
                    was_empty = not my
                    my.append((mid, hi))
                    if check is not None:
                        check.on_push(wid)
                    stats.tasks_spawned += 1
                    stats.sched_cycles += task_cycles
                    if was_empty:
                        insort(stocked, wid)
                        notify(wid)
                    yield task_cycles
                    hi = mid
                if tls_entries and lazy_tls and not tls_done:
                    yield from ctx.init_tls(wid, tls_entries, lazy=True)
                    stats.tls_inits += 1
                    tls_done = True
                if per_chunk_cycles:
                    stats.sched_cycles += per_chunk_cycles
                    yield per_chunk_cycles
                yield from ctx.execute_chunk(wid, lo, hi)
                remaining[0] -= hi - lo
                if remaining[0] <= 0:
                    notify(wid)
                continue
            if remaining[0] <= 0:
                break
            gen = signal[0]  # capture before picking (lost-wakeup safety)
            if stocked:
                if len(stocked) == 1:
                    victim = stocked[0]
                else:
                    if rng is None:
                        rng = np.random.default_rng(seed)
                    victim = stocked[int(rng.integers(len(stocked)))]
                yield steal_cycles
                stats.sched_cycles += steal_cycles
                if deques[victim]:  # may have drained during the steal RTT
                    my.append(deques[victim].popleft())
                    if not deques[victim]:
                        stocked.remove(victim)
                    insort(stocked, wid)
                    stats.steals += 1
                    if check is not None:
                        check.on_steal(wid, victim)
                    if registry is not None:
                        registry.counter("steals", victim=str(victim)).inc(1)
                    if trace is not None:
                        trace.instant("steal", PID_THREADS, wid, engine.now,
                                      victim=victim)
                else:
                    stats.failed_steals += 1
                    if registry is not None:
                        registry.counter("steals.failed").inc(1)
            else:
                stats.failed_steals += 1
                if registry is not None:
                    registry.counter("steals.failed").inc(1)
                yield gen
        yield from ctx.join(wid)

    ctx.spawn_workers(body, prefix)
    if ctx.check is not None:
        # Mirror the initial deal into the checker's shadow deques (the
        # deques are only consumed once the engine runs, so order holds).
        for w, dq in enumerate(deques):
            for _ in dq:
                ctx.check.on_deal(w)
