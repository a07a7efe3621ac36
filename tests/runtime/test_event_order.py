"""Event order of the simulated runtimes, pinned.

The engine pops events in ``(time, seq)`` order and may resume a process
in place when its wake-up is the next event (DESIGN.md §3, "Event
order").  These schedules were recorded with every wake-up going through
the heap, so any change in which event runs first shows up as a changed
chunk schedule, steal count, event count or span.  The scenarios cover
the three OpenMP schedules from 1 to 121 threads, the TBB affinity
partitioner's per-chunk mailbox yield, and every degrading fault kind;
work stealing and thread kills are pinned in ``test_victim_pick.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.machine.config import KNF
from repro.machine.costs import WorkCosts
from repro.runtime.base import Partitioner, Schedule
from repro.runtime.cilk import cilk_parallel_for
from repro.runtime.openmp import openmp_parallel_for
from repro.runtime.tbb import tbb_parallel_for
from repro.sim import engine as _engine
from repro.sim.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec


def _work(n: int, seed: int, volume: float = 0.25) -> WorkCosts:
    rng = np.random.default_rng(seed)
    return WorkCosts(rng.gamma(2.0, 150.0, n), rng.exponential(80.0, n),
                     np.full(n, volume))


def _faults(kind: FaultKind, target: int, start: float, duration: float,
            magnitude: float = 1.0) -> FaultInjector:
    return FaultInjector(FaultPlan(seed=3, specs=(
        FaultSpec(kind, target, start, duration, magnitude),)))


def _omp(schedule: Schedule, threads: int, seed: int, volume: float = 0.25,
         fault: tuple | None = None):
    """An OpenMP loop; *fault* holds :func:`_faults` arguments, so every
    call gets a fresh (single-use) injector."""
    return lambda: openmp_parallel_for(
        KNF, threads, _work(3000, seed, volume), schedule=schedule, chunk=16,
        tls_entries=64, faults=_faults(*fault) if fault else None)


SCENARIOS = {
    **{f"omp-{s.value}-{t}": _omp(s, t, seed)
       for seed, (s, t) in enumerate(
           (s, t) for s in Schedule for t in (1, 31, 121))},
    "tbb-affinity-31": lambda: tbb_parallel_for(
        KNF, 31, _work(3000, 20), partitioner=Partitioner.AFFINITY, chunk=16,
        tls_entries=64, seed=3),
    "throttle": _omp(Schedule.DYNAMIC, 31, 21, fault=(
        FaultKind.CORE_THROTTLE, 2, 2000.0, 20000.0, 2.5)),
    "transient-stall": lambda: cilk_parallel_for(
        KNF, 31, _work(3000, 22), grain=16, seed=9, faults=_faults(
            FaultKind.TRANSIENT_STALL, 4, 1000.0, 30000.0, 300.0)),
    "smt-hang": lambda: tbb_parallel_for(
        KNF, 31, _work(3000, 23), partitioner=Partitioner.AUTO, chunk=16,
        seed=4, faults=_faults(FaultKind.SMT_HANG, 7, 3000.0, 8000.0)),
    # Enough DRAM lines per item to saturate the 16 banks at 121 threads.
    "mem-jitter": _omp(Schedule.STATIC, 121, 24, volume=100.0, fault=(
        FaultKind.MEM_JITTER, 0, 0.0, 25000.0, 2.0)),
}

#: Recorded with every process wake-up pushed through the event heap.
PINNED = {
    "mem-jitter": {"schedule": "a911312d7499b187", "chunks": 188,
                   "steals": 0, "events": 739, "span": 47376.0},
    "omp-dynamic-1": {"schedule": "dd40e45db16b095a", "chunks": 188,
                      "steals": 0, "events": 380, "span": 1164490.28639798},
    "omp-dynamic-121": {"schedule": "36323facdc5880b0", "chunks": 188,
                        "steals": 0, "events": 860, "span": 43581.67810949811},
    "omp-dynamic-31": {"schedule": "2a4dab560f4ddc77", "chunks": 188,
                       "steals": 0, "events": 500, "span": 42977.105601212126},
    "omp-guided-1": {"schedule": "ffdccc972f6f0923", "chunks": 9,
                     "steals": 0, "events": 22, "span": 1150940.2101174719},
    "omp-guided-121": {"schedule": "e9297082f23b7811", "chunks": 188,
                       "steals": 0, "events": 860, "span": 39133.241744662635},
    "omp-guided-31": {"schedule": "387d633f6321ad83", "chunks": 132,
                      "steals": 0, "events": 388, "span": 44938.54945249083},
    "omp-static-1": {"schedule": "8bda90e91c596ab2", "chunks": 188,
                     "steals": 0, "events": 379, "span": 1146766.9710329412},
    "omp-static-121": {"schedule": "dffcd112d4854942", "chunks": 188,
                       "steals": 0, "events": 739, "span": 42212.27176761854},
    "omp-static-31": {"schedule": "56919b91b39e9738", "chunks": 188,
                      "steals": 0, "events": 469, "span": 43510.20773858145},
    "smt-hang": {"schedule": "63f2d13c73fc9f11", "chunks": 128,
                 "steals": 77, "events": 481, "span": 48420.76139357526},
    "tbb-affinity-31": {"schedule": "fff78eab22cf23f9", "chunks": 120,
                        "steals": 5, "events": 369, "span": 43565.2716548146},
    "throttle": {"schedule": "5e48ddd5be9b2824", "chunks": 188,
                 "steals": 0, "events": 500, "span": 43443.876153769466},
    "transient-stall": {"schedule": "94f10ffa29f77177", "chunks": 256,
                        "steals": 141, "events": 801, "span": 43636.37336558961},
}


def _observe(name: str, monkeypatch) -> dict:
    events = []
    run = _engine.Engine.run

    def counting_run(self, *args, **kwargs):
        end = run(self, *args, **kwargs)
        events.append(self.events_processed)
        return end

    monkeypatch.setattr(_engine.Engine, "run", counting_run)
    stats = SCENARIOS[name]()
    schedule = hashlib.sha256(";".join(
        f"{c.lo},{c.hi},{c.thread},{c.start!r},{c.end!r}"
        for c in stats.chunks).encode()).hexdigest()[:16]
    return {"schedule": schedule, "chunks": len(stats.chunks),
            "steals": stats.steals, "events": sum(events),
            "span": stats.span}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_matches_heap_order(name, monkeypatch):
    assert _observe(name, monkeypatch) == PINNED[name]
