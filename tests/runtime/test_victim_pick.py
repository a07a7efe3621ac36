"""Work-stealing victim choice, pinned.

A thief picks uniformly among the workers whose deque is non-empty.
The runtime keeps that set as a sorted list updated when a deque
empties or refills, instead of scanning all ``t`` deques per attempt;
these schedules were recorded with the scanning pick, so any change in
which worker is robbed (or when) shows up as a changed chunk schedule,
steal count or event count.
"""

import hashlib

import numpy as np
import pytest

from repro.machine.config import KNF
from repro.machine.costs import WorkCosts
from repro.runtime.base import Partitioner
from repro.runtime.cilk import cilk_parallel_for
from repro.runtime.tbb import tbb_parallel_for
from repro.sim import engine as _engine
from repro.sim.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec


def _work(n: int, seed: int) -> WorkCosts:
    rng = np.random.default_rng(seed)
    return WorkCosts(rng.gamma(2.0, 150.0, n), rng.exponential(80.0, n),
                     np.full(n, 0.25))


def _kill(tid: int, start: float) -> FaultInjector:
    return FaultInjector(FaultPlan(specs=(
        FaultSpec(FaultKind.THREAD_KILL, tid, start),)))


SCENARIOS = {
    "cilk-31": lambda: cilk_parallel_for(KNF, 31, _work(3000, 1), grain=16,
                                         seed=7),
    "cilk-121": lambda: cilk_parallel_for(KNF, 121, _work(5000, 2), grain=8,
                                          seed=11),
    "cilk-121-kill": lambda: cilk_parallel_for(
        KNF, 121, _work(4000, 3), grain=8, seed=5, faults=_kill(0, 4000.0)),
    "tbb-simple-121": lambda: tbb_parallel_for(
        KNF, 121, _work(5000, 4), partitioner=Partitioner.SIMPLE, chunk=8,
        seed=13),
    "tbb-auto-31": lambda: tbb_parallel_for(
        KNF, 31, _work(3000, 5), partitioner=Partitioner.AUTO, chunk=16,
        seed=17),
}

#: Recorded with the scan-all-deques victim pick.
PINNED = {
    "cilk-31": {"schedule": "fd31f8c3d64bbac5", "chunks": 256, "steals": 120,
                "failed_steals": 92, "events": 785, "span": 43156.86409970246},
    "cilk-121": {"schedule": "0f3519fe65b22c59", "chunks": 1024, "steals": 515,
                 "failed_steals": 447, "events": 3251,
                 "span": 56739.22713698878},
    "cilk-121-kill": {"schedule": "98df5df2c2d1e3cf", "chunks": 512,
                      "steals": 376, "failed_steals": 438, "events": 2079,
                      "span": 46626.44634644437},
    "tbb-simple-121": {"schedule": "71630461df4b1a5a", "chunks": 1024,
                       "steals": 487, "failed_steals": 480, "events": 3256,
                       "span": 59766.49971066462},
    "tbb-auto-31": {"schedule": "481b5e1744502dd5", "chunks": 128, "steals": 83,
                    "failed_steals": 83, "events": 483,
                    "span": 48210.352650159926},
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
            "steals": stats.steals, "failed_steals": stats.failed_steals,
            "events": sum(events), "span": stats.span}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_matches_scanning_pick(name, monkeypatch):
    assert _observe(name, monkeypatch) == PINNED[name]
