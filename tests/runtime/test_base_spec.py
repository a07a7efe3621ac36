"""RuntimeSpec dispatch and LoopContext plumbing."""

import numpy as np
import pytest

from repro.machine.costs import WorkCosts
from repro.runtime.base import (LoopContext, Partitioner, ProgrammingModel,
                                RuntimeSpec, Schedule, TlsMode)
from repro.sim.stats import ChunkExec


def work(n=20):
    return WorkCosts(np.full(n, 50.0), np.zeros(n), np.zeros(n))


class TestDispatch:
    def test_openmp_dispatch(self, tiny_machine):
        spec = RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.STATIC,
                           chunk=5)
        stats = spec.parallel_for(tiny_machine, 2, work())
        assert stats.atomic_operations == 0  # static path taken

    def test_cilk_dispatch(self, tiny_machine):
        spec = RuntimeSpec(ProgrammingModel.CILK, chunk=5)
        stats = spec.parallel_for(tiny_machine, 4, work(200), seed=1)
        assert stats.tasks_spawned > 0  # stealing path taken

    def test_tbb_dispatch(self, tiny_machine):
        spec = RuntimeSpec(ProgrammingModel.TBB,
                           partitioner=Partitioner.SIMPLE, chunk=5)
        stats = spec.parallel_for(tiny_machine, 4, work(200), seed=1)
        assert stats.tasks_spawned > 0


@pytest.mark.parametrize("spec", [
    RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.STATIC, chunk=5),
    RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC, chunk=5),
    RuntimeSpec(ProgrammingModel.CILK, chunk=5),
    RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE, chunk=5),
], ids=lambda spec: spec.label)
def test_stored_chunks_are_chunk_execs(tiny_machine, spec):
    stats = spec.parallel_for(tiny_machine, 4, work(200), seed=1)
    assert stats.chunks
    covered = 0
    for c in stats.chunks:
        assert type(c) is ChunkExec
        assert c == ChunkExec(c.lo, c.hi, c.thread, c.start, c.end)
        assert c.duration == c.end - c.start > 0
        covered += c.size
    assert covered == 200


class TestLoopContext:
    def test_tls_first_touch_lazy_includes_alloc(self, tiny_machine):
        ctx = LoopContext(tiny_machine, 2, work())
        eager = ctx.tls_first_touch_cycles(100, lazy=False)
        lazy = ctx.tls_first_touch_cycles(100, lazy=True)
        assert lazy == eager + tiny_machine.alloc_cycles
        assert ctx.tls_first_touch_cycles(0, lazy=True) == 0.0

    def test_spec_is_frozen_and_hashable(self):
        a = RuntimeSpec(ProgrammingModel.OPENMP, chunk=7)
        b = RuntimeSpec(ProgrammingModel.OPENMP, chunk=7)
        assert a == b
        assert hash(a) == hash(b)
        with pytest.raises(Exception):
            a.chunk = 9

    def test_tls_modes_distinct_costs(self):
        holder = RuntimeSpec(ProgrammingModel.CILK, tls_mode=TlsMode.HOLDER)
        worker = RuntimeSpec(ProgrammingModel.CILK, tls_mode=TlsMode.WORKER_ID)
        assert holder.tls_access_cycles != worker.tls_access_cycles

    def test_affinity_body_overhead_larger(self):
        simple = RuntimeSpec(ProgrammingModel.TBB,
                             partitioner=Partitioner.SIMPLE)
        affinity = RuntimeSpec(ProgrammingModel.TBB,
                               partitioner=Partitioner.AFFINITY)
        assert affinity.body_overhead[0] > simple.body_overhead[0]
