"""Tests for the SMT core/chip timing model, driven through the chunk path
(:meth:`repro.runtime.base.LoopContext.execute_chunk`)."""

import numpy as np
import pytest

from repro.machine.config import KNF
from repro.machine.core import Chip
from repro.machine.costs import WorkCosts
from repro.runtime.base import LoopContext

#: One core with four SMT contexts: threads 0-3 share core 0.
ONE_CORE = KNF.with_(n_cores=1)


def loop(config, n_threads, items, faults=None):
    """A loop whose item ``i`` costs ``items[i] = (compute, stall,
    volume)``."""
    compute, stall, volume = (np.array(col, dtype=np.float64)
                              for col in zip(*items))
    return LoopContext(config, n_threads, WorkCosts(compute, stall, volume),
                       faults=faults)


def start(ctx, tid, item):
    """Start item *item* as a one-item chunk on thread *tid* at the
    loop's current time; return the running chunk and its duration."""
    chunk = ctx.execute_chunk(tid, item, item + 1)
    return chunk, next(chunk)


def end(chunk):
    with pytest.raises(StopIteration):
        next(chunk)


class TestChip:
    def test_thread_limits(self):
        with pytest.raises(ValueError):
            Chip(KNF, 0)
        with pytest.raises(ValueError, match="hardware contexts"):
            Chip(KNF, KNF.max_threads + 1)

    def test_scatter_placement(self):
        chip = Chip(KNF, 62)
        assert [c.index for c in chip.thread_cores] == list(range(31)) * 2
        assert chip.thread_cores[31] is chip.cores[0]  # wraps to core 0

    def test_chunks_occupy_their_threads_core(self):
        ctx = loop(KNF, 62, [(1.0, 0.0, 0.0)] * 3)
        first, _ = start(ctx, 31, 0)
        second, _ = start(ctx, 30, 1)
        third, _ = start(ctx, 0, 2)
        busy = [c.busy for c in ctx.chip.cores]
        assert busy[0] == 2 and busy[30] == 1 and sum(busy) == 3
        for chunk in (first, second, third):
            end(chunk)
        assert [c.busy for c in ctx.chip.cores] == [0] * 31

    def test_finished_chunk_is_recorded(self):
        ctx = loop(KNF, 1, [(100.0, 400.0, 0.0), (1.0, 0.0, 0.0)])
        chunk = ctx.execute_chunk(0, 0, 2)
        assert next(chunk) == pytest.approx(501.0)
        end(chunk)
        assert ctx.chip.cores[0].busy == 0
        (done,) = ctx.stats.chunks
        assert (done.lo, done.hi, done.thread) == (0, 2, 0)
        assert ctx.stats.busy_cycles == pytest.approx(501.0)

    def test_cores_used_small(self):
        assert len({c.index for c in Chip(KNF, 5).thread_cores}) == 5

    def test_memory_bound_chunk_ignores_occupancy(self):
        """stall >> compute: duration = compute + stall regardless of k."""
        ctx = loop(ONE_CORE, 4, [(100.0, 5000.0, 0.0)] * 4)
        durations = [start(ctx, t, t)[1] for t in range(4)]
        assert ctx.chip.cores[0].busy == 4
        assert durations == pytest.approx([5100.0] * 4)

    def test_compute_bound_chunk_shares_issue(self):
        """compute >> stall: k residents serialise on the pipeline."""
        ctx = loop(ONE_CORE, 4, [(1000.0, 10.0, 0.0)] * 4)
        durations = [start(ctx, t, t)[1] for t in range(4)]
        assert durations == pytest.approx([1010.0, 2000.0, 3000.0, 4000.0])

    def test_single_thread_latency_bound(self):
        ctx = loop(KNF, 1, [(100.0, 400.0, 0.0)])
        assert start(ctx, 0, 0)[1] == pytest.approx(500.0)

    def test_bandwidth_limit_applies(self):
        narrow = KNF.with_(mem_banks=1, dram_transfer_cycles=10.0)
        ctx = loop(narrow, 2, [(10.0, 10.0, 100.0), (10.0, 10.0, 10.0)])
        _, d1 = start(ctx, 0, 0)
        assert d1 == pytest.approx(1000.0)  # 100 lines * 10 cycles
        _, d2 = start(ctx, 1, 1)
        assert d2 == pytest.approx(1100.0)  # queues behind the first

    def test_issue_width_speeds_compute(self):
        wide = KNF.with_(issue_width=2.0)
        ctx = loop(wide, 1, [(1000.0, 0.0, 0.0)])
        assert start(ctx, 0, 0)[1] == pytest.approx(500.0)

    def test_config_properties(self):
        assert KNF.max_threads == 124
        assert KNF.barrier_cost(1) == 0.0
        assert KNF.barrier_cost(2) == KNF.barrier_hop_cycles
        assert KNF.barrier_cost(121) == KNF.barrier_hop_cycles * 7

    def test_with_creates_modified_copy(self):
        mod = KNF.with_(n_cores=8)
        assert mod.n_cores == 8
        assert KNF.n_cores == 31
        assert mod.smt_per_core == KNF.smt_per_core
