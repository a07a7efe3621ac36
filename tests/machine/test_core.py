"""Tests for the SMT core/chip timing model."""

import pytest

from repro.machine.config import KNF
from repro.machine.core import Chip, Core


class TestCore:
    def test_begin_finish(self):
        c = Core(0)
        c.begin()
        c.begin()
        assert c.busy == 2
        c.finish()
        assert c.busy == 1

    def test_finish_without_begin(self):
        with pytest.raises(RuntimeError):
            Core(0).finish()


class TestChip:
    def test_thread_limits(self):
        with pytest.raises(ValueError):
            Chip(KNF, 0)
        with pytest.raises(ValueError, match="hardware contexts"):
            Chip(KNF, KNF.max_threads + 1)

    def test_scatter_placement(self):
        chip = Chip(KNF, 62)
        assert chip.core_of(0).index == 0
        assert chip.core_of(31).index == 0  # wraps to core 0
        assert chip.core_of(30).index == 30
        assert chip.threads_per_core() == 2
        assert chip.cores_used() == 31

    def test_cores_used_small(self):
        assert Chip(KNF, 5).cores_used() == 5

    def test_memory_bound_chunk_ignores_occupancy(self):
        """stall >> compute: duration = compute + stall regardless of k."""
        chip = Chip(KNF, 4)
        core = chip.core_of(0)
        for _ in range(4):
            core.begin()
        d = chip.execute(0.0, 0, compute=100.0, stall=5000.0, volume=0.0)
        assert d == pytest.approx(5100.0)

    def test_compute_bound_chunk_shares_issue(self):
        """compute >> stall: k residents serialise on the pipeline."""
        chip = Chip(KNF, 4)
        core = chip.core_of(0)
        for _ in range(4):
            core.begin()
        d = chip.execute(0.0, 0, compute=1000.0, stall=10.0, volume=0.0)
        assert d == pytest.approx(4000.0)

    def test_single_thread_latency_bound(self):
        chip = Chip(KNF, 1)
        chip.core_of(0).begin()
        d = chip.execute(0.0, 0, compute=100.0, stall=400.0, volume=0.0)
        assert d == pytest.approx(500.0)

    def test_bandwidth_limit_applies(self):
        narrow = KNF.with_(mem_banks=1, dram_transfer_cycles=10.0)
        chip = Chip(narrow, 2)
        chip.core_of(0).begin()
        d1 = chip.execute(0.0, 0, compute=10.0, stall=10.0, volume=100.0)
        assert d1 == pytest.approx(1000.0)  # 100 lines * 10 cycles
        chip.core_of(1).begin()
        d2 = chip.execute(0.0, 1, compute=10.0, stall=10.0, volume=10.0)
        assert d2 == pytest.approx(1100.0)  # queues behind the first

    def test_issue_width_speeds_compute(self):
        wide = KNF.with_(issue_width=2.0)
        chip = Chip(wide, 1)
        chip.core_of(0).begin()
        d = chip.execute(0.0, 0, compute=1000.0, stall=0.0, volume=0.0)
        assert d == pytest.approx(500.0)

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
