"""Tests for time-reservation resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.resources import AtomicVar, MemoryChannel


class TestAtomicVar:
    def test_uncontended(self):
        a = AtomicVar(10.0)
        assert a.rmw(0.0) == 10.0
        assert a.rmw(100.0) == 110.0
        assert a.wait_cycles == 0.0
        assert a.operations == 2

    def test_contention_serialises(self):
        a = AtomicVar(10.0)
        done = [a.rmw(0.0) for _ in range(4)]  # all issued at t=0
        assert done == [10.0, 20.0, 30.0, 40.0]
        assert a.wait_cycles == 0 + 10 + 20 + 30

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            AtomicVar(-1.0)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40),
           st.floats(0.1, 100))
    @settings(max_examples=50, deadline=None)
    def test_fifo_invariants(self, arrivals, latency):
        """Completions are strictly increasing by >= latency for sorted
        arrivals (engine delivers requests in time order)."""
        a = AtomicVar(latency)
        last = -float("inf")
        for t in sorted(arrivals):
            done = a.rmw(t)
            assert done >= t + latency
            assert done >= last + latency - 1e-9
            last = done


class TestMemoryChannel:
    def test_parallel_banks(self):
        ch = MemoryChannel(banks=2, cycles_per_line=1.0)
        assert ch.service(0.0, 100) == 100.0
        assert ch.service(0.0, 100) == 100.0     # second bank
        assert ch.service(0.0, 100) == 200.0     # queues behind first
        assert ch.wait_cycles == 100.0

    def test_zero_volume_free(self):
        ch = MemoryChannel(banks=1, cycles_per_line=2.0)
        assert ch.service(5.0, 0) == 5.0
        assert ch.transfers == 0

    def test_accounting(self):
        ch = MemoryChannel(banks=4, cycles_per_line=0.5)
        ch.service(0.0, 10)
        ch.service(1.0, 6)
        assert ch.transfers == 2
        assert ch.lines == 16

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            MemoryChannel(0, 1.0)
        with pytest.raises(ValueError):
            MemoryChannel(1, -1.0)
        with pytest.raises(ValueError):
            MemoryChannel(1, 1.0).service(0.0, -5)

    @given(st.integers(1, 8), st.lists(st.floats(0, 1000), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_work_conserved(self, banks, volumes):
        """Total busy time across banks equals total requested volume."""
        ch = MemoryChannel(banks, cycles_per_line=1.0)
        for v in volumes:
            ch.service(0.0, v)
        assert ch.lines == pytest.approx(sum(volumes))


class TestChannelScale:
    def test_jitter_scale_stretches_occupancy(self):
        from repro.sim.resources import MemoryChannel
        a = MemoryChannel(banks=1, cycles_per_line=2.0)
        b = MemoryChannel(banks=1, cycles_per_line=2.0)
        done_a = a.service(0.0, 100.0)
        done_b = b.service(0.0, 100.0, scale=3.0)
        assert done_b == pytest.approx(3.0 * done_a)
        assert a.lines == b.lines == 100.0  # accounting ignores the scale

    def test_invalid_scale_rejected(self):
        from repro.sim.resources import MemoryChannel
        with pytest.raises(ValueError, match="scale"):
            MemoryChannel(1, 2.0).service(0.0, 10.0, scale=0.0)
