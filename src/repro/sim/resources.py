"""Time-reservation resources: atomics and the memory channel.

These model FIFO-serialised hardware resources without engine-level
blocking: a requester at simulated time ``now`` reserves the next free
service slot and learns its completion time immediately.  Because the
event engine delivers requests in non-decreasing time order, greedy
reservation is equivalent to FIFO queueing — at a fraction of the event
count.

This is how the simulation prices the phenomena the paper discusses:
atomic fetch-and-add contention on shared queue/loop counters (§IV-A,
§IV-C) and DRAM bandwidth saturation (§V-B).  Per-vertex lock costs in
the SNAP BFS (§IV-C) are not a resource: the kernels charge
``MachineConfig.lock_cycles`` in their work costs.

Telemetry (:mod:`repro.obs`): every resource takes a ``label`` and, when
a tracer is active at construction time, records each reservation as a
span on its own resource track (service interval, with the queue wait in
the span args).  With no tracer installed the per-operation cost is a
single ``is not None`` test.
"""

from __future__ import annotations

from heapq import heapreplace

from repro.check import checker as _check
from repro.obs import tracer as _obs_tracer
from repro.obs.tracer import PID_RESOURCES

__all__ = ["AtomicVar", "MemoryChannel"]


class AtomicVar:
    """A shared variable updated with atomic read-modify-write operations.

    On a ring-based chip every RMW on the same cache line serialises: the
    line bounces between cores.  Each operation therefore occupies the
    variable for ``latency`` cycles, FIFO.
    """

    def __init__(self, latency: float, label: str = "atomic"):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.latency = latency
        self.label = label
        self._next_free = 0.0
        self.operations = 0
        self.wait_cycles = 0.0
        self._trace = _obs_tracer.active()
        self._check = _check.active()

    def rmw(self, now: float, tid: int | None = None) -> float:
        """Perform one RMW issued at *now*; returns its completion time.

        ``tid`` identifies the issuing simulated thread for the
        concurrency checker (acquire/release edge through the variable);
        it does not affect timing.
        """
        start = max(now, self._next_free)
        self.wait_cycles += start - now
        done = start + self.latency
        self._next_free = done
        self.operations += 1
        if self._trace is not None:
            self._trace.span("rmw", PID_RESOURCES, self.label, start, done,
                             wait=start - now)
        if self._check is not None:
            self._check.on_rmw(self, tid)
        return done


class MemoryChannel:
    """DRAM bandwidth model: *banks* parallel servers.

    A transfer of ``volume`` lines occupies the bank that frees earliest
    (lowest index on ties) for ``volume * cycles_per_line`` cycles; the
    banks sit in a ``(free_time, bank)`` heap, so the pick is one
    ``heapreplace``.  While total demand stays under
    the aggregate bandwidth no queueing occurs (the paper observed the KNF
    memory subsystem "scales well" — coloring stayed linear to 121
    threads); an ablation bench shrinks the bank count to show what
    saturation would have looked like.

    ``busy_cycles`` accumulates total bank-service time, from which the
    metrics layer derives the channel's saturation fraction for a loop
    (``busy_cycles / (span * n_banks)``).
    """

    def __init__(self, banks: int, cycles_per_line: float,
                 label: str = "dram"):
        if banks < 1:
            raise ValueError(f"banks must be >= 1, got {banks}")
        if cycles_per_line < 0:
            raise ValueError(f"cycles_per_line must be >= 0, got {cycles_per_line}")
        self._banks = [(0.0, i) for i in range(banks)]  # (free_time, bank) heap
        self.cycles_per_line = cycles_per_line
        self.label = label
        self.transfers = 0
        self.lines = 0.0
        self.wait_cycles = 0.0
        self.busy_cycles = 0.0
        self._trace = _obs_tracer.active()

    @property
    def n_banks(self) -> int:
        """Number of parallel servers (DRAM banks/channels)."""
        return len(self._banks)

    def service(self, now: float, volume: float, scale: float = 1.0) -> float:
        """Transfer *volume* lines starting at *now*; returns finish time.

        Zero-volume requests complete immediately and reserve nothing.
        ``scale`` multiplies the occupancy (but not the ``lines``
        accounting) — the fault layer uses it for memory-channel latency
        jitter on a degraded channel.
        """
        if volume < 0:
            raise ValueError(f"volume must be >= 0, got {volume}")
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        if volume == 0:
            return now
        free, i = self._banks[0]
        start = free if free > now else now
        self.wait_cycles += start - now
        done = start + volume * self.cycles_per_line * scale
        heapreplace(self._banks, (done, i))
        self.transfers += 1
        self.lines += volume
        self.busy_cycles += done - start
        if self._trace is not None:
            # One track per bank: service intervals on a bank are disjoint,
            # so the B/E spans nest trivially.
            self._trace.span("xfer", PID_RESOURCES, f"{self.label}-bank{i}",
                             start, done, lines=volume, wait=start - now)
        return done
