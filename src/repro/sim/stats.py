"""Execution statistics collected during a simulated parallel loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["ChunkExec", "LoopStats"]


class ChunkExec(NamedTuple):
    """One executed chunk: items ``[lo, hi)`` ran on *thread* over
    ``[start, end)`` simulated cycles.

    A named tuple, not a dataclass: one is built per simulated chunk.
    """

    lo: int
    hi: int
    thread: int
    start: float
    end: float

    @property
    def size(self) -> int:
        """Items in the chunk."""
        return self.hi - self.lo

    @property
    def duration(self) -> float:
        """Simulated cycles the chunk occupied its thread."""
        return self.end - self.start


@dataclass
class LoopStats:
    """Aggregate accounting for one simulated ``parallel_for``."""

    span: float = 0.0                 # elapsed cycles, fork to join
    busy_cycles: float = 0.0          # sum of chunk durations over threads
    sched_cycles: float = 0.0         # chunk fetch / task bookkeeping
    atomic_operations: int = 0
    atomic_wait_cycles: float = 0.0
    steals: int = 0
    failed_steals: int = 0
    tasks_spawned: int = 0
    tls_inits: int = 0
    tls_cycles: float = 0.0           # thread-local scratch init time
    hang_cycles: float = 0.0          # SMT-context freeze time (fault layer)
    killed_threads: list[int] = field(default_factory=list)
    hangs: list[tuple] = field(default_factory=list)  # (thread, start, end)
    chunks: list[ChunkExec] = field(default_factory=list)

    @property
    def n_chunks(self) -> int:
        """Chunks executed during the loop."""
        return len(self.chunks)
