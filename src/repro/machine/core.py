"""SMT core and chip timing model.

A chunk of work is summarised by three numbers (computed vectorised by
:mod:`repro.machine.costs`): ``compute`` cycles to issue, ``stall`` cycles
of expected memory latency, and ``volume`` DRAM lines transferred.

A core with ``k`` busy SMT contexts executes a chunk in::

    max(k * compute / issue_width,        # pipeline shared by residents
        compute / issue_width + stall,    # this thread's critical path
        memory channel finish time)       # chip-wide bandwidth

which is the standard fluid SMT model: when the chunk is memory-bound the
other residents' compute hides its stalls (time ≈ compute + stall
regardless of k, so speedup keeps growing to 4 threads/core — the paper's
coloring result), and when compute-bound the residents serialise on the
issue pipeline (speedup caps at the core count — the paper's irregular
kernel at high ``iter``).  Occupancy is sampled at chunk start; chunks are
small and numerous so mid-chunk occupancy drift averages out (DESIGN.md §3).
"""

from __future__ import annotations

from repro.machine.config import MachineConfig
from repro.sim.resources import MemoryChannel

__all__ = ["Core", "Chip"]


class Core:
    """One physical core: counts its busy SMT contexts.

    :meth:`repro.runtime.base.LoopContext.execute_chunk` raises ``busy``
    when a chunk starts on the core and lowers it when the chunk ends.
    """

    __slots__ = ("index", "busy")

    def __init__(self, index: int):
        self.index = index
        self.busy = 0


class Chip:
    """A full machine instance: cores plus the shared memory channel.

    One ``Chip`` is created per simulated parallel region; its state
    (core occupancy, channel bank reservations) is transient.
    """

    def __init__(self, config: MachineConfig, n_threads: int, faults=None):
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        config.check_threads(n_threads)
        self.config = config
        self.n_threads = n_threads
        self.faults = faults  # optional repro.sim.faults.FaultInjector
        self.cores = [Core(i) for i in range(config.n_cores)]
        # Scatter placement: thread i lives on core i % n_cores.  This
        # matches the paper's setup: with <= 31 threads each gets its own
        # KNF core; SMT co-residency starts past the core count.
        self.thread_cores = [self.cores[t % config.n_cores]
                             for t in range(n_threads)]
        self.channel = MemoryChannel(config.mem_banks, config.dram_transfer_cycles)
        # Per-chunk constant of execute(), read once.
        self._issue_width = config.issue_width

    def execute(self, now: float, core: Core, compute: float, stall: float,
                volume: float) -> float:
        """Duration of a chunk started at *now* on *core* (a member of
        :attr:`thread_cores`).

        The caller counts the chunk in ``core.busy`` for as long as it
        runs, so the occupancy read from the core is at least 1.
        """
        k = core.busy
        iw = self._issue_width
        jitter = 1.0
        faults = self.faults
        if faults is not None:
            # Clock throttling stretches every issued cycle; transient
            # stalls add exposed latency; jitter degrades the channel.
            compute = compute * faults.compute_factor(core.index, now)
            stall = stall + faults.transient_stall(core.index, now)
            jitter = faults.channel_factor(now)
        channel_done = self.channel.service(now, volume, jitter)
        return max(k * compute / iw, compute / iw + stall, channel_done - now)
