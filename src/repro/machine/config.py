"""Machine configurations.

Two machines from the paper's §V-A:

* :data:`KNF` — the Knights Ferry prototype: 31 usable in-order cores with
  4-way SMT (up to 124 hardware threads; the paper sweeps 1..121), small
  per-core L2, GDDR5 with high latency but ample bandwidth, a bidirectional
  ring for coherence/atomics.
* :data:`HOST_XEON` — the dual Xeon X5680 host: 12 out-of-order cores with
  2-way HyperThreading, large shared L3, low-latency DDR3.

All costs are in core clock cycles.  Absolute cycle counts are *model
parameters*, not silicon measurements (the paper's absolute numbers were
under NDA); they are chosen so the relative behaviours the paper reports
emerge: SMT latency hiding, ring-atomic contention, allocation-hostile
bag traversal, and the host's stronger single-thread baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MachineConfig", "KNF", "HOST_XEON", "MACHINES"]


@dataclass(frozen=True)
class MachineConfig:
    """Timing/topology parameters of a simulated shared-memory machine."""

    name: str
    n_cores: int
    smt_per_core: int
    #: Instructions issued per cycle per core, shared by resident SMT
    #: threads (1.0 models the in-order KNF pipeline; >1 models OoO hosts).
    issue_width: float

    # --- cache hierarchy -------------------------------------------------
    line_bytes: int
    #: Per-core private cache capacity in lines (KNF: 256 KiB L2).
    cache_lines_per_core: int
    #: Load-to-use cycles for a local cache hit beyond L1.
    local_hit_cycles: float
    #: Ring/snoop latency when the line lives in a peer's cache.
    remote_hit_cycles: float
    #: DRAM access latency.
    dram_cycles: float
    #: Latency discount for streamed (sequential, prefetch-friendly)
    #: accesses such as the CSR adjacency scan: 0 = fully hidden, 1 = full
    #: DRAM latency on every streamed line.
    stream_visibility: float

    # --- memory bandwidth -------------------------------------------------
    mem_banks: int
    dram_transfer_cycles: float  # channel occupancy per line

    # --- synchronisation ---------------------------------------------------
    atomic_cycles: float         # fetch-and-add service time (ring RTT)
    lock_cycles: float           # uncontended lock acquire/release pair
    barrier_hop_cycles: float    # per log2(t) step of the join barrier
    fork_cycles: float           # parallel-region entry (thread wakeup)

    # --- software/runtime costs --------------------------------------------
    alloc_cycles: float          # heap allocation (bag nodes, holders)
    spawn_cycles: float          # task spawn / deque push-pop pair
    steal_cycles: float          # successful steal (ring RTT + deque CAS)
    sched_chunk_cycles: float    # non-atomic per-chunk dispatch bookkeeping
    tls_init_cycles_per_entry: float  # first-touch init of thread-local state

    @property
    def max_threads(self) -> int:
        """Hardware thread count (cores × SMT ways)."""
        return self.n_cores * self.smt_per_core

    def check_threads(self, n_threads: int) -> None:
        """Raise :class:`ValueError` if *n_threads* exceed the contexts."""
        if n_threads > self.max_threads:
            raise ValueError(
                f"{n_threads} threads exceed {self.name}'s "
                f"{self.max_threads} hardware contexts")

    def barrier_cost(self, parties: int) -> float:
        """Release cost of a *parties*-thread barrier (log-tree of ring hops)."""
        if parties <= 1:
            return 0.0
        return self.barrier_hop_cycles * max(1, (parties - 1).bit_length())

    def with_(self, **changes) -> "MachineConfig":
        """A modified copy (used by ablation benches)."""
        return replace(self, **changes)


#: Knights Ferry prototype (§V-A): 32 cores on chip, 31 exposed in offload
#: mode, 4-way SMT, 1 GB GDDR5.
KNF = MachineConfig(
    name="KNF",
    n_cores=31,
    smt_per_core=4,
    issue_width=1.0,
    line_bytes=64,
    cache_lines_per_core=4096,        # 256 KiB private L2
    local_hit_cycles=6.0,      # mostly L1-resident within the banded sweep
    remote_hit_cycles=240.0,   # ring snoop under load; 153-superlinearity lever
    dram_cycles=320.0,
    stream_visibility=0.25,           # in-order core, software prefetch only
    mem_banks=16,
    dram_transfer_cycles=1.2,
    atomic_cycles=70.0,
    lock_cycles=120.0,
    barrier_hop_cycles=60.0,
    fork_cycles=800.0,
    alloc_cycles=600.0,               # FreeBSD-derivative uOS malloc
    spawn_cycles=90.0,
    steal_cycles=350.0,
    sched_chunk_cycles=12.0,
    tls_init_cycles_per_entry=1.0,
)

#: Dual Intel Xeon X5680 host (§V-A): 2 × 6 OoO cores at 3.33 GHz with
#: HyperThreading, 12 MiB shared L3 per socket, DDR3.
HOST_XEON = MachineConfig(
    name="HOST_XEON",
    n_cores=12,
    smt_per_core=2,
    issue_width=3.0,                  # out-of-order superscalar
    line_bytes=64,
    cache_lines_per_core=32768,       # 2 MiB effective L3 share per core
    local_hit_cycles=35.0,            # L3-ish; L1/L2 hits are in issue cost
    remote_hit_cycles=110.0,          # QPI snoop
    dram_cycles=220.0,
    stream_visibility=0.05,           # hardware prefetchers hide streams
    mem_banks=6,
    dram_transfer_cycles=2.0,
    atomic_cycles=45.0,
    lock_cycles=80.0,
    barrier_hop_cycles=45.0,
    fork_cycles=1500.0,
    alloc_cycles=250.0,
    spawn_cycles=60.0,
    steal_cycles=220.0,
    sched_chunk_cycles=8.0,
    tls_init_cycles_per_entry=0.5,
)

#: Every machine a campaign cell or figure panel can name: the paper's two
#: machines and the ablations' KNF variants — no SMT (one context per
#: core), no aggregate-cache benefit (remote hits priced as DRAM), and
#: near-cacheless cores on 16, 4 or 1 DRAM banks.
MACHINES: dict[str, MachineConfig] = {config.name: config for config in (
    KNF, HOST_XEON,
    KNF.with_(name="KNF-noSMT", smt_per_core=1),
    KNF.with_(name="KNF-noAggCache", remote_hit_cycles=KNF.dram_cycles),
    *(KNF.with_(name=f"KNF-{banks}banks", mem_banks=banks,
                cache_lines_per_core=8, dram_transfer_cycles=8.0)
      for banks in (16, 4, 1)),
)}
