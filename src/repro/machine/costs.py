"""Per-item cost arrays for the simulated kernels.

Every kernel iteration (one vertex of one parallel loop) is summarised as
``(compute, stall, volume)`` — issue cycles, expected exposed memory
latency, and DRAM lines.  :class:`WorkCosts` holds the per-item arrays
plus prefix sums so a scheduler chunk's cost is an O(1) lookup, which is
what keeps the discrete-event simulation at chunk granularity.

The per-operation cycle constants below are model parameters for a simple
in-order x86 core (they scale through ``MachineConfig.issue_width`` for
the out-of-order host).  They were calibrated jointly with
:mod:`repro.machine.config` against the paper's reported speedup shapes
(see EXPERIMENTS.md); the *structure* — what is charged per vertex, per
edge, per queue push — follows the algorithms in §III/IV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.machine.cache import AccessProfile

__all__ = [
    "WorkCosts",
    "coloring_tentative_costs",
    "coloring_conflict_costs",
    "irregular_costs",
    "bfs_scan_costs",
    "OP",
]


class OP:
    """Per-operation issue-cycle constants (see module docstring)."""

    # Greedy colouring: loop bookkeeping + first-fit scan + colour write.
    COLOR_VERTEX = 26.0
    # Per neighbour: load colour, update forbidden array.
    COLOR_EDGE = 7.0
    # Conflict detection: per vertex / per neighbour compare.
    CONFLICT_VERTEX = 12.0
    CONFLICT_EDGE = 4.0
    # Irregular microbenchmark: per-iteration loop + division, per-edge FMA.
    IRREG_VERTEX = 20.0
    IRREG_EDGE = 12.0
    # Repeat passes hit L1: the load still occupies issue slots.
    IRREG_EDGE_CACHED = 10.0
    # BFS: dequeue + level write + queue-push bookkeeping.
    BFS_VERTEX = 16.0
    BFS_EDGE = 6.0
    BFS_PUSH = 9.0
    # Scanning a sentinel entry in a block-accessed queue.
    BFS_SENTINEL = 3.0


@dataclass(frozen=True)
class WorkCosts:
    """Per-item cost arrays with O(1) range sums."""

    compute: np.ndarray
    stall: np.ndarray
    volume: np.ndarray
    _pc: memoryview = None
    _ps: memoryview = None
    _pv: memoryview = None

    def __post_init__(self):
        for name, arr in (("compute", self.compute), ("stall", self.stall),
                          ("volume", self.volume)):
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            if arr.ndim != 1 or len(arr) != len(self.compute):
                raise ValueError(f"{name} must be 1-D and consistent in length")
            if len(arr) and (not np.isfinite(arr).all() or arr.min() < 0):
                raise ValueError(f"{name} must be finite and non-negative")
            object.__setattr__(self, name, arr)
        # The three prefix sums (each with a leading 0.0) in one float64
        # buffer, read through memoryviews: an item is a Python float
        # holding the same double, so range_cost does no numpy scalar
        # arithmetic on the per-chunk path.
        n = len(self.compute)
        buf = np.zeros((3, n + 1))
        for row, arr in zip(buf, (self.compute, self.stall, self.volume)):
            np.cumsum(arr, out=row[1:])
        pc, ps, pv = (memoryview(row) for row in buf)
        object.__setattr__(self, "_pc", pc)
        object.__setattr__(self, "_ps", ps)
        object.__setattr__(self, "_pv", pv)

    def __len__(self) -> int:
        return len(self.compute)

    def range_cost(self, lo: int, hi: int) -> tuple[float, float, float]:
        """(compute, stall, volume) summed over items ``[lo, hi)``, as
        Python floats (the same doubles as a float64 difference)."""
        pc, ps, pv = self._pc, self._ps, self._pv
        if not 0 <= lo <= hi < len(pc):
            raise IndexError(f"range [{lo}, {hi}) out of bounds for {len(self)}")
        return pc[hi] - pc[lo], ps[hi] - ps[lo], pv[hi] - pv[lo]

    @property
    def total(self) -> tuple[float, float, float]:
        """(compute, stall, volume) over all items."""
        return self._pc[-1], self._ps[-1], self._pv[-1]

    def take(self, idx: np.ndarray) -> "WorkCosts":
        """Cost arrays for a subset/permutation of items (e.g. a Visit set)."""
        return WorkCosts(self.compute[idx], self.stall[idx], self.volume[idx])


def coloring_tentative_costs(graph: CSRGraph, profile: AccessProfile) -> WorkCosts:
    """Costs of one speculative-colouring pass over every vertex (Alg. 3)."""
    deg = graph.degrees.astype(np.float64)
    compute = OP.COLOR_VERTEX + OP.COLOR_EDGE * deg
    return WorkCosts(compute, profile.stall.copy(), profile.volume.copy())


def coloring_conflict_costs(graph: CSRGraph, profile: AccessProfile,
                            stall_factor: float = 0.5) -> WorkCosts:
    """Costs of the conflict-detection pass (Alg. 4).

    The pass re-reads the colours the tentative pass just wrote, so a
    fraction of its random reads are cache-warm (``stall_factor``).
    """
    deg = graph.degrees.astype(np.float64)
    compute = OP.CONFLICT_VERTEX + OP.CONFLICT_EDGE * deg
    return WorkCosts(compute, stall_factor * profile.stall,
                     stall_factor * profile.volume)


def irregular_costs(graph: CSRGraph, profile: AccessProfile,
                    iterations: int, local_hit_cycles: float) -> WorkCosts:
    """Costs of the irregular-computation microbenchmark (Alg. 5).

    The first pass over a vertex's neighbourhood pays the access profile;
    the remaining ``iterations - 1`` passes re-read lines the first pass
    just touched — an issue-slot cost plus a short, SMT-hideable latency.
    This is what moves the kernel from memory-bound (``iter = 1``) to
    compute-bound (``iter = 10``), the axis of the paper's Figure 3.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    deg = graph.degrees.astype(np.float64)
    compute = (OP.IRREG_VERTEX * iterations + OP.IRREG_EDGE * deg * iterations
               + OP.IRREG_EDGE_CACHED * deg * (iterations - 1))
    stall = profile.stall + (iterations - 1) * deg * local_hit_cycles * 0.8
    return WorkCosts(compute, stall, profile.volume.copy())


def bfs_scan_costs(graph: CSRGraph, profile: AccessProfile) -> WorkCosts:
    """Per-vertex costs of scanning one *valid* queue entry during a BFS
    level: visit bookkeeping plus the adjacency sweep.

    Queue-push and sentinel costs are frontier-dependent and added by the
    BFS kernels themselves.
    """
    deg = graph.degrees.astype(np.float64)
    compute = OP.BFS_VERTEX + OP.BFS_EDGE * deg
    return WorkCosts(compute, profile.stall.copy(), profile.volume.copy())
