"""Shared helpers for the simulated kernels."""

from __future__ import annotations

import numpy as np

from repro.sim.stats import ChunkExec

__all__ = ["flat_gather", "gather_neighbors", "wave_partition", "KernelRun",
           "AccessSet", "BenignRace"]


def flat_gather(indices: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Concatenate CSR slices ``indices[starts[i]:ends[i]]``.

    Returns ``(values, seg)`` where ``seg[j]`` is the slice index that
    produced ``values[j]``.  Fully vectorised.
    """
    lens = (ends - starts).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, lens)
    seg = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    return indices[flat].astype(np.int64, copy=False), seg


def gather_neighbors(indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray):
    """All neighbours of *verts*: ``(neighbors, seg)`` with ``seg`` the
    position of the owning vertex within *verts*."""
    return flat_gather(indices, indptr[verts], indptr[verts + 1])


def wave_partition(chunks: list[ChunkExec], n_threads: int) -> list[list[ChunkExec]]:
    """Group a chunk schedule into concurrency *waves*.

    Chunks are sorted by start time and grouped ``n_threads`` at a time:
    chunks in the same wave are treated as executing concurrently, in
    lockstep (each sees the others' writes from earlier positions only),
    chunks in earlier waves as committed.
    This is the time-faithful approximation the semantic replay uses for
    speculative-colouring conflicts and relaxed-queue duplicates
    (DESIGN.md §3).
    """
    ordered = sorted(chunks, key=lambda c: (c.start, c.thread, c.lo))
    return [ordered[i:i + n_threads] for i in range(0, len(ordered), n_threads)]


class BenignRace:
    """A declared-intentional race on one array (see :class:`AccessSet`).

    ``expect`` asserts the race must actually appear in the schedule
    (its absence becomes a checker warning — e.g. speculative colouring
    *relies* on concurrent tentative writes existing); ``bound`` caps
    the racing pair count as a fraction of the array's declared writes.
    """

    __slots__ = ("array", "reason", "expect", "bound")

    def __init__(self, array: str, reason: str, expect: bool = False,
                 bound: float | None = None):
        if not reason:
            raise ValueError("benign_race requires a reason — annotation "
                             "documents intent, it is not suppression")
        if bound is not None and not 0.0 <= bound:
            raise ValueError(f"bound must be >= 0, got {bound}")
        self.array = array
        self.reason = reason
        self.expect = expect
        self.bound = bound


class AccessSet:
    """A parallel loop's declared per-chunk memory footprint.

    Kernels hand one of these to ``parallel_for(..., access=...)`` when
    a :mod:`repro.check` checker is active.  Each entry names a shared
    *array* and a vectorised ``cells(lo, hi) -> ndarray`` closure that
    returns the cell ids items ``[lo, hi)`` touch; the checker
    intersects the footprints of concurrent chunks to find
    unsynchronized overlaps.

    ``guard`` names a per-cell lock family (e.g. the SNAP BFS's
    per-vertex locks): two accesses to the same cell under the same
    guard are treated as synchronized by the lockset pass.

    :meth:`benign_race` annotates an array whose races are *intended*
    (speculative colouring's tentative writes, relaxed-queue inserts):
    they are tallied and bound-checked instead of reported.
    """

    __slots__ = ("label", "entries", "benign")

    READ = "read"
    WRITE = "write"

    def __init__(self, label: str = ""):
        self.label = label
        self.entries: list[tuple] = []  # (kind, array, cells_fn, guard)
        self.benign: dict[str, BenignRace] = {}

    def reads(self, array: str, cells, guard: str | None = None) -> "AccessSet":
        """Declare that items ``[lo, hi)`` read ``array[cells(lo, hi)]``."""
        self.entries.append((self.READ, array, cells, guard))
        return self

    def writes(self, array: str, cells, guard: str | None = None) -> "AccessSet":
        """Declare that items ``[lo, hi)`` write ``array[cells(lo, hi)]``."""
        self.entries.append((self.WRITE, array, cells, guard))
        return self

    def benign_race(self, array: str, reason: str, expect: bool = False,
                    bound: float | None = None) -> "AccessSet":
        """Annotate races on *array* as intentional (asserted, not reported)."""
        self.benign[array] = BenignRace(array, reason, expect=expect,
                                        bound=bound)
        return self

    def footprint(self, lo: int, hi: int) -> dict:
        """Evaluate the declared closures for chunk ``[lo, hi)``.

        Returns ``{array: [(kind, cells, guard), ...]}`` with each cell
        array deduplicated ``int64``; empty footprints are dropped.
        """
        out: dict[str, list] = {}
        for kind, array, cells_fn, guard in self.entries:
            cells = np.unique(np.asarray(cells_fn(lo, hi), dtype=np.int64))
            if len(cells):
                out.setdefault(array, []).append((kind, cells, guard))
        return out


class KernelRun:
    """Base class for kernel run results: accumulates simulated time."""

    def __init__(self):
        self.total_cycles = 0.0
        self.loop_stats = []

    def add_loop(self, stats) -> None:
        """Fold one parallel loop's span into the run total."""
        self.total_cycles += stats.span
        self.loop_stats.append(stats)
