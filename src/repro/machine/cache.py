"""Cache / locality model: prices every CSR adjacency access.

The graph kernels' dominant memory traffic is the *random* read of a
per-vertex state array (``color[w]``, ``bfs[w]``, ``state[w]``) for every
neighbour ``w``, plus the *streamed* scan of the CSR adjacency itself.
This module turns the graph structure and an ordering into per-vertex
expected stall cycles and DRAM line volumes, which
:mod:`repro.machine.costs` assembles into kernel cost arrays.

Model (DESIGN.md §3).  For an access by vertex ``v`` to neighbour ``w``:

* the **reuse distance** is proxied by the vertex-ID distance
  ``d = |v - w|`` times the sweep footprint per vertex (state + adjacency
  + neighbour lines).  Natural FEM orderings keep ``d`` within the band,
  a random shuffle makes ``d ~ n/3`` — destroying locality exactly as the
  paper's §V-B shuffle does;
* the access hits the core's private cache with probability
  ``exp(-(reuse / share)**2)`` — an LRU-like capacity knee — where
  ``share`` is the per-core cache divided by co-resident SMT threads
  (SMT pressure);
* a local miss finds the line in a *peer* cache with probability
  ``min(1, other_cores_cache / working_set)`` — as more cores are used the
  hot array becomes chip-resident and misses are served at ring latency
  instead of DRAM.  This is the aggregate-cache effect behind the paper's
  super-linear speedup 153 on shuffled graphs (Fig. 2);
* the remainder goes to DRAM: full latency plus a line of channel volume.

``cache_scale`` shrinks the simulated cache to match a scaled-down graph
(suite graphs are ≈1/8 of the paper's, so the cache is too — keeping the
working-set/cache ratio of the real machine).

Evaluation.  Every per-entry quantity depends on an entry only through
``d``, so it is tabulated once per distance.  The sweep then walks the
CSR in row-aligned blocks (:func:`repro.graph.csr._row_blocks`, the one
helper and block budget of every pass over a graph's entries), gathers
the tables by each block's distances and sums them per vertex with a
cumulative sum that starts from the previous blocks' total: the
same floats as one cumulative sum over every entry, in O(vertices +
block) memory.  The entry-weighted hit fractions are sums over every
entry; they are computed on first read (telemetry, reports, tests),
rebuilding the per-distance tables from four scalars, so an unobserved
run never holds an array of CSR-entry length and a memoised profile
holds no table as long as the largest ID distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph, _row_blocks
from repro.machine.config import MachineConfig
from repro.obs import metrics as _obs_metrics

__all__ = ["AccessProfile", "access_profile", "access_profile_cached"]

#: Bytes per CSR index entry (int32 adjacency, as in the paper's C codes).
INDEX_BYTES = 4


@dataclass(frozen=True)
class AccessProfile:
    """Per-vertex expected memory behaviour of one adjacency sweep.

    Attributes
    ----------
    stall:
        Expected exposed latency cycles per vertex (random state reads at
        their blended hit/miss cost, plus the visible part of the adjacency
        stream).
    volume:
        Expected DRAM lines transferred per vertex (random misses plus the
        streamed adjacency).
    p_local / p_remote / p_dram:
        Edge-weighted average hit fractions (for reports, telemetry and
        tests).  *hit_split* computes them over every CSR entry on first
        read; the result is kept on the instance.
    """

    stall: np.ndarray
    volume: np.ndarray
    hit_split: Callable[[], tuple[float, float, float]] = field(
        repr=False, compare=False)

    @cached_property
    def _split(self) -> tuple[float, float, float]:
        return self.hit_split()

    @property
    def p_local(self) -> float:
        return self._split[0]

    @property
    def p_remote(self) -> float:
        return self._split[1]

    @property
    def p_dram(self) -> float:
        return self._split[2]


def _entry_distances(graph: CSRGraph, r0: int, r1: int) -> np.ndarray:
    """ID distances ``|v - w|`` of the CSR entries of rows ``r0:r1``
    (int32: both IDs are below ``n < 2**31``)."""
    dist = np.repeat(np.arange(r0, r1, dtype=np.int32),
                     graph.degrees[r0:r1])
    dist -= graph.indices[graph.indptr[r0]:graph.indptr[r1]]
    return np.abs(dist, out=dist)


def _distance_tables(span: int, footprint: float, share: float,
                     residency: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-distance ``(local, peer, dram)`` hit probabilities for the ID
    distances ``0 .. span - 1``.

    LRU-like capacity curve: a reuse distance below the cache share is
    (nearly) always a hit, beyond it (nearly) always a miss; the squared
    exponent gives the sharp-but-smooth knee of real set-associative
    caches.  Banded FEM orderings land well inside the knee (~97% hits),
    the §V-B shuffle lands far outside (~0%).  A local miss is served by
    a peer cache with probability *residency*, else by DRAM.
    """
    reuse = footprint * np.arange(span, dtype=np.float64)
    p_local = np.exp(-((reuse / share) ** 2))
    p_remote = (1.0 - p_local) * residency
    p_dram = (1.0 - p_local) * (1.0 - residency)
    return p_local, p_remote, p_dram


def _hit_fractions(graph: CSRGraph, *table_args) -> tuple[float, float, float]:
    """Entry-weighted ``(local, peer, dram)`` hit fractions of the sweep.

    Each is a (pairwise) numpy sum of its per-distance table
    (:func:`_distance_tables` of *table_args*, rebuilt here so that a
    memoised profile holds no table) gathered over every CSR entry,
    divided by the entry count: the one place the model holds an
    entry-length array, so it runs only when a fraction is read.
    """
    tables = _distance_tables(*table_args)
    dist = _entry_distances(graph, 0, graph.n_vertices)
    entries = np.empty(len(dist))
    total = max(1, len(dist))
    local, remote, dram = (
        float(np.take(table, dist, out=entries, mode="clip").sum() / total)
        for table in tables)
    return local, remote, dram


def access_profile(
    graph: CSRGraph,
    config: MachineConfig,
    n_threads: int,
    state_bytes: int = 4,
    cache_scale: float = 1.0,
) -> AccessProfile:
    """Price one full adjacency sweep of *graph* under *n_threads*.

    ``state_bytes`` is the element size of the randomly-accessed state
    array (4 for ``color``/``bfs`` int arrays, 8 for the microbenchmark's
    doubles).

    Every per-entry quantity depends on the entry only through its
    integer ID distance, so each is evaluated once per distance and
    gathered by distance: the same floats as evaluating it per entry.
    The gather and the per-vertex sums run over row-aligned blocks of
    at most :data:`repro.graph.csr.BLOCK_ENTRIES` entries, each block's
    cumulative sum starting from the running total of the blocks before
    it, so every prefix — and every ``stall[v]``/``volume[v]`` — is the
    float a cumulative sum over all entries at once gives.
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    if state_bytes < 1:
        raise ValueError(f"state_bytes must be >= 1, got {state_bytes}")
    if cache_scale <= 0:
        raise ValueError(f"cache_scale must be > 0, got {cache_scale}")

    n = graph.n_vertices
    if n == 0:
        empty = np.zeros(0)
        return AccessProfile(empty, empty, lambda: (1.0, 0.0, 0.0))

    line = config.line_bytes
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees.astype(np.float64)
    avg_deg = max(1.0, float(degrees.mean()))

    # --- per-distance local-hit probability -----------------------------
    # Sweep footprint: *new* lines touched per vertex swept — its
    # state-array share and its adjacency-stream share.  (Neighbour lines
    # are not counted separately: in a banded ordering consecutive
    # vertices revisit the same neighbour lines, and in a shuffled
    # ordering the ID-distance term below already drives the reuse
    # distance past any cache size.)
    footprint = state_bytes / line + avg_deg * INDEX_BYTES / line + 0.5
    # Rows are sorted, so a row's largest distance is to its first or
    # its last neighbour.
    rows = np.flatnonzero(graph.degrees)
    span = 1
    if len(rows):
        span += int(max((rows - indices[indptr[rows]]).max(),
                        (indices[indptr[rows + 1] - 1] - rows).max()))

    threads_per_core = -(-n_threads // config.n_cores)
    cores_used = min(n_threads, config.n_cores)
    per_core_lines = config.cache_lines_per_core * cache_scale
    share = max(1.0, per_core_lines / threads_per_core)

    # --- chip residency of the hot state array --------------------------
    state_lines = n * state_bytes / line
    other_cache = per_core_lines * max(0, cores_used - 1)
    residency = min(1.0, other_cache / max(1.0, state_lines))
    table_args = (span, footprint, share, residency)
    p_local, p_remote, p_dram = _distance_tables(*table_args)

    per_entry_stall = (p_local * config.local_hit_cycles
                       + p_remote * config.remote_hit_cycles
                       + p_dram * config.dram_cycles)

    # --- aggregate per vertex: blocked segment sums over the CSR --------
    # Per table, ``prefix[0]`` holds the running sum of every earlier
    # block and ``prefix[1:]`` the block's prefix sums continuing it, so
    # a row's sum is the difference of its two boundary prefixes (every
    # distance is in range, so "clip" only skips numpy's bounds buffer).
    stall = np.empty(n)
    volume = np.empty(n)
    sums = ((per_entry_stall, stall), (p_dram, volume))
    carry = [0.0] * len(sums)
    for r0, r1 in _row_blocks(indptr):
        dist = _entry_distances(graph, r0, r1)
        bounds = indptr[r0:r1 + 1] - indptr[r0]
        entries = np.empty(len(dist))
        prefix = np.empty(len(dist) + 1)
        for i, (table, out) in enumerate(sums):
            prefix[0] = carry[i]
            np.take(table, dist, out=entries, mode="clip")
            if len(entries):
                entries[0] += carry[i]
                np.cumsum(entries, out=prefix[1:])
            carry[i] = prefix[-1]
            np.subtract(prefix[bounds[1:]], prefix[bounds[:-1]],
                        out=out[r0:r1])

    # Streamed adjacency: deg * INDEX_BYTES / line lines per vertex, mostly
    # hidden by prefetch (config.stream_visibility exposes a fraction).
    stream_lines = degrees * INDEX_BYTES / line
    volume += stream_lines
    stall += config.stream_visibility * config.dram_cycles * stream_lines

    return AccessProfile(stall, volume,
                         partial(_hit_fractions, graph, *table_args))


@lru_cache(maxsize=1024)
def _access_profile_lru(graph: CSRGraph, config: MachineConfig,
                        n_threads: int, state_bytes: int,
                        cache_scale: float) -> AccessProfile:
    return access_profile(graph, config, n_threads, state_bytes, cache_scale)


def access_profile_cached(graph: CSRGraph, config: MachineConfig,
                          n_threads: int, state_bytes: int = 4,
                          cache_scale: float = 1.0) -> AccessProfile:
    """Memoised :func:`access_profile` (graphs hash by identity).

    Thread sweeps recompute the same per-edge pricing many times; this
    keeps the experiment harness linear in distinct configurations.  The
    profile reads ``n_threads`` only through the threads per core and the
    cores used, so the memo is keyed on the smallest thread count with
    the same pair: on KNF, 41, 51 and 61 threads share one profile.

    When a metrics registry (:mod:`repro.obs.metrics`) is active, every
    *use* of a profile — memoised or not — records the expected cache
    hit-tier split of the sweep (local / peer / DRAM accesses) so the
    per-loop frames can attribute memory behaviour; the recording sits
    outside the LRU wrapper on purpose.
    """
    if n_threads > config.n_cores:
        # Same threads per core, all cores used: ceil(t / cores) is fixed.
        n_threads -= (n_threads - 1) % config.n_cores
    profile = _access_profile_lru(graph, config, n_threads, state_bytes,
                                  cache_scale)
    registry = _obs_metrics.active()
    if registry is not None:
        accesses = float(graph.n_directed_entries)
        registry.counter("cache.sweeps").inc(1)
        registry.counter("cache.accesses", tier="local").inc(
            profile.p_local * accesses)
        registry.counter("cache.accesses", tier="peer").inc(
            profile.p_remote * accesses)
        registry.counter("cache.accesses", tier="dram").inc(
            profile.p_dram * accesses)
    return profile
