"""Cache / locality model: prices every CSR adjacency access.

The graph kernels' dominant memory traffic is the *random* read of a
per-vertex state array (``color[w]``, ``bfs[w]``, ``state[w]``) for every
neighbour ``w``, plus the *streamed* scan of the CSR adjacency itself.
This module turns the graph structure and an ordering into per-vertex
expected stall cycles and DRAM line volumes — vectorised over all CSR
entries at once — which :mod:`repro.machine.costs` assembles into kernel
cost arrays.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.graph.csr import CSRGraph
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
        Edge-weighted average hit fractions (for reports and tests).
    """

    stall: np.ndarray
    volume: np.ndarray
    p_local: float
    p_remote: float
    p_dram: float


def _segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum *values* over CSR segments (robust to empty segments)."""
    cs = np.empty(len(values) + 1)
    cs[0] = 0.0
    np.cumsum(values, out=cs[1:])
    return cs[indptr[1:]] - cs[indptr[:-1]]


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
        return AccessProfile(empty, empty, 1.0, 0.0, 0.0)

    line = config.line_bytes
    degrees = graph.degrees.astype(np.float64)
    avg_deg = max(1.0, float(degrees.mean()))

    # --- per-distance local-hit probability -----------------------------
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    src -= graph.indices
    dist = np.abs(src, out=src)
    # Sweep footprint: *new* lines touched per vertex swept — its
    # state-array share and its adjacency-stream share.  (Neighbour lines
    # are not counted separately: in a banded ordering consecutive
    # vertices revisit the same neighbour lines, and in a shuffled
    # ordering the ID-distance term below already drives the reuse
    # distance past any cache size.)
    footprint = state_bytes / line + avg_deg * INDEX_BYTES / line + 0.5
    span = int(dist.max()) + 1 if len(dist) else 1
    reuse = footprint * np.arange(span, dtype=np.float64)

    threads_per_core = -(-n_threads // config.n_cores)
    cores_used = min(n_threads, config.n_cores)
    per_core_lines = config.cache_lines_per_core * cache_scale
    share = max(1.0, per_core_lines / threads_per_core)
    # LRU-like capacity curve: a reuse distance below the cache share is
    # (nearly) always a hit, beyond it (nearly) always a miss; the squared
    # exponent gives the sharp-but-smooth knee of real set-associative
    # caches.  Banded FEM orderings land well inside the knee (~97% hits),
    # the §V-B shuffle lands far outside (~0%).
    p_local = np.exp(-((reuse / share) ** 2))

    # --- chip residency of the hot state array --------------------------
    state_lines = n * state_bytes / line
    other_cache = per_core_lines * max(0, cores_used - 1)
    residency = min(1.0, other_cache / max(1.0, state_lines))
    p_remote = (1.0 - p_local) * residency
    p_dram = (1.0 - p_local) * (1.0 - residency)

    per_entry_stall = (p_local * config.local_hit_cycles
                       + p_remote * config.remote_hit_cycles
                       + p_dram * config.dram_cycles)

    # --- aggregate per vertex (segment sums over the CSR layout) ---------
    # One entry-length buffer takes each gathered table in turn (every
    # distance is in range, so "clip" only skips numpy's bounds buffer).
    entries = np.empty(len(dist))

    def per_entry(table):
        return np.take(table, dist, out=entries, mode="clip")

    stall = _segment_sum(per_entry(per_entry_stall), graph.indptr)
    volume = _segment_sum(per_entry(p_dram), graph.indptr)
    dram_sum = entries.sum()
    local_sum = per_entry(p_local).sum()
    remote_sum = per_entry(p_remote).sum()

    # Streamed adjacency: deg * INDEX_BYTES / line lines per vertex, mostly
    # hidden by prefetch (config.stream_visibility exposes a fraction).
    stream_lines = degrees * INDEX_BYTES / line
    volume += stream_lines
    stall += config.stream_visibility * config.dram_cycles * stream_lines

    total = max(1, len(dist))
    return AccessProfile(
        stall=stall,
        volume=volume,
        p_local=float(local_sum / total),
        p_remote=float(remote_sum / total),
        p_dram=float(dram_sum / total),
    )


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
