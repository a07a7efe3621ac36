"""Layered parallel BFS (the paper's Algorithm 7) with the three frontier
data structures of §IV-C:

* ``openmp-block`` / ``tbb-block`` — the paper's novel **block-accessed
  shared queue**: one contiguous array per level; each thread reserves
  blocks of ``block`` slots with an atomic fetch-and-add and pads its last
  partial block with sentinel entries (-1) that the next level skips.
* ``openmp-tls`` — the SNAP v0.4 scheme: thread-local queues merged into a
  global queue at the end of every level, with a per-vertex lock before
  insertion (including the paper's improvement of checking the level
  before attempting the lock).
* ``cilk-bag`` — the Leiserson–Schardl pennant bag
  (:mod:`repro.kernels.bfs.bag`): allocation-heavy, pointer-chasing, and —
  on the simulated KNF as on the real one — poorly scaling, because every
  pennant-node allocation funnels through the µOS allocator lock.

Every variant exists in *relaxed* (benign races allowed: a vertex can
enter the next queue more than once, costing redundant work next level)
and *locked* flavours; §V-D reports relaxed consistently wins, which the
cost model reproduces (lock latency per discovered vertex vs. occasional
duplicate scans).

Semantics are replayed over the simulated chunk schedule in concurrency
waves, so duplicate counts emerge from actual (simulated) concurrency.
The resulting distance labelling is always exact (the races are benign) —
tests assert it equals :func:`~repro.kernels.bfs.sequential.bfs_sequential`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.base import (AccessSet, KernelRun, flat_gather,
                                gather_neighbors, wave_partition)
from repro.machine.cache import access_profile_cached
from repro.machine.config import KNF, MachineConfig
from repro.machine.costs import OP, WorkCosts, bfs_scan_costs
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule)

__all__ = ["BFSRun", "simulate_bfs", "BFS_VARIANTS", "bfs_parallel"]

#: Per-insert cost of the bag frontier: the Cilk reducer resolves its view
#: through the runtime's hyperobject map on every insert, plus the pennant
#: pointer work itself.
BAG_INSERT_CYCLES = 70.0
#: Elements per pennant node (the paper's ``grainsize``).
BAG_GRAIN = 64
#: Serialized per-worker cost of the end-of-level reducer merge (bag
#: unions happen in the runtime's combine chain).
BAG_MERGE_CYCLES = 400.0
#: Cycles to copy one queue entry during the TLS end-of-level merge.
TLS_MERGE_CYCLES_PER_ENTRY = 2.0
#: Width of the check-then-write race window in a relaxed queue insert.
#: Two concurrent threads duplicate a vertex only when their windows
#: overlap; the replay thins lockstep collisions by
#: ``RACE_WINDOW_CYCLES / mean entry duration`` ("the race condition is
#: unlikely and benign", §III-C).
RACE_WINDOW_CYCLES = 60.0

BFS_VARIANTS = ("openmp-block", "tbb-block", "openmp-tls", "cilk-bag")


@dataclass
class BFSRun(KernelRun):
    """Result of one simulated layered-BFS execution."""

    dist: np.ndarray = None
    n_levels: int = 0
    duplicates: int = 0
    sentinels: int = 0
    entries_processed: int = 0
    level_spans: list = field(default_factory=list)

    def __init__(self):
        KernelRun.__init__(self)
        self.dist = None
        self.n_levels = 0
        self.duplicates = 0
        self.sentinels = 0
        self.entries_processed = 0
        self.level_spans = []


def _variant_spec(variant: str, block: int) -> RuntimeSpec:
    """Default runtime configuration per variant (per the paper's setup)."""
    if variant == "openmp-block":
        return RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC,
                           chunk=block)
    if variant == "tbb-block":
        return RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE,
                           chunk=block)
    if variant == "openmp-tls":
        return RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.STATIC,
                           chunk=block)
    if variant == "cilk-bag":
        return RuntimeSpec(ProgrammingModel.CILK, chunk=BAG_GRAIN)
    raise ValueError(f"unknown BFS variant {variant!r}; pick from {BFS_VARIANTS}")


def simulate_bfs(
    graph: CSRGraph,
    n_threads: int,
    variant: str = "openmp-block",
    relaxed: bool = True,
    source: int | None = None,
    block: int = 32,
    config: MachineConfig = KNF,
    cache_scale: float = 1.0,
    seed: int = 0,
    faults=None,
) -> BFSRun:
    """Simulate a layered parallel BFS of *graph* from *source*.

    Returns a :class:`BFSRun`; ``run.dist`` is the exact BFS labelling and
    ``run.total_cycles`` the simulated execution time.  ``faults`` (a
    :class:`~repro.sim.faults.FaultInjector`) degrades the simulated chip;
    kill faults can lose discoveries, so validate a faulted labelling with
    :func:`~repro.kernels.bfs.validate.validate_bfs`.
    """
    if variant not in BFS_VARIANTS:
        raise ValueError(f"unknown BFS variant {variant!r}; pick from {BFS_VARIANTS}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    n = graph.n_vertices
    run = BFSRun()
    run.dist = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return run
    if source is None:
        source = n // 2
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")

    spec = _variant_spec(variant, block)
    profile = access_profile_cached(graph, config, n_threads, state_bytes=4,
                             cache_scale=cache_scale)
    scan = bfs_scan_costs(graph, profile)
    indptr, indices = graph.indptr, graph.indices

    run.dist[source] = 0
    queue = np.asarray([source], dtype=np.int64)
    level = 1
    while True:
        valid = queue >= 0
        slots = np.flatnonzero(valid)
        if slots.size == 0:
            break
        verts = queue[slots]
        run.entries_processed += len(queue)

        # One neighbour gather per level, with the level-start discovery
        # mask: it prices the pushes and feeds the semantic replay.
        nbrs, seg = gather_neighbors(indptr, indices, verts)
        fresh = run.dist[nbrs] == -1
        pushes = _fresh_push_counts(seg, fresh, len(verts))
        work = _level_costs(queue, valid, verts, pushes, scan, config,
                            variant, relaxed, block)
        stats = spec.parallel_for(config, n_threads, work,
                                  fork=(level == 1), seed=seed + level,
                                  faults=faults,
                                  access=_level_access(graph, queue, run.dist,
                                                       relaxed, n_threads))
        span = stats.span
        if variant == "cilk-bag":
            # Every pennant-node allocation serialises on the µOS heap lock
            # (one node per BAG_GRAIN inserts, plus each active worker's
            # hopper), and the per-worker bags merge through the reducer
            # combine chain at level end.
            active = min(n_threads, max(1, -(-len(queue) // BAG_GRAIN)))
            allocs = int(pushes.sum()) // BAG_GRAIN + active
            span = max(span, allocs * config.alloc_cycles)
            if n_threads > 1:
                span += active * BAG_MERGE_CYCLES
        if variant == "openmp-tls":
            # End-of-level merge of thread-local queues into the global one.
            merge = (config.atomic_cycles * max(1, n_threads - 1).bit_length()
                     + pushes.sum() / max(1, n_threads) * TLS_MERGE_CYCLES_PER_ENTRY)
            span += merge
        run.total_cycles += span
        run.level_spans.append(span)
        run.loop_stats.append(stats)

        mean_entry = ((work.compute[valid].sum() + work.stall[valid].sum())
                      / max(1, len(verts)))
        p_race = min(1.0, RACE_WINDOW_CYCLES / max(1.0, mean_entry))
        per_thread, duplicates = _replay_level(
            slots[seg[fresh]], nbrs[fresh], len(queue), run.dist,
            stats.chunks, n_threads, level, relaxed, p_race,
            (seed + 1) * 100_003 + level)
        run.duplicates += duplicates
        queue, pad = _build_queue(per_thread, n_threads, variant, block)
        run.sentinels += pad
        level += 1

    run.n_levels = level - 1
    return run


def _level_access(graph: CSRGraph, queue: np.ndarray, dist: np.ndarray,
                  relaxed: bool, n_threads: int) -> AccessSet:
    """Footprint of one level's scan: entry ``i`` reads ``dist`` at the
    neighbours of ``queue[i]`` (the discovery check) and writes ``dist``
    at the undiscovered ones.

    The closures are evaluated at region end, *before* the semantic
    replay commits this level's discoveries, so ``dist`` still holds the
    level-start state the simulated threads actually observed.  Relaxed
    queues race benignly on those writes (the same vertex can be claimed
    twice — "unlikely and benign", paper §III-C); locked variants guard
    the write with the per-vertex lock family, leaving only the
    check-before-lock read unsynchronised — also benign, the worst case
    being a wasted lock attempt.
    """

    def read(lo, hi):
        entries = queue[lo:hi]
        verts = entries[entries >= 0]
        return gather_neighbors(graph.indptr, graph.indices, verts)[0]

    def written(lo, hi):
        nbrs = read(lo, hi)
        return nbrs[dist[nbrs] == -1]

    reason = ("relaxed queue insert: a vertex claimed by two threads is "
              "scanned twice next level, never mislabelled (paper §III-C)"
              if relaxed else
              "check-before-lock reads the level without the per-vertex "
              "lock; losing the check costs one lock attempt (paper §IV-C)")
    return (AccessSet("bfs-level")
            .reads("dist", read)
            .writes("dist", written,
                    guard=None if relaxed else "bfs-vertex-lock")
            .benign_race("dist", reason, expect=False))


def _fresh_push_counts(seg, fresh, n_verts) -> np.ndarray:
    """Per queue entry: how many of its neighbours are undiscovered at
    level start (the push attempts it will make)."""
    return np.bincount(seg[fresh], minlength=n_verts).astype(np.float64)


def _level_costs(queue, valid, verts, pushes, scan: WorkCosts,
                 config: MachineConfig, variant: str, relaxed: bool,
                 block: int) -> WorkCosts:
    """Per-entry cost arrays for one level's parallel scan."""
    m = len(queue)
    compute = np.full(m, OP.BFS_SENTINEL)
    stall = np.zeros(m)
    volume = np.full(m, 4.0 / config.line_bytes)  # queue entry stream-in

    compute[valid] = scan.compute[verts] + pushes * OP.BFS_PUSH
    stall[valid] = scan.stall[verts]
    volume[valid] += scan.volume[verts]

    if variant in ("openmp-block", "tbb-block"):
        # Output-queue tail fetch-and-add, amortised one per filled block.
        compute[valid] += pushes / block * config.atomic_cycles
        if not relaxed:
            stall[valid] += pushes * config.lock_cycles
    elif variant == "openmp-tls":
        # SNAP locks each vertex before pushing (fresh ones only, with the
        # paper's check-before-lock improvement).
        stall[valid] += pushes * config.lock_cycles
    elif variant == "cilk-bag":
        compute[valid] += pushes * BAG_INSERT_CYCLES
        # Traversal walks pennant trees: one exposed pointer chase per node.
        stall[valid] += config.dram_cycles / BAG_GRAIN
        if not relaxed:
            stall[valid] += pushes * config.lock_cycles
    return WorkCosts(compute, stall, volume)


def _replay_level(entry, vert, n_entries, dist, chunks, n_threads, level,
                  relaxed, p_race, seed):
    """Semantic replay of one level's discoveries, in one vectorised pass.

    *entry* / *vert* are the level's candidate claims: queue entry
    ``entry[k]`` reaches ``vert[k]``, undiscovered at level start.

    Chunks are grouped into concurrency waves, and every entry runs at an
    *instant* ``(wave, position)``: within a multi-chunk wave the threads
    advance entry by entry in lockstep, so the p-th entry of each chunk
    runs at instant ``(wave, p)``; a single-chunk wave runs sequentially
    and is one instant.  Caches are coherent — a committed ``dist[w]``
    write is visible from the next instant on — so a vertex can only be
    claimed at the first instant that reaches it.  The claimants at that
    instant race: the first chunk in wave order wins, and on a relaxed
    queue each other claimant duplicates the vertex only when its
    check-then-write window overlapped the winner's, which happens with
    probability *p_race* (window width / entry duration) — the "unlikely
    and benign" race of Leiserson & Schardl that §III-C/V-D discusses.
    Those draws come in ``(instant, vertex, chunk)`` order from a
    generator seeded with *seed*, built only when a level has extra
    claimants to draw for.
    The locked variants admit one winner per vertex.

    Each claim is keyed by ``(instant, chunk)`` as one int64, and each
    vertex's winning key is taken with ``np.minimum.at`` into *dist*
    itself, so only the rivals (for the draws) and the kept claims (for
    the per-thread streams) are sorted.

    Returns ``(per_thread, duplicates)`` where ``per_thread[tid]`` is the
    vertex array thread *tid* appended to its queue, ordered by
    ``(wave, position, chunk, vertex)``.
    """
    waves = wave_partition(chunks, n_threads)
    ordered = [c for wave in waves for c in wave]
    if not ordered or not len(vert):
        return {}, 0
    lo = np.fromiter((c.lo for c in ordered), np.int64, len(ordered))
    hi = np.fromiter((c.hi for c in ordered), np.int64, len(ordered))
    tids = np.fromiter((c.thread for c in ordered), np.int64, len(ordered))
    wave_len = np.fromiter(map(len, waves), np.int64, len(waves))
    wave_of = np.repeat(np.arange(len(waves)), wave_len)
    lockstep = wave_len > 1
    wave_lo = np.cumsum(wave_len) - wave_len
    n_instants = np.where(lockstep, np.maximum.reduceat(hi - lo, wave_lo), 1)
    chunk_t0 = (np.cumsum(n_instants) - n_instants)[wave_of]
    step = lockstep[wave_of].astype(np.int64)

    # Which chunk ran each queue entry, and at which instant; entries no
    # chunk ran (a killed worker's lost work) make no claims.
    ran, chunk = flat_gather(np.arange(n_entries), lo, hi)
    chunk_of = np.full(n_entries, -1, dtype=np.int64)
    instant_of = np.zeros(n_entries, dtype=np.int64)
    chunk_of[ran] = chunk
    instant_of[ran] = chunk_t0[chunk] + (ran - lo[chunk]) * step[chunk]
    c = chunk_of[entry]
    live = c >= 0
    c, v, t = c[live], vert[live], instant_of[entry[live]]
    if not len(v):
        return {}, 0

    # One int64 key per claim, ordered like (instant, chunk).  Every
    # claimed vertex is -1 in dist at level start, so keys shifted below
    # -1 leave each vertex's first claim in dist itself.
    n_chunks = len(ordered)
    key = t * n_chunks + c
    shift = int(key.max()) + 2
    np.minimum.at(dist, v, key - shift)
    first = dist[v] + shift
    dist[v] = level
    # The winner's claims: one per entry of its chunk that reaches v (a
    # sequential chunk claims v once; repeats are dropped below).  Other
    # chunks at the winner's instant are its rivals; a lockstep chunk has
    # one entry per instant, and CSR rows hold no repeated neighbour, so
    # each rival claims v once.
    win = key == first
    kept = np.flatnonzero(win)
    duplicates = 0
    if relaxed:
        # A rival duplicates v only if its check-then-write window
        # overlapped the winner's.
        rivals = np.flatnonzero(~win & (t == first // n_chunks))
        if len(rivals):
            rivals = rivals[np.lexsort((c[rivals], v[rivals], t[rivals]))]
            rivals = rivals[np.random.default_rng(seed).random(len(rivals))
                            < p_race]
            duplicates = len(rivals)
            kept = np.concatenate([kept, rivals])

    owner = tids[c[kept]]
    key, v = key[kept], v[kept]
    order = np.lexsort((v, key, owner))
    owner, key, v = owner[order], key[order], v[order]
    once = np.ones(len(v), dtype=bool)
    once[1:] = (key[1:] != key[:-1]) | (v[1:] != v[:-1])
    owner, v = owner[once], v[once]
    cuts = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist(), len(v)]
    per_thread = {int(owner[a]): v[a:b] for a, b in zip(cuts[:-1], cuts[1:])}
    return per_thread, duplicates


def _build_queue(per_thread, n_threads, variant, block):
    """Assemble the next-level queue from per-thread discovery streams."""
    parts = []
    pad_total = 0
    for tid in range(n_threads):
        if tid not in per_thread:
            continue
        mine = per_thread[tid]
        if variant in ("openmp-block", "tbb-block"):
            pad = (-len(mine)) % block
            if pad:
                mine = np.concatenate([mine, np.full(pad, -1, dtype=np.int64)])
                pad_total += pad
        parts.append(mine)
    if not parts:
        return np.zeros(0, dtype=np.int64), pad_total
    return np.concatenate(parts), pad_total


def bfs_parallel(graph: CSRGraph, source: int | None = None,
                 n_threads: int = 1, **kwargs) -> np.ndarray:
    """Convenience API: run the simulated parallel BFS, return distances."""
    return simulate_bfs(graph, n_threads, source=source, **kwargs).dist
