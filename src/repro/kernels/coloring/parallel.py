"""Iterative parallel greedy colouring (the paper's Algorithms 2–4).

Speculative strategy of Gebremedhin–Manne as extended by Bozdağ et al. and
Çatalyürek et al.: colour all ``Visit`` vertices in parallel tolerating
conflicts, detect conflicts in a second parallel pass, and iterate on the
conflict set until it is empty.

The run is simulated on a :class:`~repro.machine.config.MachineConfig`
through a :class:`~repro.runtime.base.RuntimeSpec`; the *semantics* are
replayed over the simulated chunk schedule so that conflicts arise from
actual (simulated-time) concurrency: concurrent chunks advance in
lockstep instants, a vertex sees every colour committed at an earlier
instant, and same-instant adjacent colourings race only when their
check-then-write windows truly overlap (``COLOR_RACE_FRACTION``).  More
threads ⇒ more simultaneous vertices ⇒ more conflicts ⇒ more rounds —
the behaviour the paper verifies stays mild (§V-B: colour counts "never
differ by more than 5%").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import env_float
from repro.graph.csr import CSRGraph
from repro.kernels.base import (AccessSet, KernelRun, gather_neighbors,
                                wave_partition)
from repro.kernels.coloring.sequential import (_first_fit_stamp,
                                               greedy_coloring)
from repro.machine.cache import access_profile_cached
from repro.machine.config import KNF, MachineConfig
from repro.machine.costs import (WorkCosts, coloring_conflict_costs,
                                 coloring_tentative_costs)
from repro.runtime.base import RuntimeSpec

__all__ = ["ColoringRun", "parallel_coloring", "color_race_fraction"]

_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)
_ONE = np.uint64(1)

#: Probability that two *same-instant* adjacent colourings actually race.
#: The lockstep replay marks whole vertex-processing slots as simultaneous,
#: but a real conflict needs the reader's colour gather to precede the
#: writer's commit — a window a fraction of the slot wide (~0.25).  Pairs
#: that don't race behave as if the commit was seen: the later vertex
#: simply first-fits around it (handled inline, no revisit).  A further
#: ~1/5 factor corrects for suite scaling: the graphs are ~1/8 size at
#: unchanged degree, so simultaneously-processed vertices are ~5x more
#: likely to be adjacent than at paper scale (EXPERIMENTS.md).
COLOR_RACE_FRACTION = 0.05


def color_race_fraction() -> float:
    """The effective race fraction: :data:`COLOR_RACE_FRACTION`, or the
    validated ``REPRO_COLOR_RACE_FRACTION`` environment override.

    Read per run (not at import) so a harness can sweep the calibration
    without reloading the module; values outside ``[0, 1]`` are rejected
    (a probability).
    """
    return env_float("REPRO_COLOR_RACE_FRACTION", COLOR_RACE_FRACTION,
                     lo=0.0, hi=1.0)


@dataclass
class ColoringRun(KernelRun):
    """Result of one simulated parallel colouring execution."""

    colors: np.ndarray = None
    n_colors: int = 0
    rounds: int = 0
    conflicts_per_round: list = field(default_factory=list)

    def __init__(self):
        KernelRun.__init__(self)
        self.colors = None
        self.n_colors = 0
        self.rounds = 0
        self.conflicts_per_round = []


def parallel_coloring(
    graph: CSRGraph,
    n_threads: int,
    spec: RuntimeSpec | None = None,
    config: MachineConfig = KNF,
    cache_scale: float = 1.0,
    seed: int = 0,
    max_rounds: int = 60,
    faults=None,
) -> ColoringRun:
    """Simulate the iterative parallel colouring of *graph*.

    Returns a :class:`ColoringRun` with the final colouring and the total
    simulated cycles, from which the harness computes speedups.  The
    colouring is valid unless ``faults`` (a
    :class:`~repro.sim.faults.FaultInjector`) kills threads holding
    statically-dealt work — check with
    :func:`~repro.kernels.coloring.verify.verify_coloring` after a
    faulted run.
    """
    if spec is None:
        from repro.runtime.base import ProgrammingModel
        spec = RuntimeSpec(model=ProgrammingModel.OPENMP)
    n = graph.n_vertices
    run = ColoringRun()
    run.colors = np.zeros(n, dtype=np.int64)
    if n == 0:
        return run

    profile = access_profile_cached(graph, config, n_threads, state_bytes=4,
                             cache_scale=cache_scale)
    tls_per_access = spec.tls_access_cycles
    body_item, body_edge = spec.body_overhead
    deg = graph.degrees.astype(np.float64)
    overhead = body_item + body_edge * deg

    tent_all = coloring_tentative_costs(graph, profile)
    tent_all = WorkCosts(
        tent_all.compute + (deg + 1.0) * tls_per_access + overhead,
        tent_all.stall, tent_all.volume)
    conf_all = coloring_conflict_costs(graph, profile)
    conf_all = WorkCosts(conf_all.compute + overhead,
                         conf_all.stall, conf_all.volume)

    write_time = np.full(n, -1, dtype=np.int64)
    time_counter = 0
    race_fraction = color_race_fraction()

    visit = np.arange(n, dtype=np.int64)
    tls_entries = graph.max_degree + 1

    while visit.size and run.rounds < max_rounds:
        # --- tentative colouring pass (Algorithm 3) ----------------------
        st1 = spec.parallel_for(config, n_threads, tent_all.take(visit),
                                tls_entries=tls_entries,
                                seed=seed + 17 * run.rounds, faults=faults,
                                access=_tentative_access(graph, visit,
                                                         n_threads))
        run.add_loop(st1)
        if n_threads == 1:
            greedy_coloring(graph, order=visit, colors=run.colors)
        else:
            time_counter = _replay_tentative(
                graph, visit, run.colors, st1.chunks, n_threads,
                write_time, time_counter)

        # --- conflict detection pass (Algorithm 4) -----------------------
        st2 = spec.parallel_for(config, n_threads, conf_all.take(visit),
                                seed=seed + 17 * run.rounds + 1, faults=faults,
                                access=_conflict_access(graph, visit))
        run.add_loop(st2)
        rng = np.random.default_rng((seed + 3) * 99_991 + run.rounds)
        conflicts = _detect_conflicts(graph, visit, run.colors, write_time,
                                      rng, race_fraction)
        run.conflicts_per_round.append(len(conflicts))
        visit = conflicts
        run.rounds += 1

    if visit.size:
        raise RuntimeError(f"colouring did not converge in {max_rounds} rounds")
    run.n_colors = int(run.colors.max()) if n else 0
    return run


def _tentative_access(graph: CSRGraph, visit: np.ndarray,
                      n_threads: int) -> AccessSet:
    """Footprint of one tentative pass: item ``i`` writes
    ``colors[visit[i]]`` and reads the colours of its neighbours.

    Concurrent chunks genuinely race on ``colors`` — a vertex may miss a
    neighbour's simultaneous commit.  That is the speculation the
    algorithm is built on (conflicts are detected and repaired), so the
    race is annotated benign and *expected* whenever more than one
    thread runs; the conflict pass carries no annotation, so losing the
    inter-pass join surfaces as a hard error.
    """

    def written(lo, hi):
        return visit[lo:hi]

    def read(lo, hi):
        return gather_neighbors(graph.indptr, graph.indices, visit[lo:hi])[0]

    return (AccessSet("coloring-tentative")
            .writes("colors", written)
            .reads("colors", read)
            .benign_race("colors",
                         "speculative colouring tolerates same-instant "
                         "adjacent commits; the conflict pass repairs them "
                         "(Gebremedhin-Manne, paper Alg. 2-4)",
                         expect=n_threads > 1 and len(visit) > 1))


def _conflict_access(graph: CSRGraph, visit: np.ndarray) -> AccessSet:
    """Footprint of one conflict-detection pass: pure reads of ``colors``
    (own vertex and neighbours).  Deliberately *not* annotated: these
    reads must happen-after every tentative write of the round, which
    only the region join guarantees."""

    def read(lo, hi):
        verts = visit[lo:hi]
        nbrs = gather_neighbors(graph.indptr, graph.indices, verts)[0]
        return np.concatenate([verts, nbrs])

    return AccessSet("coloring-conflict").reads("colors", read)


def _replay_tentative(graph, visit, colors, chunks, n_threads,
                      write_time, time0):
    """Time-faithful semantic replay of one tentative-colouring pass.

    Chunks are grouped into concurrency waves; within a wave the threads
    advance in lockstep: at step ``p`` the p-th vertex of every chunk is
    coloured simultaneously (vectorised).  A vertex sees every colour
    committed at an earlier lockstep instant — earlier waves/rounds and
    earlier positions of any concurrent chunk (caches are coherent, writes
    propagate immediately) — but not the vertices being coloured at the
    *same* instant.  Conflicts therefore arise exactly between
    simultaneously-processed adjacent vertices, which is the race the
    paper's speculative algorithm tolerates and repairs.

    The instants are laid out once per pass and every neighbour list is
    gathered once; each instant then costs one gather of colour bits and
    one segmented OR.  ``write_time`` records each vertex's instant for
    the conflict pass and is never read here: within a pass every earlier
    write is visible and no same-instant write is.
    Degree-0 vertices read nothing, so they take colour 1 outside the
    instant loop.  Returns the last instant of the pass.
    """
    indptr, indices = graph.indptr, graph.indices
    ordered = [c for wave in wave_partition(chunks, n_threads) for c in wave]
    if not ordered:
        return time0
    lo = np.fromiter((c.lo for c in ordered), np.int64, len(ordered))
    size = np.fromiter((c.hi - c.lo for c in ordered), np.int64,
                       len(ordered))
    # Instant of position p of chunk j: the instants of every earlier wave,
    # plus p + 1.  A stable sort by instant keeps wave order within one.
    n_waves = -(-len(ordered) // n_threads)
    steps = np.zeros(n_waves * n_threads, dtype=np.int64)
    steps[:len(ordered)] = size
    steps = steps.reshape(n_waves, n_threads).max(axis=1)
    first = time0 + np.cumsum(steps) - steps + 1
    last = int(time0 + steps.sum())
    item_start = np.cumsum(size) - size
    p = np.arange(int(size.sum()), dtype=np.int64) - np.repeat(item_start,
                                                               size)
    inst = np.repeat(first[np.arange(len(ordered)) // n_threads], size) + p
    order = np.argsort(inst, kind="stable")
    inst = inst[order]
    verts = visit[(np.repeat(lo, size) + p)[order]]
    # repro: ignore[fp-undeclared-write] write_time is replay-side
    # bookkeeping (which lockstep instant committed each colour), not
    # simulated shared state; it never exists on the modelled machine,
    # so the checker has nothing to audit.
    write_time[verts] = inst

    deg = indptr[verts + 1] - indptr[verts]
    isolated = deg == 0
    colors[verts[isolated]] = 1
    if isolated.any():
        keep = ~isolated
        verts, inst, deg = verts[keep], inst[keep], deg[keep]
    if not len(verts):
        return last
    # One lean gather of every neighbour list, in instant order.
    off = np.cumsum(deg) - deg
    nbrs = indices[np.repeat(indptr[verts] - off, deg)
                   + np.arange(int(deg.sum()), dtype=np.int64)]
    cuts = np.flatnonzero(np.diff(inst)) + 1
    v_lo = np.concatenate(([0], cuts))
    v_hi = np.append(cuts, len(verts))
    e_lo, e_hi = off[v_lo], np.append(off[cuts], len(nbrs))
    seg = off - np.repeat(e_lo, v_hi - v_lo)
    wide = np.logical_or.reduceat(deg >= 64, v_lo)
    # Each vertex's colour bit, kept in step with colors through the pass:
    # bit c - 1 for colour c <= 64, none for colour 0 or above 64.
    color_bits = np.zeros(len(colors), dtype=np.uint64)
    low_color = (colors > 0) & (colors <= 64)
    color_bits[low_color] = _BITS[colors[low_color] - 1]
    for a, b, ea, eb, w in zip(v_lo.tolist(), v_hi.tolist(), e_lo.tolist(),
                               e_hi.tolist(), wide.tolist()):
        mask = np.bitwise_or.reduceat(color_bits.take(nbrs[ea:eb]), seg[a:b])
        low = ~mask & (mask + _ONE)
        # frexp(2**k) has exponent k + 1: the lowest free colour, or 0
        # when colours 1..64 are all taken.
        mex = np.frexp(low.astype(np.float64))[1]
        if w:
            # Only a vertex of degree >= 64 can see all 64 low colours:
            # exact first fit over its visible neighbour colours.
            nc = colors.take(nbrs[ea:eb])
            ends = np.append(seg[a + 1:b], eb - ea)
            for i in np.flatnonzero(mex == 0).tolist():
                vn = nc[seg[a + i]:ends[i]]
                mex[i] = _first_fit_stamp(vn[vn > 0])
        colors[verts[a:b]] = mex
        color_bits[verts[a:b]] = low
    return last


def _detect_conflicts(graph, visit, colors, write_time=None, rng=None,
                      race_fraction=1.0) -> np.ndarray:
    """Conflicting vertices of *visit* (the paper revisits ``v`` when
    ``color[v] == color[w]`` and ``v < w``).

    With ``race_fraction < 1``, each clashing pair is a *real* race with
    that probability; otherwise the later-committing endpoint behaved as
    if it saw the write, so it is re-first-fitted in place instead of
    being queued for another round (see ``COLOR_RACE_FRACTION``).
    """
    n = graph.n_vertices
    if len(visit) == n and np.array_equal(visit, np.arange(n)):
        # Every vertex (round 0): the CSR arrays are the gather, and only
        # the few same-colour entries need their owning vertex.  Colours
        # are at most n, so they compare exactly as int32.
        c32 = colors.astype(np.int32)
        same = np.flatnonzero(np.repeat(c32, graph.degrees)
                              == c32.take(graph.indices))
        v = np.searchsorted(graph.indptr, same, side="right") - 1
        nbrs = graph.indices[same].astype(np.int64)
    else:
        nbrs, seg = gather_neighbors(graph.indptr, graph.indices, visit)
        v = visit[seg]
        same = colors[v] == colors[nbrs]
        v, nbrs = v[same], nbrs[same]
    clash = v < nbrs
    cv, cw = v[clash], nbrs[clash]
    if len(cv) and race_fraction < 1.0 and rng is not None:
        real = rng.random(len(cv)) < race_fraction
        avoided_v, avoided_w = cv[~real], cw[~real]
        cv = cv[real]
        if len(avoided_v):
            _resolve_avoided(graph, colors, write_time, avoided_v, avoided_w)
            # Re-fitting can itself introduce a (rare) new clash against a
            # pending real conflict; those surface in the next round's
            # detection pass, exactly like a late conflict on hardware.
    return np.unique(cv)


def _resolve_avoided(graph, colors, write_time, av, aw):
    """Re-first-fit the later endpoint of each non-racing clash (it 'saw'
    the earlier commit), sequentially and with full visibility."""
    later = np.where(write_time[aw] > write_time[av], aw,
                     np.where(write_time[aw] < write_time[av], av,
                              np.maximum(av, aw)))
    order = np.unique(later)
    greedy_coloring(graph, order=order, colors=colors)
