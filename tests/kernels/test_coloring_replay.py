"""The colouring kernel's fast paths, pinned against their plain forms.

``_replay_tentative`` lays a pass's lockstep instants out once and runs
each instant as one gather and one segmented OR.  The oracle below is
the per-position form it replaced: one neighbour gather, visibility
check and first fit per concurrency wave and lockstep position.  Both
must agree on ``colors``, ``write_time`` and the last instant, from any
pre-existing colouring and any chunk schedule.  ``greedy_coloring`` is
checked against the literal Algorithm 1, also when it carries on from
existing colours past the 63 its bitset holds.

``coloring_golden.json`` pins whole ``parallel_coloring`` runs: every
``COLORING_VARIANTS`` entry at 1/7/31/121 threads on a tube mesh in
natural and random order, and on a graph that needs more than 64
colours and has isolated vertices.  Regenerate it with
``PYTHONPATH=src python tests/kernels/test_coloring_replay.py --regenerate``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig1_coloring import COLORING_VARIANTS
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete, tube_mesh
from repro.graph.reorder import apply_ordering
from repro.kernels.base import gather_neighbors, wave_partition
from repro.kernels.coloring.parallel import (_detect_conflicts,
                                             _replay_tentative,
                                             _resolve_avoided,
                                             parallel_coloring)
from repro.kernels.coloring.sequential import (greedy_coloring,
                                               greedy_coloring_stamp)
from repro.sim.stats import ChunkExec

GOLDEN = Path(__file__).with_name("coloring_golden.json")

_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _oracle_wave_step(indptr, indices, colors, verts, tick, write_time):
    """Colour one lockstep instant: a vertex sees the colours committed
    before *tick*, first-fits among the 64 lowest colours with a bitset
    and falls back to an exact first fit past them."""
    nbrs, seg = gather_neighbors(indptr, indices, verts)
    nc = colors[nbrs]
    visible = (nc > 0) & (write_time[nbrs] < tick)
    small = visible & (nc <= 64)
    masks = np.zeros(len(verts), dtype=np.uint64)
    if len(nbrs):
        contrib = np.where(small, _BITS[np.where(small, nc - 1, 0)],
                           np.uint64(0))
        np.bitwise_or.at(masks, seg, contrib)
    low = (~masks) & (masks + np.uint64(1))
    overflow = low == 0
    mex = np.zeros(len(verts), dtype=np.int64)
    ok = ~overflow
    mex[ok] = np.log2(low[ok].astype(np.float64)).astype(np.int64) + 1
    if overflow.any() or (visible & ~small).any():
        need = np.unique(np.concatenate([np.nonzero(overflow)[0],
                                         np.unique(seg[visible & ~small])]))
        for i in need:
            vn = nc[(seg == i) & visible]
            seen = np.zeros(len(vn) + 2, dtype=bool)
            seen[vn[vn <= len(vn) + 1] - 1] = True
            mex[i] = int(np.argmin(seen)) + 1
    colors[verts] = mex
    write_time[verts] = tick


def _oracle_replay(graph, visit, colors, chunks, n_threads, write_time,
                   time0):
    """Per-position replay: one step per wave and lockstep position."""
    tick = time0
    for wave in wave_partition(chunks, n_threads):
        lows = np.asarray([c.lo for c in wave], dtype=np.int64)
        sizes = np.asarray([c.hi - c.lo for c in wave], dtype=np.int64)
        for p in range(int(sizes.max())):
            tick += 1
            verts = visit[lows[sizes > p] + p]
            _oracle_wave_step(graph.indptr, graph.indices, colors, verts,
                              tick, write_time)
    return tick


def chunk(lo, hi, thread, start):
    return ChunkExec(lo, hi, thread, float(start), float(start) + 1.0)


@st.composite
def graphs(draw):
    """Sparse graphs, or a near-clique past 64 colours; some vertices
    isolated either way."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        m = draw(st.integers(0, 3 * n))
    else:
        n = draw(st.integers(66, 90))
        m = n * n
    isolated = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.4]))
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[~isolated[edges].any(axis=1)]
    return CSRGraph.from_edges(n, edges), rng


@st.composite
def replay_cases(draw):
    g, rng = draw(graphs())
    n = g.n_vertices
    visit = rng.permutation(n)[:draw(st.integers(0, n))]
    colors = rng.integers(0, draw(st.sampled_from([1, 8, 70, 95])), n)
    if draw(st.booleans()):
        # Distinct colours: a high-degree vertex can see all of 1..64.
        colors = rng.permutation(n) + 1
        colors[rng.random(n) < 0.2] = 0
    time0 = draw(st.integers(0, 50))
    write_time = rng.integers(-1, time0 + 1, n)
    n_threads = draw(st.integers(1, 8))
    cuts = sorted(draw(st.lists(st.integers(0, len(visit)), max_size=12)))
    bounds = [0, *cuts, len(visit)]
    chunks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if draw(st.integers(0, 9)) == 0:
            continue  # range stranded on a killed worker
        chunks.append(chunk(lo, hi, draw(st.integers(0, n_threads - 1)),
                            draw(st.integers(0, 6))))
    return g, visit, colors, chunks, n_threads, write_time, time0


def assert_replays_agree(g, visit, colors, chunks, n_threads, write_time,
                         time0):
    visit = np.asarray(visit, dtype=np.int64)
    old_c = np.array(colors, dtype=np.int64)
    old_w = np.array(write_time, dtype=np.int64)
    new_c, new_w = old_c.copy(), old_w.copy()
    old_t = _oracle_replay(g, visit, old_c, chunks, n_threads, old_w, time0)
    new_t = _replay_tentative(g, visit, new_c, chunks, n_threads, new_w,
                              time0)
    assert new_c.tobytes() == old_c.tobytes()
    assert new_w.tobytes() == old_w.tobytes()
    assert new_t == old_t and isinstance(new_t, int)
    return new_c


@given(replay_cases())
@settings(max_examples=300, deadline=None)
def test_replay_matches_oracle(case):
    assert_replays_agree(*case)


class TestHandBuiltSchedules:
    def test_same_instant_neighbours_miss_each_other(self):
        path = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        colors = np.zeros(3, dtype=np.int64)
        write_time = np.full(3, -1, dtype=np.int64)
        chunks = [chunk(0, 1, 0, 0), chunk(1, 2, 1, 0), chunk(2, 3, 2, 0)]
        assert _replay_tentative(path, np.arange(3), colors, chunks, 3,
                                 write_time, 0) == 1
        assert colors.tolist() == [1, 1, 1]
        assert write_time.tolist() == [1, 1, 1]

    def test_all_64_low_colours_taken(self):
        """A clique vertex that sees colours 1..70 takes 71, exactly."""
        g = complete(72)
        colors = np.arange(1, 73, dtype=np.int64)
        colors[[70, 71]] = 0
        chunks = [chunk(0, 1, 0, 0), chunk(1, 2, 1, 0)]
        colors = assert_replays_agree(g, [70, 71], colors, chunks, 2,
                                      np.zeros(72, dtype=np.int64), 5)
        assert colors[70:].tolist() == [71, 71]

    def test_isolated_vertices_only(self):
        g = CSRGraph.from_edges(4, [])
        assert_replays_agree(g, [3, 0, 2], [0, 5, 0, 9],
                             [chunk(0, 2, 0, 0), chunk(2, 3, 1, 0)], 2,
                             [-1] * 4, 7)

    def test_no_chunks(self):
        g = complete(3)
        assert_replays_agree(g, [0, 1], [0, 0, 0], [], 4, [-1] * 3, 2)


def _gather_conflicts(graph, visit, colors, write_time, rng, race_fraction):
    """Conflict detection through a gather of every visited vertex."""
    nbrs, seg = gather_neighbors(graph.indptr, graph.indices, visit)
    if not len(nbrs):
        return np.zeros(0, dtype=np.int64)
    v = visit[seg]
    clash = (colors[v] == colors[nbrs]) & (v < nbrs)
    cv, cw = v[clash], nbrs[clash]
    if len(cv):
        real = rng.random(len(cv)) < race_fraction
        if (~real).any():
            _resolve_avoided(graph, colors, write_time, cv[~real], cw[~real])
        cv = cv[real]
    return np.unique(cv)


@given(replay_cases())
@settings(max_examples=100, deadline=None)
def test_round0_conflicts_match_general_gather(case):
    """Detecting over every vertex reads the CSR arrays directly; it must
    find the pairs, draw the RNG and re-fit exactly as a gather does."""
    g, _, colors, _, _, write_time, _ = case
    n = g.n_vertices
    fast_c, slow_c = colors.copy(), colors.copy()
    fast_rng, slow_rng = (np.random.default_rng(n) for _ in range(2))
    fast = _detect_conflicts(g, np.arange(n), fast_c, write_time, fast_rng,
                             0.3)
    slow = _gather_conflicts(g, np.arange(n), slow_c, write_time, slow_rng,
                             0.3)
    assert fast.tobytes() == slow.tobytes()
    assert fast_c.tobytes() == slow_c.tobytes()
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


# --- the sequential first fit ------------------------------------------------

@given(graphs(), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_greedy_matches_stamp(case, seed):
    g, _ = case
    order = np.random.default_rng(seed).permutation(g.n_vertices)
    assert (greedy_coloring(g, order=order)[1].tobytes()
            == greedy_coloring_stamp(g, order=order)[1].tobytes())


@pytest.mark.parametrize("split", [0, 40, 63, 64, 70])
def test_greedy_carries_on_past_63_colours(split):
    """Colouring a clique in two calls, the second one starting from the
    first one's colours, crosses from the bitset to the stamp path."""
    g = complete(80)
    order = np.random.default_rng(split).permutation(80)
    colors = greedy_coloring(g, order=order[:split])[1]
    n_colors, colors = greedy_coloring(g, order=order[split:], colors=colors)
    assert n_colors == 80
    assert colors.tobytes() == greedy_coloring_stamp(g, order=order)[1].tobytes()


# --- whole runs, pinned ------------------------------------------------------

GOLDEN_THREADS = (1, 7, 31, 121)


def many_colors_graph() -> CSRGraph:
    """A 72-clique spread over the ID range, a sparse random background
    and isolated vertices: first fit needs more than 64 colours."""
    n = 600
    rng = np.random.default_rng(11)
    clique = np.arange(0, 7 * 72, 7)
    edges = [(int(u), int(v)) for i, u in enumerate(clique)
             for v in clique[i + 1:]]
    isolated = {5, 123, 304, *range(590, 600)}
    for _ in range(1500):
        u, v = (int(x) for x in rng.integers(0, 590, size=2))
        if u not in isolated and v not in isolated:
            edges.append((u, v))
    return CSRGraph.from_edges(n, edges, name="many-colors")


def golden_graphs() -> dict:
    mesh = tube_mesh(3000, section=40, clique=8, cliques_per_vertex=1.0,
                     coupling=3, hubs=2, hub_degree=12, seed=3)
    return {"natural": mesh, "random": apply_ordering(mesh, "random", seed=0),
            "many-colors": many_colors_graph()}


def golden_runs() -> dict:
    """``parallel_coloring`` for every graph, variant and thread count:
    cycles, rounds, conflicts per round and a digest of the colours."""
    out = {}
    for gname, graph in golden_graphs().items():
        for variant, spec in COLORING_VARIANTS.items():
            for t in GOLDEN_THREADS:
                run = parallel_coloring(graph, t, spec, cache_scale=0.05,
                                        seed=1)
                out[f"{gname}/{variant}/{t}"] = {
                    "total_cycles": float(run.total_cycles),
                    "rounds": run.rounds,
                    "conflicts_per_round": list(run.conflicts_per_round),
                    "colors_sha256": hashlib.sha256(
                        run.colors.astype("<i8").tobytes()).hexdigest(),
                }
    return out


def test_golden_runs():
    assert golden_runs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_coloring_replay.py --regenerate")
    GOLDEN.write_text(json.dumps(golden_runs(), indent=1, sort_keys=True)
                      + "\n")
