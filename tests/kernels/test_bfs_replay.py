"""The layered-BFS semantic replay, pinned against its per-position form.

``_replay_level`` replays a whole level in one vectorised pass.  The
oracle below is the straightforward form it replaced: one round of numpy
calls per concurrency wave and lockstep position.  Both must agree on
every per-thread queue segment, the duplicate count and the ``dist``
labelling, given race draws from the same seed (the relaxed-queue race
draws are part of the simulated outcome).  ``bfs_golden.json`` pins whole
``simulate_bfs`` runs; regenerate it with
``PYTHONPATH=src python tests/kernels/test_bfs_replay.py --regenerate``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, tube_mesh
from repro.kernels.base import gather_neighbors, wave_partition
from repro.kernels.bfs.layered import (BFS_VARIANTS, _replay_level,
                                       simulate_bfs)
from repro.sim.stats import ChunkExec

GOLDEN = Path(__file__).with_name("bfs_golden.json")


def _oracle_replay(indptr, indices, queue, dist, chunks, n_threads, level,
                   relaxed, p_race=1.0, rng=None):
    """Per-position replay: one pass per wave, then per lockstep position."""
    if rng is None:
        rng = np.random.default_rng(0)
    per_thread: dict[int, list] = {}
    duplicates = 0
    for wave in wave_partition(chunks, n_threads):
        if len(wave) == 1:
            # Single chunk: sequential execution, no races possible.
            c = wave[0]
            entries = queue[c.lo:c.hi]
            verts = entries[entries >= 0]
            if verts.size == 0:
                continue
            nbrs, _ = gather_neighbors(indptr, indices, verts)
            found = np.unique(nbrs[dist[nbrs] == -1])
            if len(found):
                dist[found] = level
                per_thread.setdefault(c.thread, []).append(found)
            continue
        lows = np.asarray([c.lo for c in wave], dtype=np.int64)
        sizes = np.asarray([c.hi - c.lo for c in wave], dtype=np.int64)
        tids = [c.thread for c in wave]
        for p in range(int(sizes.max())):
            live = np.nonzero(sizes > p)[0]
            entries = queue[lows[live] + p]
            ok = entries >= 0
            live, verts = live[ok], entries[ok]
            if verts.size == 0:
                continue
            nbrs, seg = gather_neighbors(indptr, indices, verts)
            fresh = dist[nbrs] == -1
            if not fresh.any():
                continue
            cand_c = live[seg[fresh]]      # wave-chunk index per claim
            cand_v = nbrs[fresh]
            order = np.lexsort((cand_c, cand_v))
            cand_c, cand_v = cand_c[order], cand_v[order]
            first = np.ones(len(cand_v), dtype=bool)
            first[1:] = cand_v[1:] != cand_v[:-1]
            if relaxed:
                keep = first.copy()
                extra = ~first
                if extra.any():
                    keep[extra] = rng.random(int(extra.sum())) < p_race
            else:
                keep = first
            uniq = np.unique(cand_v)
            duplicates += int(keep.sum()) - len(uniq)
            dist[uniq] = level
            for ci in np.unique(cand_c):
                mine = cand_v[keep & (cand_c == ci)]
                if len(mine):
                    per_thread.setdefault(tids[ci], []).append(mine)
    return per_thread, duplicates


def _vectorised(graph, queue, dist, chunks, n_threads, level, relaxed,
                p_race, seed):
    """Call the replay the way ``simulate_bfs`` does: claims come from
    one level-start gather over the queue's real entries."""
    slots = np.flatnonzero(queue >= 0)
    nbrs, seg = gather_neighbors(graph.indptr, graph.indices, queue[slots])
    fresh = dist[nbrs] == -1
    return _replay_level(slots[seg[fresh]], nbrs[fresh], len(queue), dist,
                         chunks, n_threads, level, relaxed, p_race, seed)


def assert_replays_agree(graph, queue, dist, chunks, n_threads, relaxed,
                         p_race, level=3, seed=0):
    queue = np.asarray(queue, dtype=np.int64)
    old_dist, new_dist = dist.copy(), dist.copy()
    old_rng = np.random.default_rng(seed)
    old, old_dups = _oracle_replay(graph.indptr, graph.indices, queue,
                                   old_dist, chunks, n_threads, level,
                                   relaxed, p_race, old_rng)
    new, new_dups = _vectorised(graph, queue, new_dist, chunks, n_threads,
                                level, relaxed, p_race, seed)
    assert sorted(new) == sorted(old)
    for tid, parts in old.items():
        assert np.array_equal(new[tid], np.concatenate(parts)), tid
    assert new_dups == old_dups
    assert np.array_equal(new_dist, old_dist)
    return new, new_dups


def chunk(lo, hi, thread, start):
    return ChunkExec(lo, hi, thread, float(start), float(start) + 1.0)


@pytest.fixture(scope="module")
def dense():
    """Many shared neighbours, so concurrent claims collide often."""
    return erdos_renyi(40, 300, seed=4)


P_RACE = [0.0, 0.5, 1.0]


class TestHandBuiltSchedules:
    @pytest.mark.parametrize("relaxed", [True, False])
    def test_single_chunk_waves(self, dense, relaxed):
        """One thread: every wave is one chunk, run as a single instant."""
        dist = np.full(40, -1, dtype=np.int64)
        dist[[0, 1, 2]] = 0
        chunks = [chunk(0, 2, 0, 0), chunk(2, 3, 0, 1)]
        per_thread, dups = assert_replays_agree(
            dense, [0, 1, 2], dist, chunks, 1, relaxed, 1.0)
        assert dups == 0 and list(per_thread) == [0]

    @pytest.mark.parametrize("relaxed", [True, False])
    @pytest.mark.parametrize("p_race", P_RACE)
    def test_lockstep_wave(self, dense, relaxed, p_race):
        dist = np.full(40, -1, dtype=np.int64)
        queue = np.arange(12)
        dist[queue] = 0
        chunks = [chunk(0, 4, 0, 0), chunk(4, 8, 1, 0), chunk(8, 12, 2, 0)]
        for seed in range(5):
            assert_replays_agree(dense, queue, dist, chunks, 3, relaxed,
                                 p_race, seed=seed)

    @pytest.mark.parametrize("p_race", P_RACE)
    def test_one_thread_two_chunks_in_a_wave(self, dense, p_race):
        """wave_partition groups by start time, so a thread that finished
        a short chunk early can own two chunks of one wave."""
        dist = np.full(40, -1, dtype=np.int64)
        queue = np.arange(10)
        dist[queue] = 0
        chunks = [chunk(0, 2, 0, 0), chunk(2, 6, 1, 1), chunk(6, 10, 0, 2),
                  chunk(10, 10, 2, 9)]
        assert [len(w) for w in wave_partition(chunks, 3)] == [3, 1]
        assert_replays_agree(dense, queue, dist, chunks, 3, True, p_race)

    @pytest.mark.parametrize("relaxed", [True, False])
    def test_sentinels_and_duplicate_entries(self, dense, relaxed):
        dist = np.full(40, -1, dtype=np.int64)
        dist[[3, 5, 7]] = 0
        queue = [3, -1, 5, 3, -1, -1, 7, 5, -1]
        chunks = [chunk(0, 3, 0, 0), chunk(3, 6, 1, 0), chunk(6, 9, 2, 0)]
        assert_replays_agree(dense, queue, dist, chunks, 3, relaxed, 0.5)

    def test_all_sentinel_wave(self, dense):
        dist = np.full(40, -1, dtype=np.int64)
        dist[[3, 4]] = 0
        queue = [-1, -1, -1, -1, 3, 4]
        chunks = [chunk(0, 2, 0, 0), chunk(2, 4, 1, 0), chunk(4, 6, 0, 5)]
        assert_replays_agree(dense, queue, dist, chunks, 2, True, 1.0)

    def test_entries_no_chunk_ran(self, dense):
        """A killed worker's stranded range never runs and claims nothing."""
        dist = np.full(40, -1, dtype=np.int64)
        queue = np.arange(9)
        dist[queue] = 0
        chunks = [chunk(0, 3, 0, 0), chunk(6, 9, 1, 0)]
        assert_replays_agree(dense, queue, dist, chunks, 2, True, 1.0)

    def test_no_chunks(self, dense):
        dist = np.full(40, -1, dtype=np.int64)
        dist[0] = 0
        per_thread, dups = assert_replays_agree(dense, [0], dist, [], 4,
                                                True, 1.0)
        assert per_thread == {} and dups == 0

    def test_sequential_chunk_reaches_a_vertex_from_several_entries(self):
        """Entries 0, 2 and 4 of one single-chunk wave all reach vertex 1:
        the chunk claims it once."""
        star = CSRGraph.from_edges(6, [(0, 1), (2, 1), (4, 1), (4, 5)])
        dist = np.array([0, -1, 0, -1, 0, -1])
        per_thread, dups = assert_replays_agree(
            star, [0, 2, 4], dist, [chunk(0, 3, 0, 0)], 1, True, 1.0)
        assert dups == 0
        assert list(per_thread) == [0] and per_thread[0].tolist() == [1, 5]

    @pytest.mark.parametrize("p_race", [0.0, 1.0])
    def test_two_lockstep_chunks_reach_a_vertex_at_one_instant(self, p_race):
        """Threads 0 and 1 reach vertex 2 at instant (0, 0): thread 0's
        chunk comes first in wave order and wins; thread 1 duplicates it
        when the race windows always (1.0) or never (0.0) overlap."""
        vee = CSRGraph.from_edges(3, [(0, 2), (1, 2)])
        dist = np.array([0, 0, -1])
        chunks = [chunk(1, 2, 1, 0), chunk(0, 1, 0, 0)]
        per_thread, dups = assert_replays_agree(vee, [0, 1], dist, chunks, 2,
                                                True, p_race)
        assert dups == int(p_race)
        expected = {0: [2], 1: [2]} if p_race else {0: [2]}
        assert {t: v.tolist() for t, v in per_thread.items()} == expected

    def test_stranded_entries_leave_their_neighbours_unclaimed(self):
        """Entries 1 and 2 sit on a killed worker's range: vertex 4 (only
        theirs) stays -1, vertex 3 (also entry 0's) is claimed."""
        g = CSRGraph.from_edges(5, [(0, 3), (1, 3), (1, 4), (2, 4)])
        dist = np.array([0, 0, 0, -1, -1])
        chunks = [chunk(0, 1, 0, 0)]
        per_thread, dups = assert_replays_agree(g, [0, 1, 2], dist, chunks, 2,
                                                True, 1.0)
        replayed = dist.copy()
        _vectorised(g, np.array([0, 1, 2]), replayed, chunks, 2, 3, True,
                    1.0, 0)
        assert replayed.tolist() == [0, 0, 0, 3, -1]
        assert dups == 0 and per_thread[0].tolist() == [3]

    def test_vertex_reachable_only_through_stranded_entries(self):
        """Every claim sits on a stranded range: nothing is written."""
        g = CSRGraph.from_edges(4, [(0, 2), (1, 3)])
        dist = np.array([0, 0, -1, -1])
        chunks = [chunk(0, 0, 0, 0)]
        per_thread, dups = assert_replays_agree(g, [0, 1], dist, chunks, 2,
                                                True, 1.0)
        replayed = dist.copy()
        assert _vectorised(g, np.array([0, 1]), replayed, chunks, 2, 3, True,
                           1.0, 0) == ({}, 0)
        assert replayed.tolist() == [0, 0, -1, -1]
        assert per_thread == {} and dups == 0

    def test_later_instant_sees_earlier_commit(self):
        """Vertex 2 is reached by chunk 1 at position 0 and by chunk 0 at
        position 1: only the first instant may claim it."""
        path = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        dist = np.array([0, 0, -1, 0])
        queue = [0, 1, 3]
        chunks = [chunk(0, 2, 0, 0), chunk(2, 3, 1, 0)]
        per_thread, dups = assert_replays_agree(path, queue, dist, chunks, 2,
                                                True, 1.0)
        assert dups == 0
        assert list(per_thread) == [1] and per_thread[1].tolist() == [2]


@st.composite
def replay_cases(draw):
    n = draw(st.integers(2, 30))
    m = draw(st.integers(0, 4 * n))
    g = erdos_renyi(n, min(m, n * (n - 1) // 2), seed=draw(st.integers(0, 99)))
    dist = np.where(np.asarray(draw(st.lists(st.booleans(), min_size=n,
                                             max_size=n))), 0, -1)
    queue = draw(st.lists(st.integers(-1, n - 1), max_size=40))
    n_threads = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, len(queue)), max_size=12)))
    bounds = [0, *cuts, len(queue)]
    chunks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if draw(st.integers(0, 9)) == 0:
            continue  # range stranded on a killed worker
        chunks.append(chunk(lo, hi, draw(st.integers(0, n_threads - 1)),
                            draw(st.integers(0, 6))))
    return (g, queue, dist, chunks, n_threads, draw(st.booleans()),
            draw(st.sampled_from(P_RACE)), draw(st.integers(0, 3)))


@given(replay_cases())
@settings(max_examples=300, deadline=None)
def test_replay_matches_oracle(case):
    g, queue, dist, chunks, n_threads, relaxed, p_race, seed = case
    assert_replays_agree(g, queue, dist, chunks, n_threads, relaxed, p_race,
                         seed=seed)


# --- whole runs, pinned ------------------------------------------------------

GOLDEN_THREADS = (1, 7, 31, 121)


def golden_runs() -> dict:
    """``simulate_bfs`` on a small tube mesh for every variant, flavour and
    thread count: cycles, duplicates, sentinels and a digest of ``dist``."""
    mesh = tube_mesh(3000, section=40, clique=8, cliques_per_vertex=1.0,
                     coupling=3, hubs=2, hub_degree=12, seed=3)
    out = {}
    for variant in BFS_VARIANTS:
        for relaxed in (True, False):
            for t in GOLDEN_THREADS:
                run = simulate_bfs(mesh, t, variant=variant, relaxed=relaxed,
                                   block=8, seed=1)
                key = f"{variant}/{'relaxed' if relaxed else 'locked'}/{t}"
                out[key] = {
                    "total_cycles": float(run.total_cycles),
                    "duplicates": run.duplicates,
                    "sentinels": run.sentinels,
                    "dist_sha256": hashlib.sha256(
                        run.dist.astype("<i8").tobytes()).hexdigest(),
                }
    return out


def test_golden_runs():
    assert golden_runs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_bfs_replay.py --regenerate")
    GOLDEN.write_text(json.dumps(golden_runs(), indent=1, sort_keys=True)
                      + "\n")
