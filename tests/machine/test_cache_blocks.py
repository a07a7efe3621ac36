"""The access profile's blocked sweep: exact at any block size, and its
working memory does not grow with the CSR entry count."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph.csr import CSRGraph
from repro.graph.generators import tube_mesh
from repro.graph.reorder import apply_ordering
from repro.machine import cache
from repro.machine.cache import access_profile, access_profile_cached
from repro.machine.config import HOST_XEON, KNF
from repro.obs.metrics import MetricsRegistry, collecting
from tests.machine.test_cache import assert_profile_is_oracle, profile_cases


def _star_with_gaps():
    """Vertex 0 has a row longer than every small block; vertices 1–3
    and 7 have empty rows, so blocks start and end at empty rows."""
    edges = [(0, w) for w in range(4, 12)] + [(5, 6), (8, 9), (9, 10)]
    return CSRGraph.from_edges(14, edges)


GRAPHS = {
    "star-with-gaps": _star_with_gaps(),
    "edgeless": CSRGraph.from_edges(5, []),
    "single-vertex": CSRGraph.from_edges(1, []),
    "path": CSRGraph.from_edges(9, [(i, i + 1) for i in range(8)]),
    "mesh-random": apply_ordering(tube_mesh(300, 30, 6, seed=3), "random",
                                  seed=2),
}


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_small_blocks_match_oracle(monkeypatch, name, block):
    monkeypatch.setattr(cache, "BLOCK_ENTRIES", block)
    for config, n_threads in ((KNF, 1), (KNF, 121), (HOST_XEON, 8)):
        assert_profile_is_oracle(GRAPHS[name], config, n_threads, 4, 0.05)


@given(profile_cases())
@settings(max_examples=60, deadline=None)
def test_random_graphs_match_oracle_at_block_seven(case):
    real = cache.BLOCK_ENTRIES
    cache.BLOCK_ENTRIES = 7
    try:
        assert_profile_is_oracle(*case)
    finally:
        cache.BLOCK_ENTRIES = real


def test_row_blocks_are_row_aligned(monkeypatch):
    monkeypatch.setattr(cache, "BLOCK_ENTRIES", 3)
    g = GRAPHS["star-with-gaps"]
    blocks = list(cache._row_blocks(g.indptr))
    assert blocks[0] == (0, 1)  # the 8-entry row is a block of its own
    assert [r0 for r0, _ in blocks[1:]] == [r1 for _, r1 in blocks[:-1]]
    assert blocks[-1][1] == g.n_vertices
    for r0, r1 in blocks:
        assert r1 == r0 + 1 or g.indptr[r1] - g.indptr[r0] <= 3


def test_sweep_memory_below_one_float_per_entry():
    """The stall/volume sweep holds no CSR-entry-length array: its traced
    peak is below 8 bytes per entry (a whole-CSR gather needs more)."""
    graph = tube_mesh(40000, 200, 12)
    assert graph.n_directed_entries >= 700_000
    tracemalloc.start()
    try:
        profile = access_profile(graph, KNF, 31, 4, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * graph.n_directed_entries
    assert len(profile.stall) == graph.n_vertices


def test_hit_split_computed_only_when_observed():
    graph = GRAPHS["mesh-random"]
    cache._access_profile_lru.cache_clear()
    try:
        quiet = access_profile_cached(graph, KNF, 31, 4, 0.05)
        assert "_split" not in vars(quiet)
        registry = MetricsRegistry()
        with collecting(registry):
            observed = access_profile_cached(graph, KNF, 31, 4, 0.05)
        assert observed is quiet
        assert "_split" in vars(observed)
        assert registry.counter("cache.sweeps").value == 1
    finally:
        cache._access_profile_lru.cache_clear()
    fresh = access_profile(graph, KNF, 31, 4, 0.05)
    assert (fresh.p_local, fresh.p_remote, fresh.p_dram) == quiet.hit_split()
    assert np.isclose(fresh.p_local + fresh.p_remote + fresh.p_dram, 1.0)
