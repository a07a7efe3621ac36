"""The access profile's blocked sweep: exact at any block size, and its
working memory does not grow with the CSR entry count."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph import csr
from repro.graph.csr import CSRGraph
from repro.graph.generators import tube_mesh
from repro.graph.reorder import apply_ordering
from repro.machine import cache
from repro.machine.cache import access_profile, access_profile_cached
from repro.machine.config import HOST_XEON, KNF
from repro.obs import Observer
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
    monkeypatch.setattr(csr, "BLOCK_ENTRIES", block)
    for config, n_threads in ((KNF, 1), (KNF, 121), (HOST_XEON, 8)):
        assert_profile_is_oracle(GRAPHS[name], config, n_threads, 4, 0.05)


@given(profile_cases())
@settings(max_examples=60, deadline=None)
def test_random_graphs_match_oracle_at_block_seven(case):
    real = csr.BLOCK_ENTRIES
    csr.BLOCK_ENTRIES = 7
    try:
        assert_profile_is_oracle(*case)
    finally:
        csr.BLOCK_ENTRIES = real


def test_row_blocks_are_row_aligned(monkeypatch):
    monkeypatch.setattr(csr, "BLOCK_ENTRIES", 3)
    g = GRAPHS["star-with-gaps"]
    blocks = list(csr._row_blocks(g.indptr))
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
        with Observer(trace=False) as obs:
            observed = access_profile_cached(graph, KNF, 31, 4, 0.05)
        assert observed is quiet
        assert "_split" in vars(observed)
        assert obs.registry.counter("cache.sweeps").value == 1
    finally:
        cache._access_profile_lru.cache_clear()
    fresh = access_profile(graph, KNF, 31, 4, 0.05)
    assert (fresh.p_local, fresh.p_remote, fresh.p_dram) == quiet.hit_split()
    assert np.isclose(fresh.p_local + fresh.p_remote + fresh.p_dram, 1.0)


#: ``(p_local, p_remote, p_dram)`` of the 300-vertex tube mesh behind
#: ``GRAPHS["mesh-random"]``, in natural and in that random order, under
#: (config, threads, state bytes, cache scale); recorded while every
#: profile still held its per-distance tables.
HIT_SPLITS = {
    ("natural", "KNF", 1, 4, 0.05):
        (0.9830326971642082, 0.0, 0.016967302835791908),
    ("natural", "KNF", 121, 4, 0.05):
        (0.7861402536476341, 0.21385974635236607, 0.0),
    ("natural", "KNF", 31, 8, 1.0):
        (0.9999524236657339, 4.7576334266102434e-05, 0.0),
    ("natural", "HOST_XEON", 8, 4, 0.05):
        (0.9997304887006422, 0.0002695112993578293, 0.0),
    ("natural", "KNF", 3, 4, 0.001):
        (0.3055983914283028, 0.30338869212903163, 0.3910129164426655),
    ("random", "KNF", 1, 4, 0.05):
        (0.6706850961780775, 0.0, 0.3293149038219225),
    ("random", "KNF", 121, 4, 0.05):
        (0.2171603135231284, 0.7828396864768716, 0.0),
    ("random", "KNF", 31, 8, 1.0):
        (0.9984669497542458, 0.0015330502457541917, 0.0),
    ("random", "HOST_XEON", 8, 4, 0.05):
        (0.9913872313839687, 0.00861276861603119, 0.0),
    ("random", "KNF", 3, 4, 0.001):
        (0.01984252079415132, 0.42823733704822997, 0.5519201421576188),
}
MESH_ORDERS = {"natural": tube_mesh(300, 30, 6, seed=3),
               "random": GRAPHS["mesh-random"]}


@pytest.mark.parametrize("key", list(HIT_SPLITS),
                         ids=lambda key: "-".join(map(str, key)))
def test_hit_split_values_pinned(key):
    order, config, n_threads, state_bytes, cache_scale = key
    config = {"KNF": KNF, "HOST_XEON": HOST_XEON}[config]
    p = access_profile(MESH_ORDERS[order], config, n_threads, state_bytes,
                       cache_scale)
    assert (p.p_local, p.p_remote, p.p_dram) == HIT_SPLITS[key]


def _arrays_held(obj, skip):
    """Every ndarray reachable from *obj* through containers, partials,
    closures and instance attributes, not entering *skip*."""
    found, seen, todo = [], set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen or o is skip:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
        elif isinstance(o, (tuple, list, set, frozenset)):
            todo.extend(o)
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, functools.partial):
            todo.extend((o.func, *o.args, *o.keywords.values()))
        elif callable(o) and hasattr(o, "__code__"):
            todo.extend(c.cell_contents for c in o.__closure__ or ())
        elif hasattr(o, "__dict__"):
            todo.extend(vars(o).values())
    return found


@pytest.mark.parametrize("order", ["natural", "random"])
def test_memoised_profile_holds_no_distance_table(order):
    """A memoised profile keeps its per-vertex stall and volume, and no
    array as long as the largest ID distance: the hit split rebuilds
    its per-distance tables when read."""
    graph = MESH_ORDERS[order]
    cache._access_profile_lru.cache_clear()
    try:
        profile = access_profile_cached(graph, KNF, 121, 4, 0.05)
        before = _arrays_held(profile, graph)
        split = (profile.p_local, profile.p_remote, profile.p_dram)
        after = _arrays_held(profile, graph)
    finally:
        cache._access_profile_lru.cache_clear()
    for held in (before, after):
        assert sorted(map(id, held)) == sorted(
            map(id, (profile.stall, profile.volume)))
    assert split == access_profile(graph, KNF, 121, 4, 0.05).hit_split()
