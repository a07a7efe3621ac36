"""Tests for the cache/locality model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import THREADS_MIC
from repro.graph.csr import CSRGraph
from repro.graph.generators import tube_mesh
from repro.graph.reorder import apply_ordering
from repro.machine import cache
from repro.machine.cache import (INDEX_BYTES, access_profile,
                                 access_profile_cached)
from repro.machine.config import HOST_XEON, KNF


@pytest.fixture(scope="module")
def banded():
    return tube_mesh(2000, 100, 12, 1.0, 4, seed=2)


@pytest.fixture(scope="module")
def shuffled(banded):
    return apply_ordering(banded, "random", seed=1)


class TestAccessProfile:
    def test_shapes(self, banded):
        p = access_profile(banded, KNF, 4)
        assert len(p.stall) == banded.n_vertices
        assert len(p.volume) == banded.n_vertices
        assert np.all(p.stall >= 0)
        assert np.all(p.volume >= 0)

    def test_probabilities_sum_to_one(self, banded):
        p = access_profile(banded, KNF, 8)
        assert p.p_local + p.p_remote + p.p_dram == pytest.approx(1.0)

    def test_natural_order_mostly_local(self, banded):
        p = access_profile(banded, KNF, 1, cache_scale=1.0)
        assert p.p_local > 0.8

    def test_shuffle_destroys_hits(self, banded, shuffled):
        # cache scaled to the test graph's size, as the harness does
        pn = access_profile(banded, KNF, 1, cache_scale=0.02)
        ps = access_profile(shuffled, KNF, 1, cache_scale=0.02)
        assert ps.p_local < 0.3 * pn.p_local + 0.1
        assert ps.stall.mean() > 2 * pn.stall.mean()

    def test_smt_residency_pressure(self, banded):
        """More threads per core -> smaller cache share -> fewer hits."""
        p1 = access_profile(banded, KNF, KNF.n_cores, cache_scale=0.05)
        p4 = access_profile(banded, KNF, 4 * KNF.n_cores, cache_scale=0.05)
        assert p4.p_local < p1.p_local

    def test_aggregate_cache_residency(self, shuffled):
        """More cores used -> misses served by peer caches, not DRAM."""
        p1 = access_profile(shuffled, KNF, 1, cache_scale=0.1)
        p31 = access_profile(shuffled, KNF, 31, cache_scale=0.1)
        assert p1.p_dram > 0.5
        assert p31.p_remote > 0.5
        assert p31.p_dram < 0.1
        # remote hits are cheaper, so the many-core stall is lower
        assert p31.stall.mean() < p1.stall.mean()

    def test_cache_scale_shrinks_hits(self, banded):
        big = access_profile(banded, KNF, 1, cache_scale=1.0)
        small = access_profile(banded, KNF, 1, cache_scale=0.01)
        assert small.p_local < big.p_local

    def test_state_bytes_increase_footprint(self, banded):
        p4 = access_profile(banded, KNF, 1, state_bytes=4, cache_scale=0.05)
        p8 = access_profile(banded, KNF, 1, state_bytes=8, cache_scale=0.05)
        assert p8.p_local <= p4.p_local + 1e-9

    def test_volume_includes_adjacency_stream(self, banded):
        p = access_profile(banded, KNF, 31)
        stream = banded.degrees * 4 / KNF.line_bytes
        assert np.all(p.volume >= stream - 1e-9)

    def test_empty_graph(self):
        from repro.graph.csr import CSRGraph
        p = access_profile(CSRGraph.from_edges(0, []), KNF, 1)
        assert len(p.stall) == 0

    def test_invalid_args(self, banded):
        with pytest.raises(ValueError):
            access_profile(banded, KNF, 0)
        with pytest.raises(ValueError):
            access_profile(banded, KNF, 1, state_bytes=0)
        with pytest.raises(ValueError):
            access_profile(banded, KNF, 1, cache_scale=0.0)

    def test_cached_wrapper_identity(self, banded):
        a = access_profile_cached(banded, KNF, 4, 4, 1.0)
        b = access_profile_cached(banded, KNF, 4, 4, 1.0)
        assert a is b


def _oracle_profile(graph, config, n_threads, state_bytes, cache_scale):
    """The model evaluated entry by entry over the whole CSR layout:
    ``(stall, volume, p_local, p_remote, p_dram)``."""
    n = graph.n_vertices
    line = config.line_bytes
    degrees = graph.degrees.astype(np.float64)
    avg_deg = max(1.0, float(degrees.mean()))
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    dist = np.abs(src - graph.indices.astype(np.int64)).astype(np.float64)
    footprint = state_bytes / line + avg_deg * INDEX_BYTES / line + 0.5
    reuse = footprint * dist
    threads_per_core = -(-n_threads // config.n_cores)
    cores_used = min(n_threads, config.n_cores)
    per_core_lines = config.cache_lines_per_core * cache_scale
    share = max(1.0, per_core_lines / threads_per_core)
    p_local = np.exp(-((reuse / share) ** 2))
    state_lines = n * state_bytes / line
    other_cache = per_core_lines * max(0, cores_used - 1)
    residency = min(1.0, other_cache / max(1.0, state_lines))
    p_remote = (1.0 - p_local) * residency
    p_dram = (1.0 - p_local) * (1.0 - residency)
    per_entry_stall = (p_local * config.local_hit_cycles
                       + p_remote * config.remote_hit_cycles
                       + p_dram * config.dram_cycles)

    def segment_sum(values):
        cs = np.concatenate([[0.0], np.cumsum(values)])
        return cs[graph.indptr[1:]] - cs[graph.indptr[:-1]]

    stall = segment_sum(per_entry_stall)
    volume = segment_sum(p_dram)
    stream_lines = degrees * INDEX_BYTES / line
    volume += stream_lines
    stall += config.stream_visibility * config.dram_cycles * stream_lines
    total = max(1, len(src))
    return (stall, volume, float(p_local.sum() / total),
            float(p_remote.sum() / total), float(p_dram.sum() / total))


def assert_profile_is_oracle(graph, config, n_threads, state_bytes,
                             cache_scale):
    stall, volume, *fractions = _oracle_profile(graph, config, n_threads,
                                                state_bytes, cache_scale)
    p = access_profile(graph, config, n_threads, state_bytes, cache_scale)
    assert p.stall.tobytes() == stall.tobytes()
    assert p.volume.tobytes() == volume.tobytes()
    assert [p.p_local, p.p_remote, p.p_dram] == fractions


@st.composite
def profile_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 300))
    edges = rng.integers(0, n, size=(draw(st.integers(0, 6 * n)), 2))
    # Banded or scattered neighbours, and some isolated vertices.
    if draw(st.booleans()):
        edges[:, 1] = np.clip(edges[:, 0] + rng.integers(-6, 7, len(edges)),
                              0, n - 1)
    isolated = rng.random(n) < 0.1
    edges = edges[~isolated[edges].any(axis=1)]
    return (CSRGraph.from_edges(n, edges),
            draw(st.sampled_from([KNF, HOST_XEON])),
            draw(st.integers(1, 130)), draw(st.sampled_from([1, 4, 8])),
            draw(st.sampled_from([0.002, 0.05, 0.3, 1.0])))


@given(profile_cases())
@settings(max_examples=200, deadline=None)
def test_profile_matches_per_entry_oracle(case):
    assert_profile_is_oracle(*case)


@pytest.mark.parametrize("ordering", ["natural", "random"])
@pytest.mark.parametrize("config", [KNF, HOST_XEON], ids=lambda c: c.name)
def test_profile_matches_oracle_on_meshes(banded, ordering, config):
    graph = apply_ordering(banded, ordering, seed=1)
    for n_threads in (1, 7, 31, 61, 121):
        assert_profile_is_oracle(graph, config, n_threads, 4, 0.05)


def test_memo_keyed_on_threads_per_core_and_cores_used(banded, monkeypatch):
    """The 13-point MIC sweep needs one profile per (threads per core,
    cores used) pair: 7, each equal to the uncached profile."""
    computed = []
    real = cache.access_profile

    def counting(graph, config, n_threads, *args):
        computed.append(n_threads)
        return real(graph, config, n_threads, *args)

    monkeypatch.setattr(cache, "access_profile", counting)
    cache._access_profile_lru.cache_clear()
    try:
        for t in THREADS_MIC:
            p = access_profile_cached(banded, KNF, t, 4, 0.05)
            q = real(banded, KNF, t, 4, 0.05)
            assert p.stall.tobytes() == q.stall.tobytes()
            assert p.volume.tobytes() == q.volume.tobytes()
            assert (p.p_local, p.p_remote, p.p_dram) == (
                q.p_local, q.p_remote, q.p_dram)
    finally:
        cache._access_profile_lru.cache_clear()
    assert len(THREADS_MIC) == 13
    assert computed == [1, 11, 21, 31, 32, 63, 94]
