"""The paper's analytic layered-BFS model (§III-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import chain, tube_mesh
from repro.kernels.bfs.sequential import frontier_profile
from repro.models.bfs_model import (bfs_model_curve, bfs_model_level_cost,
                                    bfs_model_speedup)


class TestLevelCost:
    def test_small_level_costs_itself(self):
        """x_l < b: a single thread processes the partial block: c = x_l."""
        assert bfs_model_level_cost([5], n_threads=8, block=32) == [5.0]

    def test_large_level_rounds_of_blocks(self):
        """x_l >= b: ceil(x/(t*b)) rounds of b time units."""
        c = bfs_model_level_cost([1000], n_threads=4, block=32)
        assert c[0] == np.ceil(1000 / (4 * 32)) * 32  # 8 rounds * 32

    def test_exact_fit(self):
        assert bfs_model_level_cost([128], n_threads=4, block=32) == [32.0]

    def test_boundary_x_equals_b(self):
        c = bfs_model_level_cost([32], n_threads=4, block=32)
        assert c[0] == 32.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bfs_model_level_cost([1], 0, 32)
        with pytest.raises(ValueError):
            bfs_model_level_cost([1], 1, 0)
        with pytest.raises(ValueError):
            bfs_model_level_cost([-1], 1, 1)


class TestSpeedup:
    def test_single_thread_never_above_one(self):
        """At t=1 the model only loses to padding: speedup <= 1."""
        for widths in ([10, 20, 33], [100], [1, 1, 1]):
            assert bfs_model_speedup(widths, 1, 32) <= 1.0 + 1e-12

    def test_chain_has_no_parallelism(self):
        widths = np.ones(100)
        s1 = bfs_model_speedup(widths, 1, 32)
        s128 = bfs_model_speedup(widths, 128, 32)
        assert s1 == s128 == 1.0

    def test_wide_levels_scale(self):
        widths = np.full(10, 32 * 64)
        assert bfs_model_speedup(widths, 64, 32) == pytest.approx(64.0)

    def test_parallelism_capped_by_blocks_per_level(self):
        """x_l/b blocks bound the useful threads (the Fig 4 slope break)."""
        widths = np.full(20, 4 * 32)  # four blocks per level
        assert bfs_model_speedup(widths, 4, 32) == \
            bfs_model_speedup(widths, 100, 32) == pytest.approx(4.0)

    def test_monotone_in_threads(self):
        widths = [50, 300, 700, 300, 50]
        curve = bfs_model_curve(widths, range(1, 40), block=16)
        assert np.all(np.diff(curve) >= -1e-12)

    def test_speedup_never_exceeds_threads(self):
        widths = [100, 200, 400]
        for t in (1, 2, 7, 33):
            assert bfs_model_speedup(widths, t, 8) <= t + 1e-12

    def test_zero_widths(self):
        assert bfs_model_speedup([], 4, 32) == 0.0

    def test_deep_graph_lower_model_ceiling(self):
        """pwtk vs inline_1 mechanism: deeper tube -> lower model peak."""
        deep = tube_mesh(2000, 20, 6, 1.0, 3, seed=1)
        shallow = tube_mesh(2000, 200, 6, 1.0, 3, seed=1)
        s_deep = bfs_model_speedup(frontier_profile(deep, 1000), 31, 8)
        s_shallow = bfs_model_speedup(frontier_profile(shallow, 1000), 31, 8)
        assert s_shallow > 1.5 * s_deep


@given(st.lists(st.integers(0, 5000), min_size=1, max_size=60),
       st.integers(1, 128), st.integers(1, 64))
@settings(max_examples=80, deadline=None)
def test_property_model_bounds(widths, t, b):
    s = bfs_model_speedup(widths, t, b)
    assert 0 <= s <= t + 1e-9
    # cost per level is at least the ideal parallel cost
    costs = bfs_model_level_cost(widths, t, b)
    ideal = np.asarray(widths, dtype=float) / t
    assert np.all(costs >= ideal - 1e-9)
