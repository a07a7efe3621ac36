"""Tests for kernel cost assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import tube_mesh
from repro.machine.cache import access_profile
from repro.machine.config import KNF
from repro.machine.costs import (WorkCosts, bfs_scan_costs,
                                 coloring_conflict_costs,
                                 coloring_tentative_costs, irregular_costs)


@pytest.fixture(scope="module")
def mesh_and_profile():
    g = tube_mesh(800, 40, 10, 1.0, 3, seed=4)
    return g, access_profile(g, KNF, 4)


class TestWorkCosts:
    def test_range_cost_matches_manual_sum(self):
        rng = np.random.default_rng(0)
        w = WorkCosts(rng.random(50), rng.random(50), rng.random(50))
        c, s, v = w.range_cost(7, 23)
        assert c == pytest.approx(w.compute[7:23].sum())
        assert s == pytest.approx(w.stall[7:23].sum())
        assert v == pytest.approx(w.volume[7:23].sum())

    def test_empty_range(self):
        w = WorkCosts(np.ones(5), np.ones(5), np.ones(5))
        assert w.range_cost(3, 3) == (0.0, 0.0, 0.0)

    def test_total(self):
        w = WorkCosts(np.ones(5), 2 * np.ones(5), 3 * np.ones(5))
        assert w.total == (5.0, 10.0, 15.0)

    @pytest.mark.parametrize("lo,hi", [(0, 0), (17, 17), (50, 50), (0, 1),
                                       (49, 50), (23, 24), (0, 50)])
    def test_range_cost_is_float64_prefix_difference(self, lo, hi):
        """Empty, single-item and full ranges: Python floats holding the
        same doubles as the difference of float64 prefix sums."""
        rng = np.random.default_rng(3)
        arrays = rng.gamma(2.0, 150.0, (3, 50))
        w = WorkCosts(*arrays)
        got = w.range_cost(lo, hi)
        for value, arr in zip(got, arrays):
            prefix = np.concatenate([[0.0], np.cumsum(arr)])
            assert type(value) is float
            assert value.hex() == float(prefix[hi] - prefix[lo]).hex()
        assert all(type(v) is float for v in w.total)

    def test_out_of_bounds(self):
        w = WorkCosts(np.ones(5), np.ones(5), np.ones(5))
        with pytest.raises(IndexError):
            w.range_cost(0, 6)
        with pytest.raises(IndexError):
            w.range_cost(-1, 3)

    def test_take_subset(self):
        w = WorkCosts(np.arange(10.0), np.zeros(10), np.zeros(10))
        sub = w.take(np.asarray([3, 7, 1]))
        assert list(sub.compute) == [3.0, 7.0, 1.0]
        assert len(sub) == 3

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            WorkCosts(np.ones(3), np.ones(4), np.ones(3))

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_prefix_sum_consistency(self, values, data):
        arr = np.asarray(values)
        w = WorkCosts(arr, arr, arr)
        lo = data.draw(st.integers(0, len(arr)))
        hi = data.draw(st.integers(lo, len(arr)))
        c, _, _ = w.range_cost(lo, hi)
        assert c == pytest.approx(arr[lo:hi].sum(), abs=1e-6 * max(1, arr.sum()))


class TestKernelCosts:
    def test_coloring_scales_with_degree(self, mesh_and_profile):
        g, p = mesh_and_profile
        w = coloring_tentative_costs(g, p)
        hub = int(np.argmax(g.degrees))
        leaf = int(np.argmin(g.degrees))
        assert w.compute[hub] > w.compute[leaf]

    def test_conflict_cheaper_than_tentative(self, mesh_and_profile):
        g, p = mesh_and_profile
        tent = coloring_tentative_costs(g, p)
        conf = coloring_conflict_costs(g, p)
        assert conf.compute.sum() < tent.compute.sum()
        assert conf.stall.sum() < tent.stall.sum()

    def test_irregular_compute_grows_linearly_in_iterations(self, mesh_and_profile):
        g, p = mesh_and_profile
        w1 = irregular_costs(g, p, 1, KNF.local_hit_cycles)
        w5 = irregular_costs(g, p, 5, KNF.local_hit_cycles)
        assert w5.compute.sum() > 4.5 * w1.compute.sum()
        # memory volume is paid once (first pass)
        assert w5.volume.sum() == pytest.approx(w1.volume.sum())

    def test_irregular_moves_toward_compute_bound(self, mesh_and_profile):
        """The Figure 3 axis: stall/compute ratio falls with iterations."""
        g, p = mesh_and_profile
        r = []
        for it in (1, 3, 10):
            w = irregular_costs(g, p, it, KNF.local_hit_cycles)
            r.append(w.stall.sum() / w.compute.sum())
        assert r[0] > r[1] > r[2]

    def test_irregular_rejects_zero_iterations(self, mesh_and_profile):
        g, p = mesh_and_profile
        with pytest.raises(ValueError):
            irregular_costs(g, p, 0, 6.0)

    def test_bfs_scan_positive(self, mesh_and_profile):
        g, p = mesh_and_profile
        w = bfs_scan_costs(g, p)
        assert np.all(w.compute > 0)
        assert len(w) == g.n_vertices


class TestWorkCostsValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            WorkCosts(np.array([-1.0]), np.zeros(1), np.zeros(1))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            WorkCosts(np.array([np.nan]), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="finite"):
            WorkCosts(np.zeros(1), np.array([np.inf]), np.zeros(1))
