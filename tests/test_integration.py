"""Cross-module integration tests: whole pipelines end to end."""

import numpy as np
import pytest

import repro
from repro.graph import apply_ordering, graph_properties, tube_mesh
from repro.kernels.bfs import simulate_bfs
from repro.kernels.bfs.sequential import frontier_profile
from repro.kernels.coloring.parallel import parallel_coloring
from repro.kernels.irregular import simulate_irregular
from repro.machine.config import HOST_XEON, KNF
from repro.models import bfs_model_speedup
from repro.runtime import (Partitioner, ProgrammingModel, RuntimeSpec,
                           Schedule, TlsMode)


@pytest.fixture(scope="module")
def g():
    return tube_mesh(3000, 60, 12, 1.0, 4, hubs=3, hub_degree=40, seed=11)


class TestPublicApi:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestColoringPipeline:
    def test_reorder_color_verify(self, g):
        """Shuffle -> parallel colour -> verify."""
        shuffled = apply_ordering(g, "random", seed=3)
        spec = RuntimeSpec(ProgrammingModel.TBB,
                           partitioner=Partitioner.SIMPLE, chunk=8)
        run = parallel_coloring(shuffled, 16, spec, KNF, cache_scale=0.05,
                                seed=1)
        assert repro.verify_coloring(shuffled, run.colors)

    def test_coloring_quality_independent_of_ordering(self, g):
        """Colour counts stay within a small band across orderings."""
        counts = {}
        for ordering in ("natural", "random", "rcm", "degree"):
            gg = apply_ordering(g, ordering, seed=2)
            n, colors = repro.greedy_coloring(gg)
            assert repro.verify_coloring(gg, colors)
            counts[ordering] = n
        assert max(counts.values()) <= 2 * min(counts.values())


class TestCrossMachine:
    def test_same_kernel_both_machines(self, g):
        """KNF vs host: the host has fewer threads but a stronger core."""
        spec = RuntimeSpec(ProgrammingModel.OPENMP,
                           schedule=Schedule.DYNAMIC, chunk=8)
        knf = parallel_coloring(g, 1, spec, KNF, cache_scale=0.05)
        host = parallel_coloring(g, 1, spec, HOST_XEON, cache_scale=0.05)
        assert host.total_cycles < knf.total_cycles  # OoO width + caches
        assert np.array_equal(knf.colors, host.colors)  # semantics identical

    def test_host_thread_limit_enforced(self, g):
        spec = RuntimeSpec(ProgrammingModel.OPENMP)
        with pytest.raises(ValueError, match="hardware contexts"):
            parallel_coloring(g, 25, spec, HOST_XEON)


class TestBfsPipeline:
    def test_all_variants_agree_and_model_bounds(self, g):
        ref = repro.bfs_sequential(g, g.n_vertices // 2)
        widths = frontier_profile(g, g.n_vertices // 2)
        model31 = bfs_model_speedup(widths, 31, 8)
        t1 = simulate_bfs(g, 1, block=8, config=KNF,
                          cache_scale=0.05).total_cycles
        for variant in ("openmp-block", "tbb-block", "openmp-tls", "cilk-bag"):
            run = simulate_bfs(g, 31, variant=variant, block=8, config=KNF,
                               cache_scale=0.05, seed=2)
            assert np.array_equal(run.dist, ref), variant
        # the block queue's measured speedup is the same magnitude as the
        # analytic model (the §V-D conclusion)
        t31 = simulate_bfs(g, 31, block=8, config=KNF, cache_scale=0.05,
                           seed=2).total_cycles
        assert t1 / t31 == pytest.approx(model31, rel=0.8)

    def test_properties_feed_model(self, g):
        props = graph_properties(g)
        assert props.n_bfs_levels > 10
        s = bfs_model_speedup(frontier_profile(g, g.n_vertices // 2), 121, 8)
        width = g.n_vertices / props.n_bfs_levels
        assert s <= width / 8 + 1.5  # capped by blocks per level


class TestIrregularPipeline:
    def test_state_matches_direct_kernel(self, g):
        run = simulate_irregular(g, 8, iterations=3, config=KNF,
                                 compute_state=True)
        direct = repro.irregular_kernel(g, iterations=3)
        assert np.allclose(run.state, direct)

    def test_all_models_same_semantics_different_time(self, g):
        specs = [RuntimeSpec(ProgrammingModel.OPENMP, chunk=8),
                 RuntimeSpec(ProgrammingModel.CILK, chunk=8),
                 RuntimeSpec(ProgrammingModel.TBB, chunk=8)]
        times = [simulate_irregular(g, 16, 2, spec=s, config=KNF,
                                    cache_scale=0.05, seed=1).total_cycles
                 for s in specs]
        assert len({round(t) for t in times}) > 1  # runtimes differ in time
