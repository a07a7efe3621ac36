"""Shipped kernels under the checker: clean, benign-only, unperturbed."""

import numpy as np
import pytest

from repro import check
from repro.check.checker import Checker
from repro.graph.generators import complete, erdos_renyi
from repro.kernels.bfs.layered import BFS_VARIANTS, simulate_bfs
from repro.kernels.coloring.parallel import parallel_coloring
from repro.kernels.irregular import simulate_irregular
from repro.machine.config import KNF
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule)

CFG = KNF.with_(name="check-kernels", n_cores=4, smt_per_core=2)

SPECS = {
    "openmp": RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC,
                          chunk=8),
    "cilk": RuntimeSpec(ProgrammingModel.CILK, chunk=8),
    "tbb": RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE,
                       chunk=8),
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 480, seed=7)


@pytest.mark.parametrize("runtime", sorted(SPECS))
def test_coloring_clean_and_unperturbed(graph, runtime):
    spec = SPECS[runtime]
    base = parallel_coloring(graph, 4, spec=spec, config=CFG, seed=1)
    with check.checking() as c:
        inst = parallel_coloring(graph, 4, spec=spec, config=CFG, seed=1)
    report = c.finalize()
    assert report.ok, report.format()
    # Zero perturbation: identical simulated time AND identical semantics.
    assert inst.total_cycles == base.total_cycles
    assert np.array_equal(inst.colors, base.colors)
    # The speculative race is annotated and, with 4 threads, realised.
    assert report.benign["colors"].pairs > 0


@pytest.mark.parametrize("variant", BFS_VARIANTS)
@pytest.mark.parametrize("relaxed", [True, False])
def test_bfs_clean_and_unperturbed(graph, variant, relaxed):
    base = simulate_bfs(graph, 4, variant=variant, relaxed=relaxed,
                        config=CFG, seed=2)
    with check.checking() as c:
        inst = simulate_bfs(graph, 4, variant=variant, relaxed=relaxed,
                            config=CFG, seed=2)
    report = c.finalize()
    assert report.ok, report.format()
    assert inst.total_cycles == base.total_cycles
    assert np.array_equal(inst.dist, base.dist)
    assert "dist" in report.benign


def test_irregular_clean_and_unperturbed(graph):
    base = simulate_irregular(graph, 4, iterations=2, config=CFG, seed=3)
    with check.checking() as c:
        inst = simulate_irregular(graph, 4, iterations=2, config=CFG, seed=3)
    report = c.finalize()
    assert report.ok, report.format()
    assert inst.total_cycles == base.total_cycles
    assert report.benign["state"].pairs > 0


def test_seeded_bug_coloring_detected(graph):
    """Dropping the tentative->conflict region join (launching conflict
    detection without waiting for the colouring pass) must surface as an
    unannotated race on ``colors``."""
    with check.checking(Checker(drop_edges={"region-join"})) as c:
        parallel_coloring(graph, 4, config=CFG, seed=1)
    report = c.finalize()
    assert not report.ok
    assert any(f.kind == "race" and f.array == "colors"
               for f in report.errors)


def test_seeded_bug_bfs_detected():
    # Complete graph: same-level vertices are mutually adjacent, so a
    # missing inter-level join races level L's writes with L+1's reads.
    with check.checking(Checker(drop_edges={"region-join"})) as c:
        simulate_bfs(complete(12), 4, variant="openmp-block", config=CFG,
                     seed=2)
    report = c.finalize()
    assert not report.ok
    assert any(f.array == "dist" for f in report.errors)


def test_checker_does_not_leak_across_context_exit(graph):
    with check.checking():
        parallel_coloring(graph, 2, config=CFG, seed=1)
    assert check.active() is None
    # And an unchecked run afterwards behaves normally.
    run = parallel_coloring(graph, 2, config=CFG, seed=1)
    assert run.n_colors > 0


def test_single_thread_runs_are_trivially_clean(graph):
    with check.checking() as c:
        parallel_coloring(graph, 1, config=CFG, seed=1)
        simulate_bfs(graph, 1, config=CFG, seed=2)
    report = c.finalize()
    assert report.ok
    assert not report.findings


def test_obs_counters_emitted_alongside():
    from repro.obs import metrics as obs_metrics
    from repro.obs.metrics import MetricsRegistry

    g = erdos_renyi(60, 240, seed=9)
    registry = MetricsRegistry()
    obs_metrics.install(registry)
    try:
        with check.checking() as c:
            parallel_coloring(g, 4, config=CFG, seed=1)
        c.finalize()
    finally:
        obs_metrics.uninstall()
    assert "check.loops" in registry.snapshot()


def test_race_fraction_zero_eliminates_conflicts(monkeypatch):
    """The fraction bounds realised speculation: at 0 every clash behaves
    as if the concurrent commit was seen, so no conflict rounds occur."""
    from repro.kernels.coloring import parallel

    # The module's small fixture graph has no clashes at any fraction;
    # this one has some when every clash races.
    dense = erdos_renyi(2000, 16000, seed=7)
    monkeypatch.setattr(parallel, "COLOR_RACE_FRACTION", 1.0)
    racing = parallel_coloring(dense, 4, config=CFG, seed=1)
    assert sum(racing.conflicts_per_round) > 0
    monkeypatch.setattr(parallel, "COLOR_RACE_FRACTION", 0.0)
    run = parallel_coloring(dense, 4, config=CFG, seed=1)
    assert sum(run.conflicts_per_round) == 0
    assert run.rounds == 1
