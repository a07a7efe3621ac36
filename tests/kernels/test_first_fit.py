"""The per-graph first-fit memo and the consumers that read it.

``first_fit(graph)`` is the natural-order sequential colouring, computed
once per graph object in a process and held weakly.  The 1-thread
``parallel_coloring`` runs (the Fig 1/2 baselines) and Table I's colour
count read it; their results are pinned by ``coloring_golden.json``,
which was generated before the memo existed.
"""

import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

from repro.experiments.fig1_coloring import COLORING_VARIANTS
from repro.experiments.harness import ordered_suite_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.properties import graph_properties
from repro.kernels.coloring import parallel, sequential
from repro.kernels.coloring.parallel import parallel_coloring
from repro.kernels.coloring.sequential import (first_fit, greedy_coloring,
                                               greedy_coloring_stamp)
from tests.kernels.test_coloring_replay import GOLDEN, golden_graphs


@pytest.fixture
def fresh_memo():
    """The memo, emptied of other tests' graphs (they recompute on use)."""
    sequential._FIRST_FIT.clear()
    return sequential._FIRST_FIT


@pytest.mark.parametrize("ordering", ["natural", "random"])
@pytest.mark.parametrize("name", ["auto", "pwtk"])
def test_suite_graphs_match_greedy_and_stamp(name, ordering):
    g = ordered_suite_graph(name, ordering)
    colors = first_fit(g)
    assert colors.dtype == np.int64
    assert np.array_equal(colors, greedy_coloring(g)[1])
    assert np.array_equal(colors, greedy_coloring_stamp(g)[1])


@pytest.mark.parametrize("n", [0, 1, 7])
def test_edgeless_and_empty(n):
    colors = first_fit(CSRGraph.from_edges(n, []))
    assert np.array_equal(colors, np.ones(n, dtype=np.int64))
    assert not colors.flags.writeable


def test_read_only_and_shared(fresh_memo):
    g = erdos_renyi(300, 1200, seed=2)
    colors = first_fit(g)
    assert not colors.flags.writeable
    with pytest.raises(ValueError):
        colors[0] = 99
    assert first_fit(g) is colors
    assert len(fresh_memo) == 1


def test_entry_dies_with_its_graph(fresh_memo):
    g = erdos_renyi(300, 1200, seed=2)
    first_fit(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
    assert len(fresh_memo) == 0


def _digest(colors):
    return hashlib.sha256(colors.astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("variant", sorted(COLORING_VARIANTS))
def test_one_thread_runs_unchanged(variant, fresh_memo):
    """Cold and warm memo both give the pinned 1-thread run, and the run
    owns its colours: writing them leaves the memo intact."""
    golden = json.loads(GOLDEN.read_text())
    spec = COLORING_VARIANTS[variant]
    for gname, graph in golden_graphs().items():
        pinned = golden[f"{gname}/{variant}/1"]
        for _ in ("cold", "warm"):
            run = parallel_coloring(graph, 1, spec, cache_scale=0.05, seed=1)
            assert float(run.total_cycles) == pinned["total_cycles"]
            assert _digest(run.colors) == pinned["colors_sha256"]
            assert run.rounds == pinned["rounds"]
            run.colors[:] = 0
        assert np.array_equal(first_fit(graph), greedy_coloring(graph)[1])


def test_consumers_read_the_memo(monkeypatch):
    """With the memo warm, neither a 1-thread run nor Table I colours."""
    g = erdos_renyi(300, 1200, seed=2)
    n_colors = int(first_fit(g).max())

    def boom(*args, **kwargs):
        raise AssertionError("coloured again")

    monkeypatch.setattr(parallel, "greedy_coloring", boom)
    monkeypatch.setattr(sequential, "greedy_coloring", boom)
    run = parallel_coloring(g, 1)
    assert np.array_equal(run.colors, first_fit(g))
    assert graph_properties(g).n_colors == n_colors
