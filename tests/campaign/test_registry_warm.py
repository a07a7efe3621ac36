"""Warm campaign runs do zero graph generation when the registry is on.

Satellite contract for :mod:`repro.graphstore`: campaign adapters reach
their suite graphs through :func:`repro.graph.suite.suite_graph`, which
resolves through the graph registry whenever ``REPRO_GRAPH_DIR`` is set.
The first (cold) pass builds the ``.rgr`` file; a second pass — here a
fresh registry instance standing in for a new worker process — must
memory-map it without calling a generator, and must produce bit-identical
cell values.  The ``graphstore.hits``/``graphstore.misses`` counters are
the proof.
"""

import pytest

import repro.graphstore.registry as registry_module
from repro.campaign.runners import run_cell
from repro.campaign.spec import CellSpec
from repro.experiments.harness import ordered_suite_graph
from repro.graph.suite import suite_graph
from repro.graphstore.registry import registry_from_env
from repro.obs import Observer

CELL = CellSpec(experiment="coloring", graph="pwtk",
                variant="OpenMP-dynamic", threads=4,
                params=(("ordering", "natural"),))


def _fresh_pass():
    """Drop every in-process cache, as a newly forked worker would have.

    ``ordered_suite_graph`` keeps its own lru_cache above ``suite_graph``
    — a warm adapter call short-circuits there without consulting the
    registry, so both layers must be emptied to model a new process.
    """
    suite_graph.cache_clear()
    ordered_suite_graph.cache_clear()
    registry_module._ACTIVE.clear()


@pytest.fixture
def graph_env(tmp_path, monkeypatch):
    """Point the registry at a scratch dir; isolate all process caches."""
    monkeypatch.setenv("REPRO_GRAPH_DIR", str(tmp_path / "graphs"))
    _fresh_pass()
    yield
    _fresh_pass()


class TestWarmCampaign:
    def test_second_pass_is_all_mmap_hits(self, graph_env):
        with Observer(trace=False) as obs:
            cold_value = run_cell(CELL)
        cold = obs.registry.snapshot()
        assert cold.get("graphstore.misses") == 1
        assert "graphstore.hits" not in cold

        _fresh_pass()
        with Observer(trace=False) as obs:
            warm_value = run_cell(CELL)
        warm = obs.registry.snapshot()
        assert warm.get("graphstore.hits") == 1
        assert "graphstore.misses" not in warm

        registry = registry_from_env()
        assert registry.stats.builds == 0  # the warm registry never built
        assert warm_value == cold_value  # bit-identical simulated cycles

    def test_registry_off_means_no_counters(self, monkeypatch):
        monkeypatch.delenv("REPRO_GRAPH_DIR", raising=False)
        _fresh_pass()
        try:
            with Observer(trace=False) as obs:
                value = run_cell(CELL)
            snapshot = obs.registry.snapshot()
            assert not any(k.startswith("graphstore.") for k in snapshot)
            assert value > 0
        finally:
            _fresh_pass()

    def test_registry_value_matches_eager_value(self, graph_env):
        via_registry = run_cell(CELL)
        _fresh_pass()
        import os
        eager_env = os.environ.pop("REPRO_GRAPH_DIR")
        try:
            eager = run_cell(CELL)
        finally:
            os.environ["REPRO_GRAPH_DIR"] = eager_env
        assert via_registry == eager
