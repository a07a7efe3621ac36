"""The seven-graph evaluation suite (scaled analogs of the paper's Table I).

The paper's graphs (UF Sparse Matrix Collection / Parasol) are not
redistributable offline, so each entry here is a deterministic
:func:`repro.graph.generators.tube_mesh` instance whose *shape* matches the
original: BFS level count (via section size — these FEM matrices are
extruded structures, and ``pwtk``'s 267 levels make it the paper's
outlier), greedy colour count (via intra-section clique size), average
degree (via cross-section coupling) and max-degree character (hubs).
Sizes are scaled ≈1/8 — large enough that BFS level *widths* keep their
relative order across graphs (they set the per-level parallelism in
Fig. 4) while keeping the pure-Python simulation laptop-fast; the
simulated cache is scaled by :func:`suite_scale` to preserve
working-set/cache ratios.  DESIGN.md §5 discusses the effect on reported
speedups.

Parameters below were fitted numerically against the scaled targets; the
realised properties are asserted (with tolerances) in
``tests/graph/test_suite.py`` and reported in EXPERIMENTS.md.

Paper Table I for reference::

    name      |V|    |E|     Δ    #Color  #Level
    auto      448K   3.3M    37   13      58
    bmw3_2    227K   5.5M    335  48      86
    hood      220K   4.8M    76   40      116
    inline_1  503K   18.1M   842  51      183
    ldoor     952K   20.7M   76   42      169
    msdoor    415K   9.3M    76   42      99
    pwtk      217K   5.6M    179  48      267
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.graph.csr import CSRGraph
from repro.graph.generators import tube_mesh

__all__ = ["SuiteSpec", "SUITE", "PAPER_TABLE1", "suite_graph", "suite_scale"]


@dataclass(frozen=True)
class SuiteSpec:
    """Generator parameters for one suite graph (see :func:`tube_mesh`)."""

    name: str
    n: int
    section: int
    clique: int
    cliques_per_vertex: float
    coupling: int
    hubs: int = 0
    hub_degree: int = 0
    seed: int = 7


#: Paper Table I rows: |V|, |E|, Δ, #Color, #Level (for EXPERIMENTS.md).
PAPER_TABLE1 = {
    "auto":     (448_000, 3_300_000, 37, 13, 58),
    "bmw3_2":   (227_000, 5_500_000, 335, 48, 86),
    "hood":     (220_000, 4_800_000, 76, 40, 116),
    "inline_1": (503_000, 18_100_000, 842, 51, 183),
    "ldoor":    (952_000, 20_700_000, 76, 42, 169),
    "msdoor":   (415_000, 9_300_000, 76, 42, 99),
    "pwtk":     (217_000, 5_600_000, 179, 48, 267),
}

#: Scaled generator parameters (numerically fitted; see module docstring).
SUITE = {
    "auto": SuiteSpec("auto", n=56_000, section=510, clique=10,
                      cliques_per_vertex=1.0, coupling=3,
                      hubs=8, hub_degree=30),
    "bmw3_2": SuiteSpec("bmw3_2", n=28_400, section=151, clique=46,
                        cliques_per_vertex=1.0, coupling=5,
                        hubs=12, hub_degree=160),
    "hood": SuiteSpec("hood", n=27_500, section=114, clique=35,
                      cliques_per_vertex=1.0, coupling=9,
                      hubs=8, hub_degree=70),
    "inline_1": SuiteSpec("inline_1", n=62_900, section=168, clique=45,
                          cliques_per_vertex=1.4, coupling=14,
                          hubs=16, hub_degree=400),
    "ldoor": SuiteSpec("ldoor", n=119_000, section=356, clique=40,
                       cliques_per_vertex=1.0, coupling=6,
                       hubs=8, hub_degree=70),
    "msdoor": SuiteSpec("msdoor", n=51_900, section=252, clique=40,
                        cliques_per_vertex=1.0, coupling=6,
                        hubs=8, hub_degree=70),
    "pwtk": SuiteSpec("pwtk", n=27_125, section=51, clique=46,
                      cliques_per_vertex=1.0, coupling=9,
                      hubs=3, hub_degree=170),
}

#: Linear scale of each suite graph relative to the paper's original
#: (used to scale the simulated cache capacity so working-set/cache ratios
#: match the real machine; see ``repro.machine.cache``).
def suite_scale(name: str) -> float:
    """|V|_ours / |V|_paper for the named suite graph."""
    return SUITE[name].n / PAPER_TABLE1[name][0]


@lru_cache(maxsize=None)
def suite_graph(name: str) -> CSRGraph:
    """Build (and memoise) the named suite graph.

    When ``REPRO_GRAPH_DIR`` is set the graph resolves through the
    :mod:`repro.graphstore` registry (``suite:<name>``): built once on
    disk, then memory-mapped — campaign worker forks and repeat
    processes skip generation entirely.  The registry build uses the
    identical :class:`SuiteSpec` parameters, so both paths return
    structurally identical graphs.  Tests that toggle the env var must
    ``suite_graph.cache_clear()`` (the memo is keyed on *name* only).
    """
    if name not in SUITE:
        raise KeyError(f"unknown suite graph {name!r}; pick from {sorted(SUITE)}")
    from repro.graphstore.registry import registry_from_env
    registry = registry_from_env()
    if registry is not None:
        return registry.get(f"suite:{name}")
    s = SUITE[name]
    return tube_mesh(s.n, s.section, s.clique, s.cliques_per_vertex, s.coupling,
                     hubs=s.hubs, hub_degree=s.hub_degree, seed=s.seed,
                     name=s.name)
