"""Structural property reports (the ingredients of the paper's Table I).

Table I lists, per graph: |V|, |E|, Δ, the number of colours used by a
sequential run of the greedy algorithm, and the number of levels of a BFS
from vertex ``|V| / 2``.  :func:`graph_properties` computes exactly those,
plus a few extras used by tests and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["GraphProperties", "graph_properties", "bfs_levels",
           "connected_components", "bandwidth"]


@dataclass(frozen=True)
class GraphProperties:
    """One row of Table I (plus average degree and component count)."""

    name: str
    n_vertices: int
    n_edges: int
    max_degree: int
    average_degree: float
    n_colors: int
    n_bfs_levels: int
    n_components: int


def bfs_levels(graph: CSRGraph, source: int | None = None) -> int:
    """Number of BFS levels from *source* (default: vertex ``|V| // 2``).

    Counts levels the paper's way: the source is level 0 and the count is
    the number of non-empty frontiers, restricted to the source's component.
    """
    from repro.kernels.bfs.sequential import bfs_sequential

    if source is None:
        source = graph.n_vertices // 2
    dist = bfs_sequential(graph, source)
    reached = dist[dist >= 0]
    return int(reached.max()) + 1 if reached.size else 0


def connected_components(graph: CSRGraph) -> int:
    """Number of connected components (scipy union over the CSR pattern)."""
    from scipy.sparse.csgraph import connected_components as _cc

    if graph.n_vertices == 0:
        return 0
    n, _ = _cc(graph.to_scipy(), directed=False)
    return int(n)


def bandwidth(graph: CSRGraph) -> int:
    """Matrix bandwidth: ``max |u - v|`` over edges (0 for edgeless graphs).

    The quantity the §V-B shuffle maximises and RCM minimises; the cache
    model's reuse distances scale with it.
    """
    if not len(graph.indices):
        return 0
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), graph.degrees)
    return int(np.abs(src - graph.indices).max())


def graph_properties(graph: CSRGraph, source: int | None = None) -> GraphProperties:
    """Compute the Table I row for *graph* (sequential greedy colours included)."""
    from repro.kernels.coloring.sequential import first_fit

    colors = first_fit(graph)
    return GraphProperties(
        name=graph.name,
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        max_degree=graph.max_degree,
        average_degree=graph.average_degree,
        n_colors=int(colors.max()) if len(colors) else 0,
        n_bfs_levels=bfs_levels(graph, source),
        n_components=connected_components(graph),
    )
