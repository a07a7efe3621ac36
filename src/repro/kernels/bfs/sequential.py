"""Sequential breadth-first search — the paper's Algorithm 6.

:func:`bfs_sequential` is the level-synchronous vectorised form (gather the
frontier's neighbours, keep the unseen ones); it computes exactly the same
distance labelling as the FIFO formulation and is the baseline all parallel
variants are checked against.  :func:`bfs_fifo` is a literal transcription
of Algorithm 6, used as an independent oracle in the tests.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.base import gather_neighbors

__all__ = ["bfs_sequential", "bfs_fifo", "frontier_profile"]


def bfs_sequential(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS distances from *source* (−1 for unreachable vertices)."""
    n = graph.n_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    indptr, indices = graph.indptr, graph.indices
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 1
    while frontier.size:
        # Gather all neighbours of the frontier into one flat array.
        nbrs = gather_neighbors(indptr, indices, frontier)[0]
        fresh = nbrs[dist[nbrs] == -1]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        dist[frontier] = level
        level += 1
    return dist


def bfs_fifo(graph: CSRGraph, source: int) -> np.ndarray:
    """Algorithm 6, verbatim: FIFO queue, one vertex popped at a time."""
    n = graph.n_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    indptr, indices = graph.indptr, graph.indices
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    fifo = deque([source])
    while fifo:
        v = fifo.popleft()
        dv = dist[v]
        for w in indices[indptr[v]:indptr[v + 1]]:
            if dist[w] == -1:
                dist[w] = dv + 1
                fifo.append(int(w))
    return dist


def frontier_profile(graph: CSRGraph, source: int) -> np.ndarray:
    """Level widths ``x_l`` (number of vertices per BFS level).

    This is the input to the paper's analytic speedup model (§III-C): the
    computation is decomposed into ``L`` synchronised steps with ``x_l``
    vertices to visit at level ``l``.
    """
    dist = bfs_sequential(graph, source)
    reached = dist[dist >= 0]
    if reached.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(reached).astype(np.int64)
