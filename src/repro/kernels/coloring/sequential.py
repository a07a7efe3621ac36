"""Sequential greedy (First-Fit) distance-1 colouring — the paper's Alg. 1.

Vertices are visited in ID order; each receives the smallest colour not
used by an already-coloured neighbour.  This is the baseline whose colour
count Table I reports, and the quality yardstick for the parallel
algorithm (§V-B: parallel colour counts stay within 5 %).

Two interchangeable inner loops:

* a *bitset* path (colours ≤ 63): each vertex's colour is also kept as
  a bit (colour 0, "not yet coloured", has none), so a vertex costs one
  gather of its neighbours' bits and one ``bitwise_or`` reduction; the
  smallest missing colour is the lowest zero bit,
* a *stamp* path (the textbook ``forbiddenColors`` array stamped with the
  current vertex, exactly Algorithm 1), used for high colour counts and as
  a cross-check in tests.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["greedy_coloring", "greedy_coloring_stamp"]

_BITSET_LIMIT = 63  # colours representable in one uint64 (bit c-1 = colour c)

#: ``_COLOR_BIT[c]`` is colour ``c``'s bit; colour 0 has none.
_COLOR_BIT = np.concatenate([np.zeros(1, dtype=np.uint64),
                             np.uint64(1) << np.arange(_BITSET_LIMIT,
                                                       dtype=np.uint64)])


def greedy_coloring(graph: CSRGraph, order: np.ndarray | None = None,
                    colors: np.ndarray | None = None):
    """First-Fit greedy colouring.

    Parameters
    ----------
    graph:
        The graph to colour.
    order:
        Optional visit order (array of vertex IDs); defaults to ``0..n-1``,
        matching the paper's "naturally ordered" runs.
    colors:
        Optional pre-existing colour array to continue from (used by the
        parallel algorithm's sequential fast path when recolouring a
        conflict set); modified in place.

    Returns
    -------
    (n_colors, colors):
        ``colors`` is an ``int64`` array with 1-based colours; ``n_colors``
        is ``max(colors)`` (0 for an empty graph).
    """
    n = graph.n_vertices
    indptr, indices = graph.indptr, graph.indices
    if colors is None:
        colors = np.zeros(n, dtype=np.int64)
    elif len(colors) != n:
        raise ValueError(f"colors has length {len(colors)}, expected {n}")
    ip = indptr.tolist()
    order = range(n) if order is None else np.asarray(order).tolist()
    maxcolor = int(colors.max()) if n else 0
    # Each vertex's colour bit, kept in step with colors while the
    # bitset path runs (colour 0 has no bit).
    color_bits = _COLOR_BIT[colors] if maxcolor <= _BITSET_LIMIT else None
    bitwise_or = np.bitwise_or.reduce
    for v in order:
        nbr = indices[ip[v]:ip[v + 1]]
        if maxcolor <= _BITSET_LIMIT:
            mask = int(bitwise_or(color_bits.take(nbr)))
            # lowest zero bit of mask -> smallest permissible colour
            low = ~mask & (mask + 1)
            c = low.bit_length()
            color_bits[v] = low
        else:
            nc = colors[nbr]
            nc = nc[nc > 0]
            c = _first_fit_stamp(nc) if nc.size else 1
        colors[v] = c
        if c > maxcolor:
            maxcolor = c
    return maxcolor, colors


def _first_fit_stamp(neighbor_colors: np.ndarray) -> int:
    """Smallest positive integer absent from *neighbor_colors*."""
    seen = np.zeros(len(neighbor_colors) + 2, dtype=bool)
    inrange = neighbor_colors[neighbor_colors <= len(neighbor_colors) + 1]
    seen[inrange - 1] = True
    return int(np.argmin(seen)) + 1


def greedy_coloring_stamp(graph: CSRGraph, order=None):
    """Literal Algorithm 1 (stamped ``forbiddenColors`` array).

    Slower than :func:`greedy_coloring` but a line-for-line transcription of
    the paper's pseudocode; tests assert both produce identical colourings.
    """
    n = graph.n_vertices
    indptr, indices = graph.indptr, graph.indices
    colors = np.zeros(n, dtype=np.int64)
    forbidden = np.full(graph.max_degree + 2, -1, dtype=np.int64)
    if order is None:
        order = range(n)
    maxcolor = 0
    for v in order:
        for w in indices[indptr[v]:indptr[v + 1]]:
            c = colors[w]
            if c:
                forbidden[c - 1] = v
        c = 1
        while forbidden[c - 1] == v:
            c += 1
        colors[v] = c
        if c > maxcolor:
            maxcolor = c
    return maxcolor, colors
