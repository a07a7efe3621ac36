"""Synthetic graph generators.

The paper evaluates on seven finite-element / structural matrices from the
UF Sparse Matrix Collection.  Those files are not available offline, so
:func:`tube_mesh` generates the suite's structural analogs: an extruded
mesh of overlapping cliques, section by section, which reproduces the
three properties the kernels are sensitive to —

* **degree distribution** (``clique`` and ``cliques_per_vertex`` control
  the greedy colour count; ``coupling`` controls average degree; ``hubs``
  inject the matrices' few very-high-degree rows),
* **bandedness** (vertices are numbered section by section, which gives
  the natural-ordering locality that the machine cache model prices), and
* **BFS depth** (a frontier advances one section per level, so
  ``section`` fixes the level count — ``pwtk``'s 267 levels come from a
  narrow section).

All generators are vectorised and deterministic given a seed.

The random-structure generators stream: edges are emitted in blocks of
the builder's size (:data:`repro.graph.csr.BLOCK_ENTRIES`) into
:class:`repro.graphstore.builder.StreamingCSRBuilder` instead of
materialising the full ``(u, v)`` edge array, so peak RSS is
O(n + block) and instances scale to 10⁶–10⁷ vertices.  RNG draws are
chunked **along the first axis only**, which numpy's ``Generator``
guarantees to be bit-identical to one whole-array draw — every graph
(including the seven suite graphs pinned by committed baselines) is
byte-for-byte the same as the pre-streaming implementation produced.
``rmat`` is the one exception: its bit-major sampling loop draws one
``random(m)`` vector per scale bit, an order that cannot be edge-chunked
without changing RNG consumption, so it keeps two O(m) endpoint arrays
and streams only the CSR assembly.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive, rng_from_seed
from repro.graph.csr import CSRGraph
from repro.graphstore.builder import StreamingCSRBuilder

__all__ = [
    "tube_mesh",
    "grid2d",
    "erdos_renyi",
    "rmat",
    "chain",
    "star",
    "complete",
]


def _emit_spine(builder: StreamingCSRBuilder, n: int) -> None:
    """Backbone chain ``0-1-...-n-1``, emitted in builder-sized blocks."""
    block = builder.block_edges
    for i0 in range(0, n - 1, block):
        i = np.arange(i0, min(n - 1, i0 + block), dtype=np.int64)
        builder.add_edges(i, i + 1)


def tube_mesh(
    n: int,
    section: int,
    clique: int,
    cliques_per_vertex: float = 1.0,
    coupling: int = 4,
    coupling_window: int | None = None,
    hubs: int = 0,
    hub_degree: int = 0,
    seed=0,
    name: str = "tube_mesh",
) -> CSRGraph:
    """Extruded ("tube") finite-element mesh.

    Vertices are numbered section by section: vertex ``sec * section + pos``.
    Each section carries overlapping cliques of ``clique`` consecutive
    vertices (``cliques_per_vertex`` coverage — this drives the greedy
    colour count), and every vertex couples to ``coupling`` vertices at
    aligned positions in the *next* section (this drives average degree and
    limits a BFS frontier to one section per level, so the level count is
    ``≈ n / section``).  This is the structure of the paper's long, narrow
    matrices — ``pwtk``, a wind-tunnel stiffness matrix with 267 BFS levels,
    is exactly such a tube.
    """
    check_positive("n", n)
    check_positive("section", section)
    check_positive("clique", clique)
    check_positive("cliques_per_vertex", cliques_per_vertex)
    if clique > section:
        raise ValueError(f"clique {clique} exceeds section {section}")
    if section > n:
        raise ValueError(f"section {section} exceeds n {n}")
    rng = rng_from_seed(seed)

    n_sections = -(-n // section)  # ceil: trailing partial section included
    # Run start positions: a regular stride of clique/cliques_per_vertex so
    # consecutive runs overlap deterministically (keeping every section
    # internally connected through its cliques), plus a small jitter for
    # irregularity.  Random placement would make intra-section connectivity
    # a percolation accident and the BFS depth wildly unstable.
    stride = max(1, int(round(clique / cliques_per_vertex)))
    run_offsets = np.arange(0, max(1, section - clique + 1), stride, dtype=np.int64)
    runs_per_section = len(run_offsets)
    jitter_span = max(1, stride // 3)
    iu, iv = np.triu_indices(clique, k=1)
    builder = StreamingCSRBuilder(n)
    pairs_per_section = max(1, runs_per_section * len(iu))
    sec_chunk = max(1, builder.block_edges // pairs_per_section)
    for s0 in range(0, n_sections, sec_chunk):
        s1 = min(n_sections, s0 + sec_chunk)
        sec_base = (np.arange(s0, s1, dtype=np.int64) * section)[:, None]
        jitter = rng.integers(-jitter_span, jitter_span + 1,
                              size=(s1 - s0, runs_per_section))
        starts = np.clip(sec_base + run_offsets[None, :] + jitter, sec_base,
                         sec_base + max(0, section - clique))
        starts = np.minimum(starts, max(0, n - clique))
        starts = starts.reshape(-1, 1)
        members = starts + np.arange(clique, dtype=np.int64)[None, :]
        members = np.minimum(members, n - 1)
        builder.add_edges(members[:, iu].ravel(), members[:, iv].ravel())

    if coupling > 0 and n_sections > 1:
        cw = coupling_window if coupling_window is not None else max(2, clique)
        half = max(1, cw // 2)
        limit = min(n, (n_sections - 1) * section)
        v_chunk = max(1, builder.block_edges // max(1, coupling))
        for i0 in range(0, limit, v_chunk):
            i1 = min(limit, i0 + v_chunk)
            v_ids = np.arange(i0, i1, dtype=np.int64)
            offs = rng.integers(-half, half + 1, size=(i1 - i0, coupling))
            pos = v_ids % section
            tgt_pos = np.clip(pos[:, None] + offs, 0, section - 1)
            tgt = (v_ids // section + 1)[:, None] * section + tgt_pos
            src = np.repeat(v_ids, coupling)
            tgt = tgt.ravel()
            valid = tgt < n  # partial trailing section: drop, don't pile up
            builder.add_edges(src[valid], tgt[valid])

    _emit_spine(builder, n)

    if hubs > 0 and hub_degree > 0:
        hub_ids = rng.choice(n, size=hubs, replace=False).astype(np.int64)
        reach = 2 * section
        spokes = rng.integers(-reach, reach + 1, size=(hubs, hub_degree))
        targets = np.clip(hub_ids[:, None] + spokes, 0, n - 1).astype(np.int64)
        builder.add_edges(np.repeat(hub_ids, hub_degree), targets.ravel())

    return builder.finalize(name=name)


def grid2d(nx: int, ny: int, diagonal: bool = False, name: str = "grid2d") -> CSRGraph:
    """``nx × ny`` lattice in row-major order; 4-point or 8-point stencil."""
    check_positive("nx", nx)
    check_positive("ny", ny)
    idx = np.arange(nx * ny, dtype=np.int64).reshape(ny, nx)
    parts = [
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1),
    ]
    if diagonal:
        parts.append(np.stack([idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()], axis=1))
        parts.append(np.stack([idx[:-1, 1:].ravel(), idx[1:, :-1].ravel()], axis=1))
    edges = np.concatenate(parts, axis=0) if parts else np.empty((0, 2), dtype=np.int64)
    return CSRGraph.from_edges(nx * ny, edges, name=name)


def erdos_renyi(n: int, m: int, seed=0, name: str = "erdos_renyi") -> CSRGraph:
    """G(n, m)-style random graph: *m* edge slots sampled uniformly.

    Duplicates and self-loops are dropped, so the realised edge count is
    slightly below *m* for dense settings.
    """
    check_positive("n", n)
    rng = rng_from_seed(seed)
    builder = StreamingCSRBuilder(n)
    for i0 in range(0, m, builder.block_edges):
        k = min(builder.block_edges, m - i0)
        edges = rng.integers(0, n, size=(k, 2), dtype=np.int64)
        builder.add_edges(edges[:, 0], edges[:, 1])
    return builder.finalize(name=name)


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=0,
    name: str = "rmat",
) -> CSRGraph:
    """Graph500-style R-MAT generator (``2**scale`` vertices).

    Quadrant probabilities ``(a, b, c, 1-a-b-c)`` default to the Graph500
    values; edges are sampled bit-by-bit, fully vectorised.
    """
    check_positive("scale", scale)
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("quadrant probabilities must be non-negative")
    rng = rng_from_seed(seed)
    n = 1 << scale
    m = edge_factor * n
    # The bit-major loop consumes one random(m) vector per scale bit, so
    # edge-chunking would change RNG order; endpoints stay O(m) eager and
    # only the sort/dedupe/CSR assembly streams through the builder.
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(m)
        u_bit = r >= a + b
        v_bit = (r >= a) & (r < a + b) | (r >= a + b + c)
        u = (u << 1) | u_bit
        v = (v << 1) | v_bit
    builder = StreamingCSRBuilder(n)
    for i0 in range(0, m, builder.block_edges):
        i1 = min(m, i0 + builder.block_edges)
        builder.add_edges(u[i0:i1], v[i0:i1])
    return builder.finalize(name=name)


def chain(n: int, name: str = "chain") -> CSRGraph:
    """Path graph ``0-1-...-n-1`` (the paper's worst case for layered BFS)."""
    check_positive("n", n)
    i = np.arange(n - 1, dtype=np.int64)
    return CSRGraph.from_edges(n, np.stack([i, i + 1], axis=1), name=name)


def star(n: int, name: str = "star") -> CSRGraph:
    """Star graph: vertex 0 connected to all others."""
    check_positive("n", n)
    spokes = np.arange(1, n, dtype=np.int64)
    edges = np.stack([np.zeros(n - 1, dtype=np.int64), spokes], axis=1)
    return CSRGraph.from_edges(n, edges, name=name)


def complete(n: int, name: str = "complete") -> CSRGraph:
    """Complete graph K_n (small n only; used in colouring tests)."""
    check_positive("n", n)
    iu, iv = np.triu_indices(n, k=1)
    return CSRGraph.from_edges(n, np.stack([iu, iv], axis=1), name=name)
