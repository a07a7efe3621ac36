"""Compressed-sparse-row (CSR) graph.

The whole library works on undirected simple graphs stored in CSR form with
both directions of every edge materialised (the layout the paper's C codes
use, and the layout the machine cost model prices: ``indptr`` of size
``n + 1`` and ``indices`` of size ``2|E|``).

Construction is fully vectorised: every ``(row, col)`` entry is encoded as
one int64 key ``row * n + col`` (exact, since ``n < 2**31``), the keys are
sorted in place and deduplicated, and rows and columns are decoded with
``// n`` and ``% n``.  One single-key sort is several times faster than a
two-key lexicographic sort and needs no index array; :func:`_sort_entries`
is shared by :meth:`CSRGraph.from_edges` and the streaming builder in
:mod:`repro.graphstore.builder`.

Passes over an existing graph walk its CSR in row-aligned blocks of at
most :data:`BLOCK_ENTRIES` entries (:func:`_row_blocks`), so their
scratch does not grow with the edge count.  :meth:`CSRGraph.permute`
writes the relabelled keys block by block into one int64 array, sorts it
once and decodes it block by block into the int32 ``indices``;
:meth:`CSRGraph.validate` holds one int64 array, the reversed keys.  The
access profile (:mod:`repro.machine.cache`) and the colouring kernel
walk their CSR entries with the same helper and budget, and graph
generation (:mod:`repro.graphstore.builder`) uses the same budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_int_array

__all__ = ["CSRGraph"]

#: CSR entries per block of a pass over every entry: the row-aligned
#: passes here, in the access profile and in the colouring kernel, and
#: the streaming builder's blocks during generation.  A block's int64
#: temporaries take 0.5 MiB each, so such a pass's scratch does not grow
#: with the edge count.  Read at call time.
BLOCK_ENTRIES = 1 << 16


def _row_blocks(indptr: np.ndarray):
    """Row ranges ``(r0, r1)`` of the non-decreasing offsets *indptr*
    holding at most :data:`BLOCK_ENTRIES` entries each; a row longer than
    that is a block of its own."""
    n = len(indptr) - 1
    r0 = 0
    while r0 < n:
        r1 = int(np.searchsorted(indptr, indptr[r0] + BLOCK_ENTRIES,
                                 side="right")) - 1
        r1 = max(r1, r0 + 1)
        yield r0, r1
        r0 = r1


def _sort_entries(rows: np.ndarray, cols: np.ndarray, n: int,
                  dedupe: bool = True) -> np.ndarray:
    """Sort CSR entries by row, then column; return them as int64 keys.

    Entry ``i`` is encoded as ``rows[i] * n + cols[i]`` (``0 <= cols < n``;
    ``n < 2**31``, so the key fits int64), and one in-place sort orders the
    pairs row-major, as a two-key lexicographic sort would.  Equal pairs are
    equal keys, so the result does not depend on the sort's stability.  With
    *dedupe*, repeated pairs are dropped.  Decode with ``key // n`` (row) and
    ``key % n`` (column).
    """
    key = np.multiply(rows, n, dtype=np.int64)
    key += cols
    key.sort()
    if dedupe and key.size > 1:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    return key


@dataclass(frozen=True, eq=False)  # identity semantics: usable as cache key
class CSRGraph:
    """An undirected simple graph in CSR (adjacency-array) form.

    Instances compare and hash by identity (two separately-built graphs
    are distinct cache keys even if structurally equal; use
    :meth:`structurally_equal` for content comparison).

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n_vertices + 1``; the neighbours of
        vertex ``v`` are ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int32`` array of neighbour IDs, sorted within each vertex's
        adjacency list. Each undirected edge appears twice.
    """

    indptr: np.ndarray
    indices: np.ndarray
    name: str = "graph"
    _degrees: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_degrees", np.diff(indptr))
        self.validate()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n_vertices: int, edges, name: str = "graph") -> "CSRGraph":
        """Build from an iterable/array of ``(u, v)`` pairs.

        Self-loops are dropped, duplicates merged, and the graph is
        symmetrised (an edge listed in either direction yields both CSR
        entries).
        """
        if n_vertices < 0:
            raise ValueError(f"n_vertices must be >= 0, got {n_vertices}")
        if n_vertices >= 2 ** 31:
            raise ValueError(f"n_vertices {n_vertices} exceeds int32 range")
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= n_vertices):
            raise ValueError("edge endpoint out of range")
        u, v = edges[:, 0], edges[:, 1]
        keep = u != v
        u, v = u[keep], v[keep]
        # Symmetrise, then sort row-major and remove duplicates.
        key = _sort_entries(np.concatenate([u, v]), np.concatenate([v, u]),
                            n_vertices)
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // n_vertices, minlength=n_vertices),
                  out=indptr[1:])
        key %= n_vertices
        return cls(indptr=indptr, indices=key.astype(np.int32), name=name)

    @classmethod
    def from_validated_arrays(cls, indptr: np.ndarray, indices: np.ndarray,
                              name: str = "graph") -> "CSRGraph":
        """Adopt CSR arrays that already satisfy :meth:`validate`, zero-copy.

        The normal constructor copies into contiguous buffers and runs the
        full O(n + m) validation — both of which defeat lazy memory-mapped
        loading (``repro.graphstore`` maps multi-hundred-MB ``indices``
        sections that must not be paged in up front).  Callers promise the
        arrays are structurally valid (the ``.rgr`` format guarantees this
        at write time and guards integrity with checksums); only O(1)
        anchors are checked here.
        """
        if indptr.dtype != np.int64 or indices.dtype != np.int32:
            raise ValueError(
                f"expected int64 indptr / int32 indices, got "
                f"{indptr.dtype}/{indices.dtype}")
        if indptr.ndim != 1 or indices.ndim != 1 or len(indptr) < 1:
            raise ValueError("indptr/indices must be 1-D with len(indptr) >= 1")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        graph = object.__new__(cls)
        object.__setattr__(graph, "indptr", indptr)
        object.__setattr__(graph, "indices", indices)
        object.__setattr__(graph, "name", name)
        object.__setattr__(graph, "_degrees", np.diff(indptr))
        return graph

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        """Number of *undirected* edges (half the CSR entry count)."""
        return len(self.indices) // 2

    @property
    def n_directed_entries(self) -> int:
        """Number of CSR adjacency entries (``2 * n_edges``)."""
        return len(self.indices)

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degree array (read-only view)."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Δ — the maximum vertex degree (0 for an empty graph)."""
        return int(self._degrees.max()) if self.n_vertices else 0

    @property
    def average_degree(self) -> float:
        """Mean vertex degree."""
        return float(self._degrees.mean()) if self.n_vertices else 0.0

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour IDs of vertex *v* (a zero-copy CSR slice)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge (binary search, adjacency sorted)."""
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < len(nbrs) and nbrs[i] == v)

    def edge_array(self) -> np.ndarray:
        """Return each undirected edge once as an ``(m, 2)`` array, u < v."""
        src = np.repeat(np.arange(self.n_vertices, dtype=np.int64), self._degrees)
        dst = self.indices.astype(np.int64)
        keep = src < dst
        return np.stack([src[keep], dst[keep]], axis=1)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def permute(self, perm, name: str | None = None) -> "CSRGraph":
        """Relabel vertices: new ID of old vertex ``v`` is ``perm[v]``.

        ``perm`` must be a permutation of ``0..n-1``. Adjacency structure is
        preserved; only IDs (hence memory-locality behaviour) change.

        Entry ``(v, w)`` becomes the key ``perm[v] * n + perm[w]``, as
        :func:`_sort_entries` encodes it; the keys are written and decoded
        one row block at a time, so the int64 keys and the int32 result
        are the only arrays of entry length.
        """
        perm = as_int_array(perm, "perm")
        n = self.n_vertices
        if len(perm) != n:
            raise ValueError(f"perm has length {len(perm)}, expected {n}")
        if n and (perm.min() < 0 or perm.max() >= n):
            raise ValueError("perm is not a permutation")
        check = np.zeros(n, dtype=bool)
        check[perm] = True
        if not check.all():
            raise ValueError("perm is not a permutation")
        # New vertex perm[v] has old v's degree, so indptr needs no sort.
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[perm + 1] = self._degrees
        np.cumsum(indptr, out=indptr)
        old_indptr, old_indices = self.indptr, self.indices
        key = np.empty(len(old_indices), dtype=np.int64)
        for r0, r1 in _row_blocks(old_indptr):
            e0, e1 = old_indptr[r0], old_indptr[r1]
            np.multiply(np.repeat(perm[r0:r1], self._degrees[r0:r1]), n,
                        out=key[e0:e1])
            key[e0:e1] += perm.take(old_indices[e0:e1])
        key.sort()
        indices = np.empty(len(key), dtype=np.int32)
        for r0, r1 in _row_blocks(indptr):
            e0, e1 = indptr[r0], indptr[r1]
            np.remainder(key[e0:e1], n, out=indices[e0:e1])
        del key
        return CSRGraph(indptr=indptr, indices=indices,
                        name=name or f"{self.name}-permuted")

    def structurally_equal(self, other: "CSRGraph") -> bool:
        """Content equality: same CSR arrays (names ignored)."""
        return (isinstance(other, CSRGraph)
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def to_scipy(self):
        """Export as a ``scipy.sparse.csr_matrix`` pattern (all ones)."""
        import scipy.sparse as sp

        data = np.ones(len(self.indices), dtype=np.int8)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n_vertices, self.n_vertices))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ValueError` on failure.

        Invariants: monotone ``indptr`` anchored at 0 and ``len(indices)``;
        neighbour IDs in range and sorted per vertex; no self-loops; the
        adjacency is symmetric.
        """
        indptr, indices = self.indptr, self.indices
        if len(indptr) < 1 or indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = self.n_vertices
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("neighbour ID out of range")
        # One pass over row blocks checks self-loops and row order (a row
        # never spans two blocks) and writes the reversed keys
        # ``w * n + v``.  An unsorted row is reported after the pass, so a
        # self-loop in any block is reported first, as symmetry is last.
        unsorted = False
        rev = np.empty(len(indices), dtype=np.int64)
        for r0, r1, src, dst in self._row_block_entries():
            if np.any(src == dst):
                raise ValueError("self-loop present")
            unsorted = unsorted or bool(np.any(
                (src[1:] == src[:-1]) & (dst[1:] <= dst[:-1])))
            block = rev[indptr[r0]:indptr[r1]]
            np.multiply(dst, n, out=block, dtype=np.int64)
            block += src
        if unsorted:
            raise ValueError("adjacency lists must be strictly increasing")
        # Symmetry: the reversed edge set must equal the forward edge set.
        # Rows are strictly increasing (checked above), so the forward keys
        # ``v * n + w`` are already sorted and are built block by block;
        # only the reversed ones need a sort.
        rev.sort()
        for r0, r1, src, dst in self._row_block_entries():
            fwd = np.multiply(src, n)
            fwd += dst
            if not np.array_equal(fwd, rev[indptr[r0]:indptr[r1]]):
                raise ValueError("adjacency is not symmetric")

    def _row_block_entries(self):
        """Per row block ``(r0, r1, src, dst)``: the block's CSR entries
        as int64 owning rows and their int32 neighbour IDs."""
        indptr = self.indptr
        for r0, r1 in _row_blocks(indptr):
            src = np.repeat(np.arange(r0, r1, dtype=np.int64),
                            self._degrees[r0:r1])
            yield r0, r1, src, self.indices[indptr[r0]:indptr[r1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRGraph(name={self.name!r}, n_vertices={self.n_vertices}, "
                f"n_edges={self.n_edges}, max_degree={self.max_degree})")
