"""Bounded-memory external CSR builder for streaming graph generation.

:meth:`CSRGraph.from_edges` materialises every intermediate at full
size: the ``(m, 2)`` int64 edge array, the symmetrised ``2m`` source and
destination copies, the int64 sort key, the dedupe mask and the decoded
rows — roughly ``45 bytes x 2|E|`` of peak RSS on top of the input and
the final CSR (``tracemalloc``, 2M random edges).  That caps generation
at "laptop scale".  This builder accepts edges in blocks and produces
the *identical* graph (same drop-self-loops / symmetrise / per-row sort
/ dedupe semantics) while holding only O(n_vertices) counters plus
O(block) temporaries in RAM; the bulk data lives in temporary files:

1. **Ingest** — each ``add_edges`` block is symmetrised, appended to a
   spill file as interleaved ``(src, dst)`` int32 pairs, and counted
   into a per-vertex raw-degree array.
2. **Scatter** — raw degrees prefix-sum into provisional row offsets; a
   second pass over the spill scatters every destination into its row's
   slice of a writable scratch memmap (a cursor array tracks fill).
3. **Compact** — rows are processed in bounded chunks: sort + dedupe
   each row (one in-place sort of the int64 key ``row * n + col``, the
   helper :meth:`CSRGraph.from_edges` uses), stream the surviving
   entries to the final indices file, then cumulative-sum the deduped
   degrees into the final ``indptr``.

:meth:`finalize` maps the result read-only and unlinks the backing file
(POSIX keeps the data alive until the mapping drops), so the returned
:class:`~repro.graph.csr.CSRGraph` owns its storage with no path to
clean up and never holds the indices in the Python heap.
"""

from __future__ import annotations

import mmap
import os
import tempfile

import numpy as np
import numpy.typing as npt

from repro.graph import csr
from repro.graph.csr import CSRGraph, _sort_entries

__all__ = ["StreamingCSRBuilder"]


class StreamingCSRBuilder:
    """Accumulate edges block-wise; finalize into a mmap-backed CSR graph.

    Vertex IDs must fit int32 (n < 2**31 — far above the 10⁷ target).
    A builder is single-use: :meth:`finalize` may be called once.
    ``block_edges`` is the directed entries processed per block; it
    defaults to :data:`repro.graph.csr.BLOCK_ENTRIES`, read when the
    builder is made.
    """

    def __init__(self, n_vertices: int, block_edges: int | None = None,
                 workdir: str | None = None):
        if n_vertices < 0:
            raise ValueError(f"n_vertices must be >= 0, got {n_vertices}")
        if n_vertices >= 2 ** 31:
            raise ValueError(f"n_vertices {n_vertices} exceeds int32 range")
        self.n_vertices = int(n_vertices)
        self.block_edges = int(block_edges if block_edges is not None
                               else csr.BLOCK_ENTRIES)
        if self.block_edges < 1:
            raise ValueError(f"block_edges must be >= 1, got {block_edges}")
        self._workdir = workdir
        self._raw_degrees = np.zeros(self.n_vertices, dtype=np.int64)
        self._spill = None  # lazy: empty graphs never touch disk
        self._pending: list[np.ndarray] = []
        self._pending_rows = 0
        self._n_raw = 0
        self._finalized = False

    # ----- ingest ----------------------------------------------------------

    def add_edges(self, u: "npt.ArrayLike", v: "npt.ArrayLike") -> None:
        """Add undirected edges ``{u[i], v[i]}``; self-loops are dropped."""
        if self._finalized:
            raise RuntimeError("builder already finalized")
        src = np.asarray(u, dtype=np.int64).ravel()
        dst = np.asarray(v, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError(
                f"u/v length mismatch: {src.shape} vs {dst.shape}")
        if src.size == 0:
            return
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= self.n_vertices:
            raise ValueError("edge endpoint out of range")
        keep = src != dst
        if not keep.all():
            src, dst = src[keep], dst[keep]
        if src.size == 0:
            return
        both = np.empty((2 * src.size, 2), dtype=np.int32)
        both[:src.size, 0] = src
        both[:src.size, 1] = dst
        both[src.size:, 0] = dst
        both[src.size:, 1] = src
        self._pending.append(both)
        self._pending_rows += len(both)
        if self._pending_rows >= self.block_edges:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        data = (self._pending[0] if len(self._pending) == 1
                else np.concatenate(self._pending))
        self._pending = []
        self._pending_rows = 0
        self._raw_degrees += np.bincount(data[:, 0],
                                         minlength=self.n_vertices)
        if self._spill is None:
            self._spill = tempfile.TemporaryFile(dir=self._workdir)
        self._spill.write(memoryview(data))
        self._n_raw += len(data)

    # ----- finalize --------------------------------------------------------

    def finalize(self, name: str = "graph") -> CSRGraph:
        """Scatter, sort, dedupe; return the finished mmap-backed graph."""
        if self._finalized:
            raise RuntimeError("builder already finalized")
        self._flush()
        self._finalized = True
        n = self.n_vertices
        raw_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._raw_degrees, out=raw_offsets[1:])
        try:
            scratch = self._scatter(raw_offsets)
            try:
                indptr, indices = self._compact(raw_offsets, scratch)
            finally:
                if scratch is not None:
                    base = scratch.base
                    del scratch
                    if isinstance(base, mmap.mmap):
                        base.close()
        finally:
            if self._spill is not None:
                self._spill.close()
                self._spill = None
            self._raw_degrees = np.zeros(0, dtype=np.int64)
        return CSRGraph.from_validated_arrays(indptr, indices, name=name)

    def _scatter(self, raw_offsets: np.ndarray) -> np.ndarray | None:
        """Pass 2: place every spilled entry into its row's scratch slice."""
        total = self._n_raw
        if total == 0:
            return None
        assert self._spill is not None
        fd, path = tempfile.mkstemp(dir=self._workdir, suffix=".scatter")
        try:
            os.ftruncate(fd, total * 4)
            mapped = mmap.mmap(fd, total * 4, access=mmap.ACCESS_WRITE)
        finally:
            os.close(fd)
            os.unlink(path)  # mapping keeps the blocks alive
        scratch = np.frombuffer(mapped, dtype=np.int32, count=total)
        # np.frombuffer of a writable mmap still yields a read-only view.
        scratch.flags.writeable = True
        cursor = raw_offsets[:-1].copy()
        self._spill.seek(0)
        chunk_bytes = self.block_edges * 8  # one (src, dst) int32 pair each
        while True:
            buf = self._spill.read(chunk_bytes)
            if not buf:
                break
            pairs = np.frombuffer(buf, dtype=np.int32).reshape(-1, 2)
            src = pairs[:, 0]
            # Group the block by row.  The order within a row is
            # irrelevant (``_compact`` sorts every row), so any sort will
            # do; the k-th entry of a row's run lands at cursor + k.  Run
            # starts come from the sorted block, so a block costs
            # O(block), not O(n_vertices).
            order = np.argsort(src)
            src_sorted = src[order]
            k = len(src_sorted)
            new_run = np.empty(k, dtype=bool)
            new_run[0] = True
            np.not_equal(src_sorted[1:], src_sorted[:-1], out=new_run[1:])
            starts = np.flatnonzero(new_run)
            counts = np.diff(starts, append=k)
            rows = src_sorted[starts]
            slot = np.repeat(cursor[rows] - starts, counts)
            slot += np.arange(k, dtype=np.int64)
            scratch[slot] = pairs[order, 1]
            cursor[rows] += counts
        return scratch

    def _compact(self, raw_offsets: np.ndarray,
                 scratch: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Pass 3: per-row sort + dedupe, streamed to the final file."""
        n = self.n_vertices
        degrees = np.zeros(n, dtype=np.int64)
        fd, path = tempfile.mkstemp(dir=self._workdir, suffix=".indices")
        out = os.fdopen(fd, "wb")
        try:
            if scratch is not None:
                v0 = 0
                while v0 < n:
                    # Advance until the chunk holds ~block raw entries
                    # (always at least one row, so a single huge row still
                    # fits — bounded by the max raw degree, not |E|).
                    target = raw_offsets[v0] + self.block_edges
                    v1 = int(np.searchsorted(raw_offsets, target,
                                             side="left"))
                    v1 = max(v0 + 1, min(v1, n))
                    seg = scratch[raw_offsets[v0]:raw_offsets[v1]]
                    if seg.size:
                        rows = np.repeat(
                            np.arange(v1 - v0, dtype=np.int64),
                            np.diff(raw_offsets[v0:v1 + 1]))
                        key = _sort_entries(rows, seg, n)
                        degrees[v0:v1] = np.bincount(key // n,
                                                     minlength=v1 - v0)
                        key %= n
                        out.write(memoryview(key.astype(np.int32)))
                    v0 = v1
            out.flush()
            size = out.tell()
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            assert indptr[-1] * 4 == size
            if size == 0:
                indices = np.empty(0, dtype=np.int32)
            else:
                mapped = mmap.mmap(out.fileno(), size,
                                   access=mmap.ACCESS_READ)
                indices = np.frombuffer(mapped, dtype=np.int32,
                                        count=int(indptr[-1]))
        finally:
            out.close()
            os.unlink(path)
        return indptr, indices
