"""The ``.rgr`` binary CSR graph format: atomic writes, mmap loads.

Layout (all integers little-endian)::

    offset  size  field
    0       4     magic  b"RGR1"
    4       4     u32 format version (= 1)
    8       4     u32 indptr dtype code  (1 = little-endian int64)
    12      4     u32 indices dtype code (2 = little-endian int32)
    16      8     u64 n_vertices
    24      8     u64 n_indices          (directed CSR entries, 2|E|)
    32      4     u32 name_len           (UTF-8 bytes of the graph name)
    36      4     u32 reserved (= 0)
    40      16    payload digest: sha256(indptr bytes ++ indices bytes)[:16]
    56      8     header digest:  sha256(bytes 0..56)[:8]
    64      -     name bytes, zero-padded to a multiple of 8
    ...           indptr section  ((n_vertices + 1) * 8 bytes)
    ...           indices section (n_indices * 4 bytes)  — ends exactly at EOF

Integrity is layered by cost.  Every load checks the O(1) guards: magic,
header digest, version, dtype codes, and the *exact* file size implied
by the counts — so a truncated file, a foreign file, or a bit-flip
anywhere in the header fails cleanly before any data is touched.  A
bit-flip inside the payload sections is only caught by
:func:`verify_file`, which re-hashes the payload — loads stay zero-copy
(``mmap`` + ``np.frombuffer``; nothing is paged in until a kernel reads
it).  Writes go through a tmp file + ``os.replace`` like every other
persisted artifact in the repo, so a crash mid-write never leaves a
half-written graph under its final name.

Mmap lifetime: the returned arrays hold the ``mmap`` object via their
``.base`` chain, so the mapping (and the file's data blocks, even if the
path is unlinked — POSIX semantics) stays alive exactly as long as the
:class:`~repro.graph.csr.CSRGraph` does.  The file descriptor is closed
immediately after mapping.  Concurrent readers each get an independent
read-only mapping of the same immutable file.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from repro._util import fsync_parent_dir
from repro.graph.csr import CSRGraph

__all__ = ["RGRError", "RGRHeader", "MAGIC", "FORMAT_VERSION", "HEADER_SIZE",
           "save_graph", "load_graph", "read_header", "verify_file"]

MAGIC = b"RGR1"
FORMAT_VERSION = 1

#: dtype codes for the two sections — the only layouts CSRGraph uses.
DTYPE_CODE_INDPTR = 1   # little-endian int64
DTYPE_CODE_INDICES = 2  # little-endian int32

#: magic, version, dtype codes, counts, name_len, reserved, digests.
_HEADER = struct.Struct("<4s3I2Q2I16s8s")
HEADER_SIZE = _HEADER.size
_DIGESTED = HEADER_SIZE - 8  # header digest covers everything before itself

_MAX_NAME_BYTES = 4096
_VERIFY_CHUNK = 1 << 22


class RGRError(ValueError):
    """A structurally invalid, corrupt, or unsupported ``.rgr`` file."""


@dataclass(frozen=True)
class RGRHeader:
    """Parsed + validated header of one ``.rgr`` file."""

    path: str
    version: int
    n_vertices: int
    n_indices: int
    name: str
    payload_digest: bytes
    indptr_offset: int
    indices_offset: int
    file_size: int


def _pad(length: int) -> int:
    """Zero-padding after *length* bytes up to 8-byte alignment."""
    return -length % 8


def _payload_digest(indptr: np.ndarray, indices: np.ndarray) -> bytes:
    digest = hashlib.sha256()
    digest.update(memoryview(indptr))
    digest.update(memoryview(indices))
    return digest.digest()[:16]


def save_graph(path: str | os.PathLike[str], graph: CSRGraph) -> str:
    """Write *graph* to *path* atomically; returns the final path.

    The tmp name carries the PID so two processes racing to build the
    same registry entry each write their own tmp and the last
    ``os.replace`` wins with a complete file either way.  The order is
    that of :func:`repro._util.atomic_write_text`: fsync the tmp file,
    replace, then fsync the parent directory.
    """
    path = os.fspath(path)
    indptr = np.ascontiguousarray(graph.indptr, dtype="<i8")
    indices = np.ascontiguousarray(graph.indices, dtype="<i4")
    name_bytes = graph.name.encode("utf-8")
    if len(name_bytes) > _MAX_NAME_BYTES:
        raise RGRError(f"graph name too long ({len(name_bytes)} bytes)")
    base = _HEADER.pack(MAGIC, FORMAT_VERSION,
                        DTYPE_CODE_INDPTR, DTYPE_CODE_INDICES,
                        graph.n_vertices, len(indices),
                        len(name_bytes), 0,
                        _payload_digest(indptr, indices), b"\0" * 8)
    header = base[:_DIGESTED] + hashlib.sha256(base[:_DIGESTED]).digest()[:8]
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(name_bytes + b"\0" * _pad(len(name_bytes)))
            fh.write(memoryview(indptr))
            fh.write(memoryview(indices))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_parent_dir(path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def read_header(path: str | os.PathLike[str]) -> RGRHeader:
    """Parse and validate the header of *path* (O(1), no payload I/O).

    Raises :class:`RGRError` on bad magic, a header-digest mismatch (any
    bit-flip in the first 64 bytes), an unsupported version or dtype
    code, or a file whose size does not exactly match the counts it
    declares (truncation, trailing garbage).
    """
    path = os.fspath(path)
    try:
        size = os.stat(path).st_size
        with open(path, "rb") as fh:
            raw = fh.read(HEADER_SIZE)
            if len(raw) < HEADER_SIZE:
                raise RGRError(f"{path}: truncated header "
                               f"({len(raw)} < {HEADER_SIZE} bytes)")
            (magic, version, code_indptr, code_indices, n_vertices,
             n_indices, name_len, _reserved, payload_digest,
             header_digest) = _HEADER.unpack(raw)
            if magic != MAGIC:
                raise RGRError(f"{path}: bad magic {magic!r} "
                               f"(not an .rgr file)")
            if hashlib.sha256(raw[:_DIGESTED]).digest()[:8] != header_digest:
                raise RGRError(f"{path}: header checksum mismatch")
            if version != FORMAT_VERSION:
                raise RGRError(f"{path}: unsupported format version "
                               f"{version} (supported: {FORMAT_VERSION})")
            if (code_indptr, code_indices) != (DTYPE_CODE_INDPTR,
                                               DTYPE_CODE_INDICES):
                raise RGRError(f"{path}: unsupported dtype codes "
                               f"({code_indptr}, {code_indices})")
            if name_len > _MAX_NAME_BYTES:
                raise RGRError(f"{path}: name length {name_len} out of range")
            name_bytes = fh.read(name_len)
        if len(name_bytes) < name_len:
            raise RGRError(f"{path}: truncated name section")
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError:
            raise RGRError(f"{path}: graph name is not UTF-8") from None
    except OSError as exc:
        raise RGRError(f"{path}: {exc}") from exc
    indptr_offset = HEADER_SIZE + name_len + _pad(name_len)
    indices_offset = indptr_offset + (n_vertices + 1) * 8
    expected = indices_offset + n_indices * 4
    if size != expected:
        raise RGRError(f"{path}: file size {size} != expected {expected} "
                       f"(truncated or trailing bytes)")
    return RGRHeader(path=path, version=version, n_vertices=n_vertices,
                     n_indices=n_indices, name=name,
                     payload_digest=payload_digest,
                     indptr_offset=indptr_offset,
                     indices_offset=indices_offset, file_size=size)


def load_graph(path: str | os.PathLike[str]) -> CSRGraph:
    """Zero-copy load: mmap the file, wrap the sections as numpy views.

    Only the header guards of :func:`read_header` plus O(1) ``indptr``
    anchors run here — no payload is read until a kernel touches it.
    Use :func:`verify_file` for a full integrity pass.
    """
    header = read_header(path)
    try:
        with open(header.path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise RGRError(f"{header.path}: {exc}") from exc
    indptr = np.frombuffer(mapped, dtype="<i8",
                           count=header.n_vertices + 1,
                           offset=header.indptr_offset)
    indices = np.frombuffer(mapped, dtype="<i4", count=header.n_indices,
                            offset=header.indices_offset)
    if indptr[0] != 0 or indptr[-1] != header.n_indices:
        raise RGRError(f"{header.path}: indptr anchors do not match the "
                       f"header counts")
    return CSRGraph.from_validated_arrays(indptr, indices, name=header.name)


def verify_file(path: str | os.PathLike[str]) -> RGRHeader:
    """Full integrity audit: header guards plus payload re-hash.

    This is the only check that catches a bit-flip *inside* the
    ``indptr``/``indices`` sections; it streams the payload in chunks so
    the audit stays O(chunk) in memory even for multi-GB files.
    """
    header = read_header(path)
    digest = hashlib.sha256()
    try:
        with open(header.path, "rb") as fh:
            fh.seek(header.indptr_offset)
            while True:
                chunk = fh.read(_VERIFY_CHUNK)
                if not chunk:
                    break
                digest.update(chunk)
    except OSError as exc:
        raise RGRError(f"{header.path}: {exc}") from exc
    if digest.digest()[:16] != header.payload_digest:
        raise RGRError(f"{header.path}: payload checksum mismatch")
    return header
