"""Named graph registry: build once, then mmap forever.

``GraphRegistry`` maps registry names (:mod:`repro.graphstore.names`)
to ``.rgr`` files under ``<root>/objects/``, keyed by the generator
parameter fingerprint::

    <root>/objects/<slug>-<fingerprint>.rgr     e.g. objects/tube-1m-ab12....rgr
    <root>/quarantine/                          corrupt files, kept as evidence

``get(name)`` is the hot path: an in-process handle cache first, then a
zero-copy mmap load, and only on a true miss a streaming build + atomic
save.  A file that fails its load-time guards is moved to
``quarantine/`` and rebuilt — same semantics as the campaign
:class:`~repro.campaign.store.ResultStore`, which this registry's
``ls``/``verify``/``gc`` maintenance surface mirrors.  Hits and misses
are counted on ``stats`` and, when telemetry is collecting, on the
``graphstore.hits`` / ``graphstore.misses`` obs counters.

Library code only uses the registry when ``REPRO_GRAPH_DIR`` is set
(:func:`registry_from_env` returns None otherwise), so plain unit-test
runs never touch ``~/.cache``; the ``repro graphs`` CLI defaults to
:data:`DEFAULT_GRAPH_DIR`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro._util import env_str
from repro.graph.csr import CSRGraph
from repro.graphstore.format import (RGRError, load_graph, read_header,
                                     save_graph, verify_file)
from repro.graphstore.names import GraphSpec, parse_graph_name
from repro.obs import metrics as _metrics

__all__ = ["GraphRegistry", "GraphStoreStats", "GraphEntry",
           "GraphVerifyReport", "DEFAULT_GRAPH_DIR", "default_graph_dir",
           "registry_from_env"]

#: CLI fallback when ``REPRO_GRAPH_DIR`` names no registry root.
DEFAULT_GRAPH_DIR = "~/.cache/repro/graphs"


def default_graph_dir() -> str | None:
    """Registry root from ``REPRO_GRAPH_DIR`` (None = registry disabled)."""
    return env_str("REPRO_GRAPH_DIR")


_ACTIVE: dict[str, "GraphRegistry"] = {}


def registry_from_env() -> "GraphRegistry | None":
    """The process-wide registry for ``$REPRO_GRAPH_DIR``, or None.

    One instance per root, so every caller in the process (suite,
    campaign workers) shares the same mmap handles and hit/miss stats.
    """
    root = default_graph_dir()
    if root is None:
        return None
    registry = _ACTIVE.get(root)
    if registry is None:
        registry = _ACTIVE[root] = GraphRegistry(root)
    return registry


@dataclass
class GraphStoreStats:
    """Hit/miss accounting for one :class:`GraphRegistry` instance."""

    hits: int = 0
    misses: int = 0
    builds: int = 0
    corrupt: int = 0
    quarantined: int = 0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "builds": self.builds, "corrupt": self.corrupt,
                "quarantined": self.quarantined}


@dataclass
class GraphEntry:
    """One ``.rgr`` file's metadata (``ls``/``gc`` surface)."""

    name: str
    path: str
    fingerprint: str
    n_vertices: int
    n_directed_entries: int
    size_bytes: int
    age_seconds: float
    current: bool = field(default=False)


@dataclass
class GraphVerifyReport:
    """Outcome of one :meth:`GraphRegistry.verify` audit."""

    checked: int = 0
    ok: int = 0
    corrupt: list = field(default_factory=list)      # paths still in place
    quarantined: list = field(default_factory=list)  # paths moved away

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.quarantined


class GraphRegistry:
    """Build-once-then-mmap store of named graphs under *root*."""

    def __init__(self, root: str | os.PathLike | None = None):
        root = root or default_graph_dir() or DEFAULT_GRAPH_DIR
        self.root = os.path.expanduser(os.fspath(root))
        self.stats = GraphStoreStats()
        self._graphs: dict[str, CSRGraph] = {}

    # ----- keys and paths --------------------------------------------------

    def path_for(self, name: str) -> str:
        """On-disk path the named graph maps to (whether or not built)."""
        return self._path(parse_graph_name(name))

    def _path(self, spec: GraphSpec) -> str:
        slug = spec.name.replace(":", "-").replace("/", "-")
        return os.path.join(self.root, "objects",
                            f"{slug}-{spec.fingerprint()}.rgr")

    def _quarantine(self, path: str) -> str | None:
        """Move a corrupt file out of the reachable tree; returns the
        quarantine path (None when the move itself failed)."""
        target = os.path.join(self.root, "quarantine",
                              os.path.basename(path))
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(path, target)
        except OSError:
            return None
        self.stats.quarantined += 1
        return target

    def _count(self, which: str) -> None:
        registry = _metrics.active()
        if registry is not None:
            registry.incr(f"graphstore.{which}")

    # ----- hot path --------------------------------------------------------

    def get(self, name: str) -> CSRGraph:
        """The named graph: cached handle, mmap load, or build-and-save.

        A file that fails its load-time integrity guards is quarantined
        and the graph rebuilt — a corrupt entry can cost a rebuild but
        never poisons a result.
        """
        spec = parse_graph_name(name)
        cached = self._graphs.get(spec.name)
        if cached is not None:
            self.stats.hits += 1
            self._count("hits")
            return cached
        path = self._path(spec)
        graph: CSRGraph | None = None
        hit = False
        if os.path.exists(path):
            try:
                graph = load_graph(path)
                hit = True
            except RGRError:
                self.stats.corrupt += 1
                self._quarantine(path)
        if graph is None:
            graph = self._build_and_save(spec, path)
        self._graphs[spec.name] = graph
        if hit:
            self.stats.hits += 1
            self._count("hits")
        else:
            self.stats.misses += 1
            self._count("misses")
        return graph

    def _build_and_save(self, spec: GraphSpec, path: str) -> CSRGraph:
        """Streaming-build *spec*, persist it, and return the mmap copy.

        Returning the freshly-loaded mmap (not the builder's arrays)
        releases the builder's unlinked scratch file immediately and
        gives cold and warm callers identical storage behaviour.
        """
        self.stats.builds += 1
        built = spec.build()
        save_graph(path, built)
        del built
        return load_graph(path)

    def contains(self, name: str) -> bool:
        """Whether a current-fingerprint file exists (stats untouched)."""
        return os.path.exists(self.path_for(name))

    def build(self, name: str, force: bool = False) -> tuple[str, bool]:
        """Ensure the named graph exists on disk; ``(path, built)``.

        With *force* the graph is regenerated even when a current file
        exists (e.g. after quarantining by hand).
        """
        spec = parse_graph_name(name)
        path = self._path(spec)
        if not force and os.path.exists(path):
            try:
                read_header(path)
                return path, False
            except RGRError:
                self.stats.corrupt += 1
                self._quarantine(path)
        graph = self._build_and_save(spec, path)
        self._graphs[spec.name] = graph
        return path, True

    # ----- maintenance surface (ls / verify / gc / clear) ------------------

    def _object_paths(self) -> list[str]:
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return []
        return [os.path.join(objects, fn)
                for fn in sorted(os.listdir(objects))
                if fn.endswith(".rgr")]

    def entries(self) -> list[GraphEntry]:
        """Every readable graph file, sorted by path.

        ``current`` means the file's fingerprint (from its filename)
        matches what the registry name in its header hashes to *today* —
        a stale entry is unreachable by any ``get`` and eligible for
        :meth:`gc`.
        """
        out = []
        now = time.time()
        for path in self._object_paths():
            try:
                header = read_header(path)
            except RGRError:
                continue
            stem = os.path.basename(path)[:-len(".rgr")]
            fingerprint = stem.rsplit("-", 1)[-1]
            try:
                current = (parse_graph_name(header.name).fingerprint()
                           == fingerprint)
            except ValueError:
                current = False
            stat = os.stat(path)
            out.append(GraphEntry(
                name=header.name, path=path, fingerprint=fingerprint,
                n_vertices=header.n_vertices,
                n_directed_entries=header.n_indices,
                size_bytes=stat.st_size,
                age_seconds=max(0.0, now - stat.st_mtime),
                current=current))
        return out

    def verify(self, repair: bool = False) -> GraphVerifyReport:
        """Audit every file: header guards plus full payload re-hash.

        This is the pass that catches payload bit-rot (loads only check
        the O(1) header guards).  With *repair* corrupt files are moved
        to ``quarantine/``; without it they are only reported.
        """
        report = GraphVerifyReport()
        for path in self._object_paths():
            report.checked += 1
            try:
                verify_file(path)
                report.ok += 1
            except RGRError:
                self.stats.corrupt += 1
                if repair and self._quarantine(path) is not None:
                    report.quarantined.append(path)
                else:
                    report.corrupt.append(path)
        return report

    def _remove_object(self, path: str) -> None:
        """Delete one graph file — never anything outside ``objects/``
        (quarantined files are evidence and are kept)."""
        objects = os.path.realpath(os.path.join(self.root, "objects"))
        if os.path.commonpath([objects,
                               os.path.realpath(path)]) != objects:
            raise ValueError(f"refusing to delete {path!r}: outside the "
                             f"registry's objects/ tree")
        os.remove(path)

    def gc(self) -> tuple[int, int]:
        """Remove stale-fingerprint graph files; returns ``(removed, kept)``."""
        removed = kept = 0
        for entry in self.entries():
            if entry.current:
                kept += 1
            else:
                self._remove_object(entry.path)
                removed += 1
        return removed, kept

    def clear(self) -> int:
        """Remove every graph file (quarantine/ survives, like the
        campaign store's ``cache clear``)."""
        removed = 0
        for path in self._object_paths():
            self._remove_object(path)
            removed += 1
        self._graphs.clear()
        return removed

    def __len__(self) -> int:
        return len(self.entries())
