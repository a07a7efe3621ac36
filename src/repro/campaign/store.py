"""Content-addressed result store for campaign cells.

A cell's store key is the SHA-256 of its canonical JSON spec combined
with the current **code fingerprint** — a hash over every ``*.py`` file
of the installed ``repro`` package plus the package version.  Editing
any simulator source changes the fingerprint, so stale results are never
returned; they linger as unreachable objects until ``gc`` removes them.

Layout (git-style fan-out under the root, default ``~/.cache/repro`` or
``$REPRO_STORE``)::

    <root>/objects/<key[:2]>/<key[2:]>.json

Each object file holds ``{"spec": ..., "value": ..., "fingerprint": ...,
"checksum": ...}`` and is written atomically
(:func:`repro._util.atomic_write_text`), so a killed run never leaves a
half-written entry.  The ``checksum`` — a content hash over the rest of
the record — is verified on every read: an object that was truncated or
bit-flipped *after* a successful write (disk fault, concurrent
corruption, manual tampering) is detected, **moved to
``<root>/quarantine/``** for post-mortem and treated as a miss, so the
cell is recomputed instead of poisoning a report.  ``repro campaign
cache verify [--repair]`` audits the whole store the same way.
Non-finite values (failed cells) are deliberately *not* stored — a
failure should be retried on the next run, not cached.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

from repro._util import (atomic_write_text, canonical_json,
                         content_checksum, env_str, sha256_hex)

__all__ = ["ResultStore", "StoreStats", "VerifyReport", "code_fingerprint",
           "default_store_root", "DEFAULT_STORE_ROOT"]

#: Fallback store location when neither ``--store`` nor ``REPRO_STORE``
#: names one.
DEFAULT_STORE_ROOT = "~/.cache/repro"

_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Hash of the repro package's source tree + version (memoised).

    16 hex chars of SHA-256 over every ``*.py`` file under the package
    directory (sorted relative paths, path and content both hashed) and
    ``repro.__version__`` — the cache-invalidation half of every store
    key.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro
        pkg_dir = os.path.dirname(os.path.abspath(repro.__file__))
        parts = [f"version={repro.__version__}"]
        sources = []
        for dirpath, dirnames, filenames in os.walk(pkg_dir):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for fn in filenames:
                if fn.endswith(".py"):
                    full = os.path.join(dirpath, fn)
                    sources.append((os.path.relpath(full, pkg_dir), full))
        for rel, full in sorted(sources):
            # Hash the file bytes directly: decoding as UTF-8 first
            # crashed the whole store on any non-UTF-8 source file.
            with open(full, "rb") as fh:
                parts.append(f"{rel}:{sha256_hex(fh.read())}")
        _FINGERPRINT = sha256_hex("\n".join(parts))[:16]
    return _FINGERPRINT


def default_store_root() -> str | None:
    """Store root from ``REPRO_STORE`` (None = store disabled)."""
    return env_str("REPRO_STORE")


@dataclass
class StoreStats:
    """Hit/miss accounting for one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    quarantined: int = 0
    skipped_nonfinite: int = 0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts,
                "corrupt": self.corrupt, "quarantined": self.quarantined,
                "skipped_nonfinite": self.skipped_nonfinite}


@dataclass
class VerifyReport:
    """Outcome of one :meth:`ResultStore.verify` audit."""

    checked: int = 0
    ok: int = 0
    corrupt: list = field(default_factory=list)      # paths still in place
    quarantined: list = field(default_factory=list)  # paths moved away

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.quarantined


@dataclass
class StoreEntry:
    """One object file's metadata (``ls``/``gc`` surface)."""

    key: str
    path: str
    spec: dict
    value: float
    fingerprint: str
    age_seconds: float
    size_bytes: int
    current: bool = field(default=False)


class ResultStore:
    """Content-addressed cache of ``spec -> simulated cycles``.

    *root* defaults to ``$REPRO_STORE`` or ``~/.cache/repro``;
    *fingerprint* defaults to the live :func:`code_fingerprint` (tests
    pin it to simulate code changes).
    """

    def __init__(self, root: str | os.PathLike | None = None,
                 fingerprint: str | None = None):
        root = root or default_store_root() or DEFAULT_STORE_ROOT
        self.root = os.path.expanduser(os.fspath(root))
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = StoreStats()

    # ----- keys and paths --------------------------------------------------

    def key(self, spec: dict) -> str:
        """SHA-256 key of *spec* under the store's code fingerprint."""
        return sha256_hex(canonical_json(
            {"spec": spec, "code": self.fingerprint}))

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key[2:]}.json")

    def _quarantine_path(self, path: str) -> str:
        prefix = os.path.basename(os.path.dirname(path))
        return os.path.join(self.root, "quarantine",
                            prefix + os.path.basename(path))

    # ----- read/write ------------------------------------------------------

    def _quarantine(self, path: str) -> str | None:
        """Move a corrupt object out of the reachable tree; returns the
        quarantine path (None when the move itself failed)."""
        target = self._quarantine_path(path)
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(path, target)
        except OSError:
            return None
        self.stats.quarantined += 1
        return target

    def _read(self, path: str, quarantine: bool = False) -> dict | None:
        """Parse + integrity-check one object file.

        A structurally invalid object or a checksum mismatch counts as
        corrupt; with *quarantine* the file is also moved to
        ``<root>/quarantine/`` so the next run recomputes the cell
        instead of tripping over the same bad bytes.
        """
        import json
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict) or "value" not in data:
                raise ValueError("not a store object")
            recorded = data.pop("checksum", None)
            if recorded != content_checksum(data):
                raise ValueError("checksum mismatch")
            return data
        except OSError:
            return None
        except ValueError:
            self.stats.corrupt += 1
            if quarantine:
                self._quarantine(path)
            return None

    def contains(self, spec: dict) -> bool:
        """Whether a current-fingerprint result exists (stats untouched)."""
        return self._read(self._path(self.key(spec))) is not None

    def get(self, spec: dict) -> float | None:
        """Cached value for *spec*, or None on a miss.

        A corrupt object is quarantined and reported as a miss — the
        caller recomputes the cell and the damaged bytes are preserved
        under ``<root>/quarantine/`` for inspection.
        """
        data = self._read(self._path(self.key(spec)), quarantine=True)
        if data is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return float(data["value"])

    def put(self, spec: dict, value: float) -> str | None:
        """Store *value* for *spec*; returns the key (None if skipped).

        Non-finite values are not cached — a NaN cell means "failed
        after retries" and must be recomputed next run.
        """
        value = float(value)
        if not math.isfinite(value):
            self.stats.skipped_nonfinite += 1
            return None
        key = self.key(spec)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        record = {"spec": spec, "value": value,
                  "fingerprint": self.fingerprint}
        record["checksum"] = content_checksum(
            {"spec": spec, "value": value, "fingerprint": self.fingerprint})
        atomic_write_text(path, canonical_json(record))
        self.stats.puts += 1
        return key

    # ----- maintenance surface (ls / gc / clear / verify) ------------------

    def _object_paths(self) -> list[str]:
        """Every object file under the store, readable or not, sorted."""
        out = []
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return out
        for prefix in sorted(os.listdir(objects)):
            subdir = os.path.join(objects, prefix)
            if not os.path.isdir(subdir):
                continue
            out.extend(os.path.join(subdir, fn)
                       for fn in sorted(os.listdir(subdir))
                       if fn.endswith(".json"))
        return out

    def verify(self, repair: bool = False) -> VerifyReport:
        """Audit every object's integrity checksum.

        Unlike :meth:`entries` this walks *raw files*, so objects too
        damaged to parse are found too.  With *repair* each corrupt
        object is moved to ``<root>/quarantine/``; without it they are
        only reported (the store is left untouched).
        """
        report = VerifyReport()
        for path in self._object_paths():
            report.checked += 1
            if self._read(path) is not None:
                report.ok += 1
                continue
            if repair:
                target = self._quarantine(path)
                if target is not None:
                    report.quarantined.append(path)
                    continue
            report.corrupt.append(path)
        return report

    def entries(self) -> list[StoreEntry]:
        """Every readable object in the store, sorted by key."""
        out = []
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return out
        now = time.time()
        for prefix in sorted(os.listdir(objects)):
            subdir = os.path.join(objects, prefix)
            if not os.path.isdir(subdir):
                continue
            for fn in sorted(os.listdir(subdir)):
                if not fn.endswith(".json"):
                    continue
                path = os.path.join(subdir, fn)
                data = self._read(path)
                if data is None:
                    continue
                st = os.stat(path)
                fp = data.get("fingerprint", "")
                out.append(StoreEntry(
                    key=prefix + fn[:-len(".json")], path=path,
                    spec=data.get("spec", {}), value=float(data["value"]),
                    fingerprint=fp, age_seconds=max(0.0, now - st.st_mtime),
                    size_bytes=st.st_size, current=fp == self.fingerprint))
        return out

    def _remove_object(self, path: str) -> None:
        """Delete one *object* file — and nothing else.

        ``gc``/``clear`` are the only deletion paths in the store, and
        they must never reach outside ``<root>/objects/``: quarantined
        files are evidence (``verify --repair`` put them aside precisely
        so a human can look), and stores written by older versions still
        hold a ``<root>/journals/`` tree that is not the store's to
        delete.  The walk in :meth:`entries` only visits ``objects/``,
        but that is an implementation detail; this guard makes the
        guarantee structural.
        """
        objects = os.path.realpath(os.path.join(self.root, "objects"))
        if os.path.commonpath([objects,
                               os.path.realpath(path)]) != objects:
            raise ValueError(
                f"refusing to delete {path!r}: outside the store's "
                f"objects/ tree (quarantine/ and other trees are "
                f"never garbage-collected)")
        os.remove(path)

    def gc(self, max_age_days: float | None = None,
           stale_only: bool = False) -> tuple[int, int]:
        """Remove unreachable objects; returns ``(removed, kept)``.

        An object is removed when its fingerprint is stale (written by a
        different code version — unreachable by any current key) or,
        with *max_age_days*, when it is older than that.  *stale_only*
        restricts removal to fingerprint-stale entries even when an age
        limit is given.

        Only files under ``<root>/objects/`` are ever deleted:
        ``<root>/quarantine/`` and any other tree under the root (such
        as an older version's ``journals/``) are never visited or
        touched.
        """
        removed = kept = 0
        for entry in self.entries():
            stale = not entry.current
            too_old = (max_age_days is not None
                       and entry.age_seconds > max_age_days * 86400.0)
            if stale or (too_old and not stale_only):
                self._remove_object(entry.path)
                removed += 1
            else:
                kept += 1
        return removed, kept

    def clear(self) -> int:
        """Remove every object (the root directory itself is kept).

        Like :meth:`gc`, this only deletes under ``<root>/objects/`` —
        quarantined files and anything outside ``objects/`` survive a
        ``cache clear``.
        """
        removed = 0
        for entry in self.entries():
            self._remove_object(entry.path)
            removed += 1
        return removed

    def __len__(self) -> int:
        return len(self.entries())
