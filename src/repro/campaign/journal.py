"""Crash-safe campaign journal: an append-only, checksummed WAL.

Every ``repro campaign run`` writes a write-ahead log of its cell
lifecycle to ``<store root>/journals/<run-id>/journal.jsonl``: one JSON
record per line, each carrying a ``crc`` content checksum over the rest
of the record.  The journal is *append-only* and flushed+fsynced per
record, so a campaign process killed with ``kill -9`` mid-run leaves at
worst one truncated final line — which replay detects and drops — and
``repro campaign resume <run-id>`` continues with **zero recomputation**
of completed cells.

Record stream::

    {"type": "begin", "run": ..., "campaign": ..., "spec": {...},
     "fingerprint": ..., "crc": ...}
    {"type": "submitted", "cell": "<cell-id>", "crc": ...}
    {"type": "completed", "cell": "<cell-id>", "value": 123.0, "crc": ...}
    {"type": "failed", "cell": "<cell-id>", "error": "...", "crc": ...}
    {"type": "end", "interrupted": false, "crc": ...}

The campaign service (:mod:`repro.serve`) journals *jobs* through the
same WAL — its journal is one long-lived file under
``<store>/journals/serve/`` that accumulates across server restarts::

    {"type": "job", "job": "<job-id>", "campaign": ..., "spec": {...},
     "client": ..., "priority": 0, "crc": ...}
    {"type": "job-end", "job": "<job-id>", "crc": ...}

A job record without a matching ``job-end`` is an accepted job the
server never finished — replay surfaces it in
:attr:`JournalState.jobs` minus :attr:`JournalState.ended_jobs`, and a
restarted server requeues exactly those.

Replay rules: a record whose checksum does not match is *corrupt*; as
the final line it is a crash artifact and is ignored, anywhere earlier
it poisons the tail, so replay stops there and resumes conservatively
(later completions are recomputed rather than trusted).  Unlike the
result store, the journal records failures and submission order too,
and it is keyed by run, not by cell content.

Run IDs are deterministic, entropy-free and collision-free per store
root: ``<spec-hash[:8]>-<seq>`` where the sequence number is one past
the highest existing journal for any spec.
"""

from __future__ import annotations

import json
import os
import re

from repro._util import canonical_json, content_checksum

__all__ = ["Journal", "JournalState", "JournalError", "encode_record",
           "journal_dir", "list_runs", "new_run_id", "JOURNAL_FILENAME"]

JOURNAL_FILENAME = "journal.jsonl"

#: ``<8 hex of the spec hash>-<decimal sequence>``.
_RUN_ID_RE = re.compile(r"^([0-9a-f]{8})-(\d+)$")


class JournalError(ValueError):
    """A structurally invalid journal (bad begin record, wrong run...)."""


def encode_record(record: dict) -> str:
    """One journal line for *record*: crc appended, newline-terminated.

    The single encoding every journal write goes through — replay's
    :meth:`Journal._verify` is its inverse.
    """
    return canonical_json({**record, "crc": content_checksum(record)}) + "\n"


def journal_dir(store_root: str, run_id: str | None = None) -> str:
    """The journals directory under *store_root* (or one run's dir)."""
    base = os.path.join(os.path.expanduser(os.fspath(store_root)),
                        "journals")
    return os.path.join(base, run_id) if run_id else base


def list_runs(store_root: str) -> list[str]:
    """Run IDs with a journal file under *store_root*, sorted."""
    base = journal_dir(store_root)
    if not os.path.isdir(base):
        return []
    return sorted(
        name for name in os.listdir(base)
        if _RUN_ID_RE.match(name)
        and os.path.isfile(os.path.join(base, name, JOURNAL_FILENAME)))


def new_run_id(store_root: str, spec_dict: dict) -> str:
    """Allocate the next run ID for *spec_dict* under *store_root*.

    ``<spec-hash[:8]>-<seq>`` — the hash half groups runs of the same
    campaign, the sequence half (global across specs, monotonically
    increasing) keeps IDs unique without reading any entropy source.
    """
    from repro._util import sha256_hex
    prefix = sha256_hex(canonical_json(spec_dict))[:8]
    top = 0
    for run in list_runs(store_root):
        match = _RUN_ID_RE.match(run)
        if match:
            top = max(top, int(match.group(2)))
    return f"{prefix}-{top + 1}"


class JournalState:
    """Everything replay recovered from a journal file."""

    def __init__(self) -> None:
        self.run_id: str | None = None
        self.campaign: str | None = None
        self.spec: dict | None = None
        self.fingerprint: str | None = None
        self.completed: dict[str, float] = {}   # cell-id -> value
        self.failed: dict[str, str] = {}        # cell-id -> error
        self.submitted: list[str] = []          # submission order
        self.jobs: dict[str, dict] = {}         # job-id -> job record
        self.ended_jobs: set[str] = set()       # jobs with a job-end record
        self.ended: bool = False
        self.records: int = 0                   # valid records replayed
        self.dropped_tail: bool = False         # truncated last line
        self.corrupt_at: int | None = None      # 1-based bad mid-file line
        self.valid_bytes: int = 0               # end of last replayed record


class Journal:
    """One run's append-only journal (create for a new run, open to
    resume).  Appends are atomic at the record level: each line is
    written, flushed and fsynced before :meth:`append` returns."""

    def __init__(self, directory: str | os.PathLike[str]):
        self.directory = os.fspath(directory)
        self.path = os.path.join(self.directory, JOURNAL_FILENAME)
        self._fh = None

    # ----- construction ----------------------------------------------------

    @classmethod
    def create(cls, directory: str | os.PathLike[str], *, run_id: str,
               campaign: str, spec: dict, fingerprint: str) -> "Journal":
        """Start a fresh journal, writing the ``begin`` record."""
        journal = cls(directory)
        if os.path.exists(journal.path):
            raise JournalError(f"journal already exists: {journal.path}")
        os.makedirs(journal.directory, exist_ok=True)
        journal.append({"type": "begin", "run": run_id,
                        "campaign": campaign, "spec": spec,
                        "fingerprint": fingerprint})
        return journal

    @classmethod
    def open(cls, directory: str | os.PathLike[str]) -> "Journal":
        """Open an existing journal for appending (resume)."""
        journal = cls(directory)
        if not os.path.isfile(journal.path):
            raise JournalError(f"no journal at {journal.path}")
        return journal

    # ----- appending -------------------------------------------------------

    def append(self, record: dict) -> None:
        """Append one record (the ``crc`` field is added here).

        Resume paths that append to a journal which may carry a torn
        tail (a partial line from a ``kill -9`` mid-append) must call
        :meth:`repair` first — appending after partial bytes would merge
        the two into one mid-file corrupt line, which poisons every
        later record on the *next* replay.
        """
        line = encode_record(record)
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def submitted(self, cell_id: str) -> None:
        self.append({"type": "submitted", "cell": cell_id})

    def completed(self, cell_id: str, value: float) -> None:
        self.append({"type": "completed", "cell": cell_id,
                     "value": float(value)})

    def failed(self, cell_id: str, error: str) -> None:
        self.append({"type": "failed", "cell": cell_id,
                     "error": str(error)})

    def end(self, interrupted: bool = False) -> None:
        self.append({"type": "end", "interrupted": bool(interrupted)})

    def job(self, job_id: str, *, campaign: str, spec: dict, client: str,
            priority: int = 0) -> None:
        """Record an accepted service job (see the module docstring)."""
        self.append({"type": "job", "job": job_id, "campaign": campaign,
                     "spec": spec, "client": client,
                     "priority": int(priority)})

    def job_end(self, job_id: str) -> None:
        """Record a service job whose every cell has settled."""
        self.append({"type": "job-end", "job": job_id})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ----- replay ----------------------------------------------------------

    def replay(self) -> JournalState:
        """Recover the run's state from the journal file.

        Corrupt/truncated final lines are dropped (the crash artifact a
        WAL exists to tolerate); a corrupt record anywhere earlier stops
        replay at that point, so everything after it is conservatively
        recomputed.  A final line without its terminating newline is
        treated as a torn tail even when its content verifies: the
        append was not known to finish, and trusting it would let the
        next append land mid-line.  :attr:`JournalState.valid_bytes`
        marks the byte just past the last replayed record —
        :meth:`repair` truncates everything after it.
        """
        state = JournalState()
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise JournalError(f"cannot read journal: {exc}") from None
        lines = data.split(b"\n")
        terminated = True
        if lines and lines[-1] == b"":
            lines.pop()
        else:
            terminated = False      # no final newline: torn tail
        offset = 0
        for index, raw in enumerate(lines):
            last = index == len(lines) - 1
            record = None
            if terminated or not last:
                record = self._verify(raw.decode("utf-8",
                                                 errors="replace"))
            if record is None:
                if last:
                    state.dropped_tail = True
                else:
                    state.corrupt_at = index + 1
                break
            self._apply(state, record, index)
            state.records += 1
            offset += len(raw) + 1
            state.valid_bytes = offset
        if state.spec is None:
            raise JournalError(
                f"{self.path}: no valid begin record — not a journal or "
                f"corrupted beyond recovery")
        return state

    def repair(self, state: JournalState | None = None) -> bool:
        """Truncate bytes after the last replayed record; True if cut.

        Run this before the first :meth:`append` on a reopened journal.
        A ``kill -9`` mid-append leaves a partial final line; replay
        drops it, but a bare append would write directly after the
        partial bytes, merging both into one mid-file corrupt line —
        and a *mid-file* corrupt line poisons every record behind it on
        the following replay.  Truncating to
        :attr:`JournalState.valid_bytes` (which also discards anything
        behind a mid-file corruption — those records were already being
        ignored) restores the invariant that the file ends exactly at a
        record boundary.
        """
        if state is None:
            state = self.replay()
        if self._fh is not None:
            raise JournalError(
                "repair() must run before the first append")
        try:
            size = os.path.getsize(self.path)
        except OSError as exc:
            raise JournalError(f"cannot stat journal: {exc}") from None
        if size <= state.valid_bytes:
            return False
        os.truncate(self.path, state.valid_bytes)
        return True

    @staticmethod
    def _verify(line: str) -> dict | None:
        """Parse + checksum-verify one line (None = corrupt)."""
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict) or "crc" not in record:
            return None
        crc = record.pop("crc")
        if crc != content_checksum(record):
            return None
        return record

    @staticmethod
    def _apply(state: JournalState, record: dict, index: int) -> None:
        kind = record.get("type")
        if kind == "begin":
            if index != 0:
                raise JournalError("begin record not at line 1")
            state.run_id = record.get("run")
            state.campaign = record.get("campaign")
            state.spec = record.get("spec")
            state.fingerprint = record.get("fingerprint")
        elif kind == "submitted":
            state.submitted.append(record["cell"])
        elif kind == "completed":
            state.completed[record["cell"]] = float(record["value"])
            state.failed.pop(record["cell"], None)
        elif kind == "failed":
            state.failed[record["cell"]] = record.get("error", "")
        elif kind == "end":
            state.ended = True
        elif kind == "job":
            state.jobs[record["job"]] = {
                "campaign": record.get("campaign"),
                "spec": record.get("spec"),
                "client": record.get("client", "anonymous"),
                "priority": int(record.get("priority", 0))}
        elif kind == "job-end":
            state.ended_jobs.add(record["job"])
        # Unknown record types are ignored: forward compatibility for
        # later journal extensions.
