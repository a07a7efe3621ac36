"""Structured findings and the per-run report (``repro.check``).

A :class:`Finding` is one detected anomaly; a :class:`CheckReport`
aggregates findings plus the benign-race tallies and coverage counters
of a whole checked run.  Reports serialise to plain dicts (``repro check
--json``) and format as a human-readable summary (the CLI default).

Severity model:

* ``error`` — an unannotated data race or a benign-race bound
  violation: the run's sharing discipline does not match its declared
  synchronisation.  ``repro check`` exits non-zero.
* ``warning`` — suspicious but not provably wrong (an expected benign
  race that never materialised, a redundant double barrier).
* ``info`` — diagnostic notes (killed threads observed, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "BenignTally", "CheckReport",
           "SEV_ERROR", "SEV_WARNING", "SEV_INFO"]

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_INFO = "info"

_SEV_ORDER = {SEV_ERROR: 0, SEV_WARNING: 1, SEV_INFO: 2}


@dataclass(frozen=True)
class Finding:
    """One checker anomaly.

    ``kind`` is a stable machine-readable tag (``race``,
    ``benign-bound``, ``benign-missing``, ``double-barrier``);
    ``where`` names the loop(s) involved; ``cells``
    carries a bounded sample of the conflicting array cells.
    """

    kind: str
    severity: str
    message: str
    array: str = ""
    where: tuple = ()
    cells: tuple = ()

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"kind": self.kind, "severity": self.severity,
                "message": self.message, "array": self.array,
                "where": list(self.where), "cells": list(self.cells)}

    def format(self) -> str:
        """One-line human-readable rendering."""
        loc = f" [{' vs '.join(self.where)}]" if self.where else ""
        arr = f" array={self.array}" if self.array else ""
        cells = (f" cells={list(self.cells[:6])}"
                 + ("..." if len(self.cells) > 6 else "")) if self.cells else ""
        return f"{self.severity.upper():7s} {self.kind}:{loc}{arr} " \
               f"{self.message}{cells}"


@dataclass
class BenignTally:
    """Accounting for one ``benign_race``-annotated array."""

    array: str
    reason: str = ""
    pairs: int = 0          # racing chunk pairs observed
    cells: int = 0          # racing cells across all pairs (with multiplicity)
    writes: int = 0         # write accesses declared on the array
    expected: bool = False  # annotation asserted the race must appear
    bound: float | None = None  # max racing pairs per declared write

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"array": self.array, "reason": self.reason,
                "pairs": self.pairs, "cells": self.cells,
                "writes": self.writes, "expected": self.expected,
                "bound": self.bound}


@dataclass
class CheckReport:
    """Aggregate result of one checked run."""

    findings: list = field(default_factory=list)
    benign: dict = field(default_factory=dict)  # array -> BenignTally
    counters: dict = field(default_factory=dict)
    loops: list = field(default_factory=list)   # labels, in execution order

    @property
    def ok(self) -> bool:
        """True iff no error-severity finding was recorded."""
        return not any(f.severity == SEV_ERROR for f in self.findings)

    @property
    def errors(self) -> list:
        """The error-severity findings."""
        return [f for f in self.findings if f.severity == SEV_ERROR]

    def count(self, name: str, amount: int = 1) -> None:
        """Increment a coverage counter (loops, chunks, barriers, ...)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add(self, finding: Finding) -> None:
        """Record one finding."""
        self.findings.append(finding)

    def tally(self, array: str) -> BenignTally:
        """The benign tally for *array*, created on first use."""
        t = self.benign.get(array)
        if t is None:
            t = self.benign[array] = BenignTally(array)
        return t

    def to_dict(self) -> dict:
        """JSON-serialisable representation of the whole report."""
        return {
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "benign": {k: v.to_dict() for k, v in sorted(self.benign.items())},
            "counters": dict(sorted(self.counters.items())),
            "loops": list(self.loops),
        }

    def format(self) -> str:
        """Multi-line human-readable summary."""
        lines = []
        ordered = sorted(self.findings,
                         key=lambda f: _SEV_ORDER.get(f.severity, 9))
        for f in ordered:
            lines.append(f.format())
        for name in sorted(self.benign):
            t = self.benign[name]
            mark = " (expected)" if t.expected else ""
            lines.append(f"BENIGN  {name}: {t.pairs} racing pair(s) over "
                         f"{t.writes} write(s){mark} — {t.reason or 'annotated'}")
        c = self.counters
        lines.append(f"checked {c.get('loops', 0)} loop(s), "
                     f"{c.get('chunks', 0)} chunk(s), "
                     f"{c.get('barrier_trips', 0)} barrier trip(s), "
                     f"{c.get('sync_ops', 0)} sync op(s): "
                     f"{len(self.errors)} error(s), "
                     f"{len(self.findings) - len(self.errors)} note(s)")
        return "\n".join(lines)
