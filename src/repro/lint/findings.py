"""Finding and severity types for the :mod:`repro.lint` rule engine."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SEV_ERROR", "SEV_WARNING", "SEVERITIES", "ChainHop",
           "Finding", "render_chain"]

#: A finding that fails ``repro lint`` (exit 1) unless suppressed inline.
SEV_ERROR = "error"
#: Reported but never fails the run (style-level and heuristic rules).
SEV_WARNING = "warning"

SEVERITIES = (SEV_ERROR, SEV_WARNING)


@dataclass(frozen=True)
class ChainHop:
    """One hop of call-chain evidence on a cross-module finding.

    Hops run from the anchor function down to the concrete offending
    site; each is a suppression point — an inline
    ``# repro: ignore[...]`` at any hop's line silences the finding, so
    a protocol exception can be documented at whichever end owns the
    decision (the caller that accepts the call, or the helper whose
    write is bookkeeping).
    """

    path: str        # repo-root-relative, posix separators
    line: int        # 1-based
    note: str = ""   # human label, e.g. "handle → route" or "os.listdir"


def render_chain(chain: tuple[ChainHop, ...]) -> str:
    """``a → b → c`` evidence text with trailing locations."""
    if not chain:
        return ""
    notes = " → ".join(h.note or f"{h.path}:{h.line}" for h in chain)
    locs = " → ".join(f"{h.path}:{h.line}" for h in chain)
    return f"{notes} [{locs}]"


@dataclass
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str          # repo-root-relative, posix separators
    line: int          # 1-based
    message: str
    severity: str = SEV_ERROR
    snippet: str = ""  # stripped source of the offending line
    suppressed: bool = False
    suppress_reason: str = ""
    #: Cross-module evidence, anchor-first.
    chain: tuple[ChainHop, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def format(self) -> str:
        """One human-readable report line."""
        return (f"{self.path}:{self.line}: [{self.severity}] "
                f"{self.rule}: {self.message}")

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (the ``--json`` output)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
            "chain": [{"path": h.path, "line": h.line, "note": h.note}
                      for h in self.chain],
        }
