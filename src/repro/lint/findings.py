"""Finding and severity types for the :mod:`repro.lint` rule engine."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import sha256_hex

__all__ = ["SEV_ERROR", "SEV_WARNING", "SEVERITIES", "ChainHop",
           "Finding", "render_chain"]

#: A finding that fails ``repro lint`` (exit 1) unless suppressed inline
#: or grandfathered in the committed baseline.
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
    """One rule violation at a source location.

    ``fingerprint`` identifies the finding across edits for baseline
    matching: it hashes the rule id, the file path, the *content* of the
    offending line and the occurrence index among identical lines — so
    inserting unrelated lines above does not orphan a baseline entry,
    while editing the offending line itself does (and forces the entry
    to be re-justified).
    """

    rule: str
    path: str          # repo-root-relative, posix separators
    line: int          # 1-based
    message: str
    severity: str = SEV_ERROR
    snippet: str = ""  # stripped source of the offending line
    occurrence: int = 0
    suppressed: bool = False
    suppress_reason: str = ""
    baselined: bool = False
    fingerprint: str = field(default="", compare=False)
    #: Cross-module evidence, anchor-first.  Excluded from the
    #: fingerprint on purpose: the anchor (rule + path + snippet) stays
    #: stable when a *callee* moves between files, so baselines survive
    #: refactors of helpers.
    chain: tuple[ChainHop, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def compute_fingerprint(self) -> str:
        """Stable identity: rule + path + line content + occurrence."""
        key = f"{self.rule}\x00{self.path}\x00{self.snippet}" \
              f"\x00{self.occurrence}"
        self.fingerprint = sha256_hex(key)[:16]
        return self.fingerprint

    def location(self) -> str:
        """``path:line`` as editors expect it."""
        return f"{self.path}:{self.line}"

    def format(self) -> str:
        """One human-readable report line."""
        return (f"{self.path}:{self.line}: [{self.severity}] "
                f"{self.rule}: {self.message}")

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (``--json`` output, baseline files)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "chain": [{"path": h.path, "line": h.line, "note": h.note}
                      for h in self.chain],
        }
