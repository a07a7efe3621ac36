"""The ``github`` lint report format: GitHub Actions annotations.

GitHub Actions workflow commands (``::error file=…``), one line per
actionable finding, which the Actions runner turns into inline PR
annotations.  The CI lint step runs with ``--format=github`` so a
cross-module finding shows up *on the line that anchors it*, with the
full call chain in the message.  The renderer is a pure function of the
:class:`~repro.lint.engine.LintResult` — no I/O.
"""

from __future__ import annotations

from repro.lint.engine import LintResult
from repro.lint.findings import SEV_ERROR

__all__ = ["format_github", "FORMATS"]

#: Accepted ``repro lint --format`` values (``text`` is the default
#: human report rendered by the CLI itself).
FORMATS = ("text", "github")


def _escape_data(text: str) -> str:
    """Escape a workflow-command message (order matters: ``%`` first)."""
    return (text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))


def _escape_property(text: str) -> str:
    """Escape a workflow-command property value (file=, title=)."""
    return (_escape_data(text)
            .replace(":", "%3A")
            .replace(",", "%2C"))


def format_github(result: LintResult) -> str:
    """GitHub Actions annotations, one line per actionable finding."""
    lines = []
    for finding in result.findings:
        command = "error" if finding.severity == SEV_ERROR else "warning"
        lines.append(
            f"::{command} file={_escape_property(finding.path)},"
            f"line={finding.line},"
            f"title={_escape_property(finding.rule)}::"
            f"{_escape_data(finding.message)}")
    return "\n".join(lines) + ("\n" if lines else "")
