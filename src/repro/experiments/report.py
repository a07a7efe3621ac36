"""Plain-text rendering of experiment results (figures become tables)."""

from __future__ import annotations

from repro.campaign.spec import axis_unit
from repro.experiments.harness import PanelResult

__all__ = ["format_panel", "format_rows", "print_panel"]


def format_rows(headers: list[str], rows: list[tuple]) -> str:
    """Simple aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(c) -> str:
    if isinstance(c, float):
        return f"{c:.2f}"
    return str(c)


def format_panel(panel: PanelResult) -> str:
    """Render a panel as `axis x variants` speedup table."""
    unit = axis_unit(panel.axis)
    axis = "threads" if panel.axis == "threads" else f"{panel.axis} {unit}"
    headers = [axis] + list(panel.series)
    rows = []
    for i, t in enumerate(panel.thread_counts):
        rows.append(tuple([t] + [float(panel.series[v][i]) for v in panel.series]))
    body = format_rows(headers, rows)
    out = [f"== {panel.title} ==", body]
    peaks = ", ".join(f"{v}: {panel.best(v)[1]:.1f}@{panel.best(v)[0]}{unit}"
                      for v in panel.series)
    out.append(f"peaks: {peaks}")
    if panel.notes:
        out.append(panel.notes)
    return "\n".join(out)


def print_panel(panel: PanelResult) -> None:
    """Print a panel followed by a blank separator line."""
    print(format_panel(panel))
    print()
