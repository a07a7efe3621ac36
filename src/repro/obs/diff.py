"""Exact cross-run diffs over metrics JSONL dumps.

Compares two metrics dumps (a committed baseline and a fresh run) frame
by frame: frames are keyed by their sweep-cell labels, loop label and
the loop's occurrence number within that cell, and each frame's span
and cycle-breakdown components are compared for equality.  The
simulation is deterministic, so *any* difference — one ulp in one
component, or a loop that appears or vanishes — is a model change and
fails the diff.  ``repro-experiments diff-metrics`` turns the result
into an exit code and prints the differing components as its
diagnostic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.obs.export import load_metrics_jsonl
from repro.obs.metrics import BREAKDOWN_FIELDS, MetricsFrame

__all__ = ["DiffRow", "DiffReport", "diff_frames", "diff_metrics_files"]

#: Components compared per frame: the breakdown plus the span itself.
_COMPONENTS = ("span",) + BREAKDOWN_FIELDS


@dataclass(frozen=True)
class DiffRow:
    """One cycle component of one frame in both dumps."""

    cell: str
    component: str
    baseline: float
    current: float

    @property
    def drift(self) -> float:
        """Relative change ``(current - baseline) / |baseline|``."""
        if self.baseline == self.current:
            return 0.0
        if self.baseline == 0:
            return float("inf") if self.current > 0 else float("-inf")
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass
class DiffReport:
    """All compared components plus the structural mismatches."""

    rows: list[DiffRow] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)   # cells only in baseline
    added: list[str] = field(default_factory=list)     # cells only in current

    @property
    def changed(self) -> list[DiffRow]:
        """Rows whose value differs between the dumps."""
        return [r for r in self.rows if r.baseline != r.current]

    @property
    def ok(self) -> bool:
        """True when every component is identical and the two dumps
        cover the same cells."""
        return not self.changed and not self.missing and not self.added

    def format(self, max_rows: int = 40) -> str:
        """Human-readable table of the differing components (largest
        relative drift first), then the structural mismatches."""
        from repro.experiments.report import format_rows
        shown = sorted(self.changed, key=lambda r: -abs(r.drift))[:max_rows]
        lines = []
        if shown:
            lines.append(format_rows(
                ["cell", "component", "baseline", "current", "drift"],
                [(r.cell, r.component, repr(r.baseline), repr(r.current),
                  f"{r.drift:+.3e}") for r in shown]))
        else:
            lines.append("no cycle-breakdown drift")
        for cell in self.missing:
            lines.append(f"missing from current run: {cell}")
        for cell in self.added:
            lines.append(f"new in current run: {cell}")
        verdict = "OK" if self.ok else "REGRESSION"
        lines.append(f"{verdict}: {len(self.changed)} component(s) differ "
                     f"over {len(self.rows)} compared")
        return "\n".join(lines)


def _cell_key(frame: MetricsFrame) -> str:
    """Stable grouping key: sweep-cell labels plus the loop label."""
    cell = frame.cell
    parts = [f"{k}={cell[k]}" for k in sorted(cell)]
    parts.append(f"loop={frame.label}" if frame.label else "loop=?")
    return " ".join(parts)


def _by_frame(frames: list[MetricsFrame]) -> dict[str, dict[str, float]]:
    """Each frame's components, keyed by cell, loop and occurrence."""
    seen: Counter = Counter()
    out: dict[str, dict[str, float]] = {}
    for frame in frames:
        key = _cell_key(frame)
        out[f"{key}#{seen[key]}"] = {c: getattr(frame, c) for c in _COMPONENTS}
        seen[key] += 1
    return out


def diff_frames(baseline: list[MetricsFrame],
                current: list[MetricsFrame]) -> DiffReport:
    """Compare two frame streams; see the module docstring for semantics."""
    base_cells = _by_frame(baseline)
    cur_cells = _by_frame(current)
    report = DiffReport()
    report.missing = sorted(set(base_cells) - set(cur_cells))
    report.added = sorted(set(cur_cells) - set(base_cells))
    for cell in sorted(set(base_cells) & set(cur_cells)):
        b, c = base_cells[cell], cur_cells[cell]
        report.rows.extend(DiffRow(cell, comp, b[comp], c[comp])
                           for comp in _COMPONENTS)
    return report


def diff_metrics_files(baseline_path, current_path) -> DiffReport:
    """Diff two JSONL dumps on disk (the CLI's entry point)."""
    return diff_frames(load_metrics_jsonl(baseline_path),
                       load_metrics_jsonl(current_path))
