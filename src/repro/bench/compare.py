"""Cross-run comparison of bench trajectory entries.

``compare`` puts two trajectory entries side by side (the latest entry
of each file) and checks every shared benchmark's **median** for
relative drift.  Wall clocks are noisy where simulated cycles are not,
so the gate is a band, not an equality: a benchmark fails only when its
regression exceeds ``tolerance + noise_floor``, where the per-benchmark
noise floor is the worse of the two entries' own repetition spreads
(``(max - min) / median``).  A benchmark whose runs wobble 30% cannot
fail a 25% gate on a 28% drift — but a seeded 2× slowdown sails past
any sane band, which is what the CI gate asserts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.bench.suite import load_trajectory
from repro.bench.timer import Sample

__all__ = ["BenchRow", "BenchDiffReport", "compare_entries", "compare_files",
           "DEFAULT_TOLERANCE"]

#: Default relative-regression tolerance (before the noise floor).
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class BenchRow:
    """One benchmark's median drift between two entries."""

    benchmark: str
    baseline: float              # baseline median seconds
    current: float               # current median seconds
    drift: float                 # (current - baseline) / baseline
    floor: float                 # per-benchmark noise floor (spread)
    allowed: float               # tolerance + floor

    @property
    def regressed(self) -> bool:
        """True when the drift is a regression past the allowed band."""
        return self.drift > self.allowed

    @property
    def improved(self) -> bool:
        """True when the benchmark got faster past the allowed band."""
        return self.drift < -self.allowed


@dataclass
class BenchDiffReport:
    """Outcome of one entry-vs-entry comparison."""

    tolerance: float
    rows: list = field(default_factory=list)
    missing: list = field(default_factory=list)   # only in baseline
    added: list = field(default_factory=list)     # only in current
    warnings: list = field(default_factory=list)  # env fingerprint drift

    @property
    def regressions(self) -> list:
        return [r for r in self.rows if r.regressed]

    @property
    def ok(self) -> bool:
        """No regression past its band and no benchmark vanished."""
        return not self.regressions and not self.missing

    def format(self) -> str:
        from repro.experiments.report import format_rows
        lines = []
        if self.rows:
            ordered = sorted(self.rows, key=lambda r: (-r.drift, r.benchmark))
            lines.append(format_rows(
                ["benchmark", "baseline_s", "current_s", "drift", "band",
                 "verdict"],
                [(r.benchmark, f"{r.baseline:.4f}", f"{r.current:.4f}",
                  f"{r.drift:+.1%}", f"±{r.allowed:.0%}",
                  "REGRESSED" if r.regressed
                  else ("improved" if r.improved else "ok"))
                 for r in ordered]))
        for name in self.missing:
            lines.append(f"missing from current run: {name}")
        for name in self.added:
            lines.append(f"new in current run: {name}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        verdict = "OK" if self.ok else "REGRESSION"
        lines.append(f"{verdict}: {len(self.regressions)} benchmark(s) past "
                     f"tolerance {self.tolerance:.0%} + noise floor over "
                     f"{len(self.rows)} compared")
        return "\n".join(lines)


def _env_warnings(base_env: dict, cur_env: dict) -> list[str]:
    """Fingerprint fields whose drift makes medians incomparable."""
    out = []
    for key in ("python", "implementation", "platform", "machine", "cpus"):
        if base_env.get(key) != cur_env.get(key):
            out.append(f"env {key} changed: {base_env.get(key)!r} -> "
                       f"{cur_env.get(key)!r} — wall-clock medians are not "
                       f"comparable across machines")
    return out


def compare_entries(baseline: dict, current: dict,
                    tolerance: float = DEFAULT_TOLERANCE) -> BenchDiffReport:
    """Compare two trajectory entries benchmark by benchmark."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    base, cur = baseline["results"], current["results"]
    report = BenchDiffReport(tolerance=tolerance)
    report.missing = sorted(set(base) - set(cur))
    report.added = sorted(set(cur) - set(base))
    report.warnings = _env_warnings(baseline.get("env", {}),
                                    current.get("env", {}))
    for name in sorted(set(base) & set(cur)):
        b = Sample.from_dict(base[name])
        c = Sample.from_dict(cur[name])
        if b.median <= 0:
            raise ValueError(f"benchmark {name!r} has a non-positive "
                             f"baseline median ({b.median})")
        floor = max(b.spread, c.spread)
        report.rows.append(BenchRow(
            benchmark=name, baseline=b.median, current=c.median,
            drift=(c.median - b.median) / b.median, floor=floor,
            allowed=tolerance + floor))
    return report


def compare_files(baseline_path: str | os.PathLike,
                  current_path: str | os.PathLike,
                  tolerance: float = DEFAULT_TOLERANCE) -> BenchDiffReport:
    """Compare the latest entries of two trajectory files.

    Either file may also be a bare entry (``bench run --no-append``
    output); suites must match.
    """
    base = load_trajectory(baseline_path)
    cur = load_trajectory(current_path)
    if base["suite"] != cur["suite"]:
        raise ValueError(f"cannot compare suite {base['suite']!r} "
                         f"({baseline_path}) against {cur['suite']!r} "
                         f"({current_path})")
    return compare_entries(base["entries"][-1], cur["entries"][-1],
                           tolerance=tolerance)
