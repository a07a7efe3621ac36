"""Deterministic wall-clock profiler with obs-span-aligned attribution.

A ``sys.setprofile``-based collector (deterministic — every call and
return is observed, nothing is sampled) that buckets **wall time** onto
the same subsystem labels the simulated-cycle tracer uses for its spans
(:data:`repro.obs.tracer.SPAN_BUCKETS`): ``engine:barrier-wait``,
``runtime:chunk``, ``runtime:tls``, ``resources:dram`` and friends.  A
hot-spot table therefore names *our* subsystems — "the engine condition
variables cost 31% of the wall clock" — instead of a flat list of
Python frames, and lines up with what a Perfetto view of the simulated
trace shows.

Attribution walks the live call stack: a frame whose code maps to a
subsystem opens that bucket; frames with no mapping (stdlib, numpy,
helpers) inherit the innermost mapped caller, so a ``heapq.heappush``
inside the event engine is engine time, not anonymous stdlib time.
Time observed before any mapped frame is entered lands in the
``other:python`` catch-all — :meth:`ProfileReport.coverage` reports the
named fraction, which the CI profile gate requires to stay ≥ 90%.

The full stack × self-time table doubles as a flamegraph:
:meth:`ProfileReport.collapsed_lines` emits the standard collapsed-stack
format (``frame;frame;frame <microseconds>``) consumed by
``flamegraph.pl``, speedscope and Perfetto's firefox importer.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Callable

from repro._util import atomic_write_text
from repro.bench.timer import WALL, Clock
from repro.obs.tracer import SPAN_BUCKETS

__all__ = ["WallProfiler", "ProfileReport", "code_bucket", "OTHER_BUCKET"]

#: Catch-all bucket for time outside any mapped subsystem frame.
OTHER_BUCKET = "other:python"

#: The engine's own bucket (its instants, e.g. a watchdog timeout).
_ENGINE_EVENTS = SPAN_BUCKETS["watchdog-timeout"]

#: ``path fragment -> bucket`` for modules that map wholesale.  Checked
#: after the function-sensitive rules below; first match wins, ordered
#: most-specific first.
_MODULE_BUCKETS = (
    ("repro/kernels/coloring", "kernels:coloring"),
    ("repro/kernels/bfs", "kernels:bfs"),
    ("repro/kernels/irregular", "kernels:irregular"),
    ("repro/kernels/", "kernels:other"),
    ("repro/machine/cache", "machine:cache-model"),
    ("repro/machine/", "machine:model"),
    ("repro/graph/", "graph:build"),
    ("repro/obs/", "obs:telemetry"),
    ("repro/check/", "check:telemetry"),
    ("repro/sim/faults", _ENGINE_EVENTS),
    ("repro/sim/", _ENGINE_EVENTS),
    ("repro/campaign/", "campaign:executor"),
    ("repro/experiments/", "harness:sweep"),
    ("repro/bench/", "harness:sweep"),
)


def _norm(filename: str) -> str:
    return filename.replace(os.sep, "/")


def code_bucket(filename: str, funcname: str) -> str | None:
    """Subsystem bucket for a code location, or None to inherit.

    The engine/runtime/resources rules are function-sensitive so the
    buckets line up with the tracer's span labels: ``Barrier`` methods
    are ``engine:barrier-wait`` wall time exactly as their simulated
    spans are ``barrier-wait`` simulated cycles.
    """
    path = _norm(filename)
    idx = path.rfind("repro/")
    if idx < 0:
        return None
    path = path[idx:]
    fn = funcname.lower()
    if path.startswith("repro/sim/engine"):
        if "barrier" in fn or "release" in fn:
            return SPAN_BUCKETS["barrier-wait"]
        if "cond" in fn or "fire" in fn or "block" in fn:
            return SPAN_BUCKETS["cond-wait"]
        return _ENGINE_EVENTS
    if path.startswith("repro/sim/resources"):
        if "service" in fn or "bank" in fn or "channel" in fn:
            return SPAN_BUCKETS["xfer"]
        return SPAN_BUCKETS["rmw"]
    if path.startswith("repro/runtime/"):
        if "tls" in fn:
            return SPAN_BUCKETS["tls-init"]
        if "steal" in fn or "deque" in fn:
            return SPAN_BUCKETS["steal"]
        if "chunk" in fn:
            return SPAN_BUCKETS["chunk"]
        return SPAN_BUCKETS["loop"]
    for fragment, bucket in _MODULE_BUCKETS:
        if path.startswith(fragment):
            return bucket
    return None


def _frame_label(frame) -> str:
    """Short stable label for a Python frame: ``module.func``."""
    path = _norm(frame.f_code.co_filename)
    idx = path.rfind("repro/")
    mod = path[idx:] if idx >= 0 else os.path.basename(path)
    if mod.endswith(".py"):
        mod = mod[:-3]
    return f"{mod.replace('/', '.')}.{frame.f_code.co_name}"


@dataclass
class ProfileReport:
    """Accumulated wall-time attribution of one profiled call."""

    buckets: dict = field(default_factory=dict)    # bucket -> self seconds
    functions: dict = field(default_factory=dict)  # (bucket, label) -> seconds
    stacks: dict = field(default_factory=dict)     # tuple[label,...] -> seconds
    calls: int = 0                                 # profile events observed

    @property
    def total_seconds(self) -> float:
        """Total attributed wall time (the sum over buckets)."""
        return sum(self.buckets.values())

    def coverage(self) -> float:
        """Fraction of wall time attributed to named subsystem buckets.

        1.0 when nothing was measured — an empty profile has no
        unattributed time to complain about.
        """
        total = self.total_seconds
        if total <= 0:
            return 1.0
        named = sum(v for k, v in self.buckets.items()
                    if not k.startswith("other:"))
        return named / total

    def top_buckets(self, n: int = 10) -> list[tuple[str, float, float]]:
        """``(bucket, seconds, share)`` rows, largest first."""
        total = self.total_seconds or 1.0
        ordered = sorted(self.buckets.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(b, s, s / total) for b, s in ordered[:n]]

    def top_functions(self, n: int = 10) -> list[tuple[str, str, float, float]]:
        """``(bucket, function, seconds, share)`` rows, largest first."""
        total = self.total_seconds or 1.0
        ordered = sorted(self.functions.items(),
                         key=lambda kv: (-kv[1], kv[0]))
        return [(b, f, s, s / total) for (b, f), s in ordered[:n]]

    def format_table(self, n: int = 10) -> str:
        """ASCII hot-spot tables: buckets first, then functions."""
        from repro.experiments.report import format_rows
        lines = ["wall-clock attribution by subsystem bucket:"]
        lines.append(format_rows(
            ["bucket", "seconds", "share"],
            [(b, f"{s:.4f}", f"{share:.1%}")
             for b, s, share in self.top_buckets(n)]))
        lines.append("")
        lines.append(f"top {n} functions:")
        lines.append(format_rows(
            ["bucket", "function", "seconds", "share"],
            [(b, f, f"{s:.4f}", f"{share:.1%}")
             for b, f, s, share in self.top_functions(n)]))
        lines.append("")
        lines.append(f"coverage: {self.coverage():.1%} of "
                     f"{self.total_seconds:.4f}s wall attributed to named "
                     f"subsystem buckets")
        return "\n".join(lines)

    def collapsed_lines(self) -> list[str]:
        """Flamegraph collapsed-stack lines (``a;b;c <microseconds>``).

        Weights are integer microseconds; zero-weight stacks are
        dropped.  Sorted for byte-stable output under a fake clock.
        """
        out = []
        for stack in sorted(self.stacks):
            us = int(round(self.stacks[stack] * 1e6))
            if us > 0 and stack:
                out.append(";".join(stack) + f" {us}")
        return out

    def write_collapsed(self, path: str | os.PathLike) -> None:
        """Write the collapsed stacks to *path* (atomic)."""
        atomic_write_text(os.fspath(path),
                          "\n".join(self.collapsed_lines()) + "\n")


class WallProfiler:
    """Context manager installing the deterministic collector.

    Usage::

        prof = WallProfiler()
        with prof:
            run = expensive_simulation()
        print(prof.report.format_table(10))

    Only the installing thread is profiled (``sys.setprofile`` is
    per-thread), which matches the simulator: one OS thread runs the
    whole event loop.  Profiling cannot change a single simulated cycle
    — it observes the Python interpreter, not the simulated machine —
    but it does slow wall time down; never wrap benchmark timing runs in
    a profiler.
    """

    def __init__(self, clock: Clock = WALL):
        self._clock = clock
        self._last = 0.0
        self._labels: list[str] = []    # live stack of frame labels
        self._buckets: list[str] = []   # parallel stack of open buckets
        self._installed = False
        self.report = ProfileReport()

    # ----- collection -------------------------------------------------------

    def _attribute(self, dt: float) -> None:
        if dt <= 0.0:
            return
        rep = self.report
        bucket = self._buckets[-1] if self._buckets else OTHER_BUCKET
        rep.buckets[bucket] = rep.buckets.get(bucket, 0.0) + dt
        if self._labels:
            leaf = (bucket, self._labels[-1])
            rep.functions[leaf] = rep.functions.get(leaf, 0.0) + dt
            stack = tuple(self._labels)
            rep.stacks[stack] = rep.stacks.get(stack, 0.0) + dt

    def _hook(self, frame, event: str, arg) -> None:
        now = self._clock()
        self._attribute(now - self._last)
        self.report.calls += 1
        if event == "call":
            label = _frame_label(frame)
            bucket = code_bucket(frame.f_code.co_filename,
                                 frame.f_code.co_name)
            self._labels.append(label)
            self._buckets.append(
                bucket if bucket is not None
                else (self._buckets[-1] if self._buckets else OTHER_BUCKET))
        elif event == "c_call":
            name = getattr(arg, "__qualname__", None) \
                or getattr(arg, "__name__", "builtin")
            self._labels.append(f"<{name}>")
            self._buckets.append(
                self._buckets[-1] if self._buckets else OTHER_BUCKET)
        elif event in ("return", "c_return", "c_exception"):
            # Returns from frames entered before installation underflow;
            # ignore them (their time was attributed to the catch-all).
            if self._labels:
                self._labels.pop()
                self._buckets.pop()
        self._last = self._clock()

    # ----- lifecycle --------------------------------------------------------

    def __enter__(self) -> "WallProfiler":
        if self._installed:
            raise RuntimeError("profiler is already installed")
        self._installed = True
        self._labels.clear()
        self._buckets.clear()
        self._last = self._clock()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        self._attribute(self._clock() - self._last)
        self._installed = False

    def profile(self, fn: Callable[[], object]) -> object:
        """Run ``fn()`` under the profiler; returns its result."""
        with self:
            return fn()
