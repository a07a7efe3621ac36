"""Gantt/breakdown diagnostics drawn from an Observer's trace and frames."""

from pathlib import Path

import numpy as np
import pytest

from repro.machine.costs import WorkCosts
from repro.obs import Observer, Tracer
from repro.obs.gantt import (breakdown, gantt, longest_loop, loop_events,
                             reconciliation)
from repro.obs.metrics import MetricsFrame
from repro.obs.tracer import PID_THREADS
from repro.runtime.base import ProgrammingModel, RuntimeSpec, Schedule

GOLDEN = Path(__file__).with_name("gantt_faulted_golden.txt")


def observed(run):
    """(frames, tracer events) of *run()* executed under an Observer."""
    with Observer() as obs:
        run()
    return obs.frames, obs.tracer.events


def real_loops(tiny_machine, n=60, threads=3, loops=1):
    work = WorkCosts(np.full(n, 100.0), np.zeros(n), np.zeros(n))
    spec = RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.STATIC,
                       chunk=10)
    return observed(lambda: [spec.parallel_for(tiny_machine, threads, work)
                             for _ in range(loops)])


def spans(*specs):
    """Thread-track events for ``(name, tid, start, end)`` spans."""
    tracer = Tracer()
    for name, tid, start, end in specs:
        tracer.span(name, PID_THREADS, tid, start, end)
    return tracer.events


class TestLoopEvents:
    def test_later_loop_rebased_to_its_window(self, tiny_machine):
        frames, events = real_loops(tiny_machine, loops=2)
        window = loop_events(frames, events, 1)
        starts = [ev["ts"] for ev in window
                  if ev["name"] == "chunk" and ev["ph"] == "B"]
        assert len(starts) == frames[1].n_chunks
        assert min(starts) >= 0.0
        assert max(ev["ts"] for ev in window) <= frames[1].span
        assert gantt(frames[1], window) == \
            gantt(frames[0], loop_events(frames, events, 0))


class TestGantt:
    def test_empty(self):
        assert "no chunks" in gantt(MetricsFrame(), [])

    def test_rows_per_thread(self, tiny_machine):
        frames, events = real_loops(tiny_machine)
        out = gantt(frames[0], loop_events(frames, events, 0))
        assert out.count("|") == 2 * 3  # three thread rows
        assert "#" in out

    def test_elides_many_threads(self):
        frame = MetricsFrame(span=10.0, n_chunks=40)
        events = spans(*[("chunk", t, 0.0, 5.0) for t in range(40)])
        out = gantt(frame, events, max_threads=8)
        assert "more threads elided" in out

    def test_hang_windows_rendered(self):
        frame = MetricsFrame(span=100.0, hang_cycles=50.0, n_chunks=2)
        events = spans(("chunk", 0, 0.0, 100.0), ("hang", 1, 0.0, 50.0),
                       ("chunk", 1, 50.0, 100.0))
        out = gantt(frame, events)
        row = [ln for ln in out.splitlines() if ln.startswith("t  1")][0]
        assert "~" in row and "#" in row
        assert "1 hangs" in out

    def test_killed_threads_marked(self):
        frame = MetricsFrame(span=100.0, n_chunks=2, killed_threads=[1])
        events = spans(("chunk", 0, 0.0, 100.0), ("chunk", 1, 0.0, 30.0))
        out = gantt(frame, events)
        assert "t  1x|" in out
        assert "t  0 |" in out
        assert "1 killed" in out

    def test_killed_thread_without_chunks_gets_row(self):
        frame = MetricsFrame(span=100.0, n_chunks=1, killed_threads=[2])
        out = gantt(frame, spans(("chunk", 0, 0.0, 100.0)))
        assert "t  2x|" in out

    def test_faulted_run_matches_golden(self):
        """A colouring under fig_faults' random plan plus a kill draws
        exactly what the pre-telemetry renderer drew from its LoopStats."""
        from repro.experiments import fig_faults
        from repro.machine.config import KNF
        from repro.sim.faults import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec)
        horizon = fig_faults._healthy_horizon("coloring", "pwtk",
                                              "OpenMP-dynamic")
        degrading = FaultPlan.random(0, n_cores=KNF.n_cores,
                                     n_threads=fig_faults.FAULT_THREADS,
                                     intensity=1.0, horizon=horizon)
        plan = FaultPlan(0, specs=degrading.specs + (
            FaultSpec(FaultKind.THREAD_KILL, target=3, start=0.1 * horizon),))
        frames, events = observed(lambda: fig_faults._run_cycles(
            "coloring", "pwtk", "OpenMP-dynamic", FaultInjector(plan)))
        index = max(range(len(frames)), key=lambda i: frames[i].span)
        frame, window = frames[index], loop_events(frames, events, index)
        drawn = f"{gantt(frame, window)}\n{breakdown(frame, window)}\n"
        assert "10 hangs, 1 killed" in drawn
        assert drawn == GOLDEN.read_text()


class TestBreakdown:
    def test_contains_accounting(self, tiny_machine):
        frames, events = real_loops(tiny_machine)
        out = breakdown(frames[0], loop_events(frames, events, 0))
        assert "span" in out and "busy" in out and "atomics" in out
        assert "faults" not in out

    def test_fault_summary(self):
        frame = MetricsFrame(span=100.0, n_threads=4, hang_cycles=40.0,
                             killed_threads=[2])
        out = breakdown(frame, spans(("hang", 1, 0.0, 40.0)))
        assert "faults" in out
        assert "1 windows" in out and "1 threads killed" in out


class TestReconciliation:
    def test_flags_incomplete_breakdown(self):
        bad = MetricsFrame(n_threads=2, span=100.0, busy_cycles=100.0)
        worst, _ = reconciliation([bad])  # 100 accounted of 200
        assert worst == pytest.approx(0.5)

    def test_empty_frames_ok(self):
        worst, summary = reconciliation([])
        assert worst == 0.0
        assert longest_loop([], []) == summary  # nothing to draw

