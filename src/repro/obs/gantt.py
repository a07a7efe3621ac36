"""Per-loop diagnostics drawn from an Observer's own artifacts.

Renders the kind of picture you want when a sweep surprises you — who
ran what when, and where the loop's cycles went — from the two things a
:class:`~repro.obs.Observer` records: the tracer's events and the
metrics frames.  No kernel result object is needed, so anything run
under an Observer (a figure cell, a ``repro bench profile`` benchmark)
can be drawn after the fact.

Loops run back to back on the tracer's global clock, each advancing it
by its span, so loop *i* occupies ``[sum of earlier frame spans, +
frame_i.span]``.  :func:`loop_events` cuts that window out of the trace
(the ``chunk`` and ``hang`` spans on the
:data:`~repro.obs.tracer.PID_THREADS` tracks, rebased to loop-local
cycles); the frame supplies the span, chunk count and killed threads.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import MetricsFrame
from repro.obs.tracer import PID_THREADS

__all__ = ["loop_events", "gantt", "breakdown", "reconciliation",
           "longest_loop"]

#: Thread-track span names the diagnostics draw.
_DRAWN = ("chunk", "hang")


def loop_events(frames: list[MetricsFrame], events: list[dict],
                index: int) -> list[dict]:
    """Thread-track events of loop *index*, on loop-local cycles."""
    lo = 0.0
    for frame in frames[:index]:
        lo += frame.span  # the tracer's own summation order: exact offsets
    hi = lo + frames[index].span
    return [dict(ev, ts=ev["ts"] - lo) for ev in events
            if ev["pid"] == PID_THREADS and ev["name"] in _DRAWN
            and lo <= ev["ts"] <= hi]


def _spans(events: list[dict], name: str) -> list[tuple[int, float, float]]:
    """``(tid, start, end)`` of every closed *name* span in *events*."""
    open_at: dict[int, float] = {}
    spans = []
    for ev in events:
        if ev["name"] != name:
            continue
        if ev["ph"] == "B":
            open_at[ev["tid"]] = ev["ts"]
        elif ev["ph"] == "E" and ev["tid"] in open_at:
            spans.append((ev["tid"], open_at.pop(ev["tid"]), ev["ts"]))
    return spans


def gantt(frame: MetricsFrame, events: list[dict], width: int = 72,
          max_threads: int = 32) -> str:
    """ASCII Gantt chart of one loop's chunk schedule.

    *events* are the loop's thread-track events on loop-local time (see
    :func:`loop_events`).  One row per thread; ``#`` marks executing
    time, ``~`` a hung SMT context (fault layer freeze window), ``.``
    idle.  Threads killed by fault injection are marked ``x`` on their
    row label.  Rows beyond *max_threads* are elided with a summary line.
    """
    if not frame.n_chunks:
        return "(no chunks executed)"
    chunks, hangs = _spans(events, "chunk"), _spans(events, "hang")
    killed = set(frame.killed_threads)
    threads = sorted({t for t, _, _ in chunks} | {t for t, _, _ in hangs}
                     | killed)
    header = (f"span = {frame.span:.0f} cycles, {frame.n_chunks} chunks, "
              f"{len(threads)} active threads")
    if hangs or killed:
        header += f" ({len(hangs)} hangs, {len(killed)} killed)"
    lines = [header]
    scale = width / frame.span

    def paint(row, start, end):
        lo = int(start * scale)
        hi = max(lo + 1, int(np.ceil(end * scale)))
        row[lo:min(hi, width)] = True

    for t in threads[:max_threads]:
        busy = np.zeros(width, dtype=bool)
        hung = np.zeros(width, dtype=bool)
        for row, spans in ((busy, chunks), (hung, hangs)):
            for thread, start, end in spans:
                if thread == t:
                    paint(row, start, end)
        hung &= ~busy  # execution wins where a bucket holds both
        bar = "".join("#" if b else ("~" if h else ".")
                      for b, h in zip(busy, hung))
        mark = "x" if t in killed else " "
        lines.append(f"t{t:3d}{mark}|{bar}|")
    if len(threads) > max_threads:
        lines.append(f"... {len(threads) - max_threads} more threads elided")
    return "\n".join(lines)


def breakdown(frame: MetricsFrame, events: list[dict]) -> str:
    """One-paragraph accounting of where the loop's cycles went."""
    budget = frame.thread_budget
    util = frame.busy_cycles / budget if budget > 0 else 0.0
    lines = [
        f"span {frame.span:.0f} cycles, busy {frame.busy_cycles:.0f} "
        f"thread-cycles ({util:.0%} of {frame.n_threads}-thread budget)",
        f"scheduling {frame.sched_cycles:.0f} cycles "
        f"({frame.atomic_operations} atomics waiting "
        f"{frame.atomic_wait_cycles:.0f}, {frame.steals} steals, "
        f"{frame.failed_steals} failed probes, "
        f"{frame.tasks_spawned} tasks)",
    ]
    if frame.tls_inits:
        lines.append(f"{frame.tls_inits} thread-local initialisations")
    if frame.hang_cycles or frame.killed_threads:
        lines.append(
            f"faults: {frame.hang_cycles:.0f} hung cycles over "
            f"{len(_spans(events, 'hang'))} windows, "
            f"{len(frame.killed_threads)} threads killed")
    return "\n".join(lines)


def reconciliation(frames: list[MetricsFrame]) -> tuple[float, str]:
    """(worst relative gap, summary line) of the breakdown invariant.

    For every frame, the six breakdown components must sum to the
    thread-cycle budget ``span * n_threads``; the gap is reported
    relative to the budget.
    """
    worst = 0.0
    for frame in frames:
        budget = frame.thread_budget
        if budget <= 0:
            continue
        gap = abs(sum(frame.breakdown().values()) - budget) / budget
        worst = max(worst, gap)
    summary = (f"breakdown reconciliation: worst gap {worst:.3%} of the "
               f"thread-cycle budget over {len(frames)} loop frame(s)")
    return worst, summary


def longest_loop(frames: list[MetricsFrame], events: list[dict]) -> str:
    """Gantt and breakdown of the longest loop, then the reconciliation."""
    _, summary = reconciliation(frames)
    if not frames:
        return summary
    index = max(range(len(frames)), key=lambda i: frames[i].span)
    frame, window = frames[index], loop_events(frames, events, index)
    return "\n".join(["longest loop:", gantt(frame, window),
                      breakdown(frame, window), "", summary])
