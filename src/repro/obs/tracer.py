"""Span/event tracer for the simulated machine (``repro.obs``).

Records *what happened when* during a simulation as begin/end spans and
instant events on named tracks, in a form that exports losslessly to the
Chrome trace-event JSON consumed by Perfetto / ``chrome://tracing``
(:mod:`repro.obs.export`).

Design constraints (DESIGN.md "Observability"):

* **Off by default, null-check cheap.**  Instrumentation sites capture
  the active tracer once at construction time (``active()``) and guard
  every record with ``if tracer is not None`` — an uninstrumented run
  pays one attribute test per *potential* event and nothing else.
* **Purely observational.**  The tracer never feeds back into the
  simulation: enabling it cannot change a single simulated cycle (a
  property the tests assert).
* **Deterministic.**  Timestamps are simulated cycles, events are
  appended in engine delivery order, and the engine is deterministic —
  so two traces of the same configuration are byte-identical.

Each parallel region runs its own :class:`~repro.sim.engine.Engine`
starting at ``t = 0``; the tracer keeps a kernel-global ``offset`` that
:meth:`advance` moves past every finished region (mirroring the fault
injector's kernel-global clock), so spans from consecutive loops line up
on one timeline.

Tracks are addressed as ``(pid, tid)``: *pid* selects a process group
(:data:`PID_THREADS` — one track per simulated software thread,
:data:`PID_RESOURCES` — one track per named resource, :data:`PID_ENGINE`
— region lifecycle and watchdog/deadlock events); *tid* is a software
thread id (int) or a resource name (str, mapped to a stable integer at
export time).
"""

from __future__ import annotations

__all__ = ["Tracer", "active", "install", "uninstall", "PID_THREADS",
           "PID_RESOURCES", "PID_ENGINE", "PROCESS_NAMES", "SPAN_BUCKETS"]

#: Process-group ids of the exported trace (one Perfetto process each).
PID_THREADS = 1      # simulated software threads (chunks, waits, TLS, steals)
PID_RESOURCES = 2    # serialised resources (atomics, DRAM banks)
PID_ENGINE = 3       # region lifecycle, watchdog and deadlock events

#: Human-readable names for the process groups (export metadata).
PROCESS_NAMES = {PID_THREADS: "sim-threads",
                 PID_RESOURCES: "resources",
                 PID_ENGINE: "engine"}

#: Canonical ``span label -> subsystem bucket`` mapping.  These bucket
#: names are the shared vocabulary between the two observability layers:
#: the simulated-cycle spans recorded here and the wall-clock attribution
#: in :mod:`repro.bench.profiler` report under the *same* labels, so a
#: hot-spot table and a Perfetto track name the same subsystem.
SPAN_BUCKETS = {
    "barrier-wait": "engine:barrier-wait",
    "cond-wait": "engine:cond-wait",
    "watchdog-timeout": "engine:events",
    "deadlock": "engine:events",
    "killed": "engine:events",
    "loop": "runtime:loop",  # region spans, labelled "loop:<prefix>"
    "chunk": "runtime:chunk",
    "tls-init": "runtime:tls",
    "hang": "runtime:hang",
    "steal": "runtime:steal",
    "rmw": "resources:atomic",
    "xfer": "resources:dram",
}


#: The active tracer (None = tracing disabled; the common case).
_ACTIVE: "Tracer | None" = None


def active() -> "Tracer | None":
    """The installed tracer, or None when tracing is off.

    Instrumentation sites call this once per object construction and
    keep the result, so the per-event cost of disabled tracing is a
    single ``is not None`` test.
    """
    return _ACTIVE


def install(tracer: "Tracer") -> None:
    """Make *tracer* the active tracer (fails if one is already active)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a tracer is already installed")
    if not isinstance(tracer, Tracer):
        raise TypeError(f"expected a Tracer, got {tracer!r}")
    _ACTIVE = tracer


def uninstall() -> None:
    """Deactivate the active tracer (no-op when none is installed)."""
    global _ACTIVE
    _ACTIVE = None


class Tracer:
    """Append-only recorder of spans and instant events.

    Events are stored as plain dicts already shaped like Chrome
    trace-event entries (``name``/``ph``/``ts``/``pid``/``tid`` plus
    optional ``args``); :mod:`repro.obs.export` adds track metadata and
    closes any spans left open by a crashed/deadlocked region.
    """

    def __init__(self):
        self.events: list[dict] = []
        self.offset = 0.0        # kernel-global cycles of finished regions
        self._depth: dict = {}   # (pid, tid) -> currently open span count

    def __len__(self) -> int:
        return len(self.events)

    # ----- clock ------------------------------------------------------------

    def ts(self, now: float) -> float:
        """Kernel-global timestamp for region-local time *now*."""
        return self.offset + now

    def advance(self, span: float) -> None:
        """Move the global clock past a finished region of length *span*."""
        if span < 0:
            raise ValueError(f"span must be >= 0, got {span}")
        self.offset += span

    # ----- recording --------------------------------------------------------

    def begin(self, name: str, pid: int, tid, now: float, **args) -> None:
        """Open a span *name* on track ``(pid, tid)`` at region-local *now*."""
        ev = {"name": name, "ph": "B", "ts": self.offset + now,
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)
        key = (pid, tid)
        self._depth[key] = self._depth.get(key, 0) + 1

    def end(self, name: str, pid: int, tid, now: float, **args) -> None:
        """Close the innermost open span on track ``(pid, tid)``."""
        ev = {"name": name, "ph": "E", "ts": self.offset + now,
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)
        key = (pid, tid)
        self._depth[key] = self._depth.get(key, 0) - 1

    def span(self, name: str, pid: int, tid, start: float, end: float,
             **args) -> None:
        """Record a completed span ``[start, end]`` as a balanced B/E pair."""
        if end < start:
            raise ValueError(f"span end {end} precedes start {start}")
        self.begin(name, pid, tid, start, **args)
        self.end(name, pid, tid, end)

    def instant(self, name: str, pid: int, tid, now: float, **args) -> None:
        """Record a zero-duration event (``ph: "i"``, thread scope)."""
        ev = {"name": name, "ph": "i", "s": "t", "ts": self.offset + now,
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)

    def open_spans(self) -> dict:
        """``(pid, tid) -> open span count`` for tracks with unclosed spans."""
        return {k: d for k, d in self._depth.items() if d > 0}
