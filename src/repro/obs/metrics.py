"""Counter registry and per-loop metric frames (``repro.obs``).

Gives every simulated resource and the cache model named, labeled
counters — atomic operations and wait cycles by variable, DRAM channel
occupancy, cache hit tiers, steals by victim — and snapshots them into a
:class:`MetricsFrame` per parallel loop, alongside the loop's
:class:`~repro.sim.stats.LoopStats` accounting.

The activation pattern mirrors :mod:`repro.obs.tracer`: a module-level
active registry that instrumentation sites look up once and null-check
per use, so disabled metrics cost one attribute test.

A frame's cycle breakdown is complete by construction::

    busy + sched + atomic_wait + tls + hang + idle == span * n_threads

``idle_cycles`` is the remainder of the thread-cycle budget after every
measured component (barrier waits, steal-sleep, fork latency and killed
threads' unused tail all land there), so the exported totals always
reconcile with ``LoopStats`` — the invariant the exporter tests assert.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Counter", "MetricsRegistry", "MetricsFrame", "BREAKDOWN_FIELDS",
           "active", "install", "uninstall"]

#: Cycle-breakdown components of a frame, in reporting order.  They sum
#: to ``span * n_threads`` (see module docstring).
BREAKDOWN_FIELDS = ("busy_cycles", "sched_cycles", "atomic_wait_cycles",
                    "tls_cycles", "hang_cycles", "idle_cycles")

#: The active registry (None = metrics collection disabled).
_ACTIVE: "MetricsRegistry | None" = None


def active() -> "MetricsRegistry | None":
    """The installed registry, or None when metrics collection is off."""
    return _ACTIVE


def install(registry: "MetricsRegistry") -> None:
    """Make *registry* the active registry (fails if one already is)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a metrics registry is already installed")
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(f"expected a MetricsRegistry, got {registry!r}")
    _ACTIVE = registry


def uninstall() -> None:
    """Deactivate the active registry (no-op when none is installed)."""
    global _ACTIVE
    _ACTIVE = None


class Counter:
    """A named, labeled, monotonically increasing counter."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.key}={self.value})"


def _counter_key(name: str, labels: dict) -> str:
    """Canonical ``name{k=v,...}`` key (labels sorted for stability)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Holds counters and the per-loop :class:`MetricsFrame` stream.

    ``cell(...)`` sets the sweep-cell labels (graph/variant/threads)
    that the experiment harness attaches to every frame recorded while a
    panel cell runs, so a JSONL dump of a whole sweep stays queryable
    per cell.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._last: dict[str, float] = {}
        self.frames: list[MetricsFrame] = []
        self._cell: dict = {}

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``name`` + *labels*, created on first use."""
        key = _counter_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(key)
        return c

    def incr(self, name: str, amount: float = 1.0, **labels) -> None:
        """Increment ``name``'s labeled counter (created on first use).

        One-call convenience for sites that never hold the counter —
        e.g. the campaign executor counting
        ``campaign.cells{status=hit|computed|failed}``.
        """
        self.counter(name, **labels).inc(amount)

    def snapshot(self) -> dict[str, float]:
        """Current absolute value of every counter (sorted keys)."""
        return {k: self._counters[k].value for k in sorted(self._counters)}

    def loop_delta(self) -> dict[str, float]:
        """Counter increments since the previous frame was cut.

        Zero-delta counters are omitted so frames stay sparse; the
        absolute totals remain available via :meth:`snapshot`.
        """
        snap = self.snapshot()
        delta = {k: v - self._last.get(k, 0.0) for k, v in snap.items()
                 if v != self._last.get(k, 0.0)}
        self._last = snap
        return delta

    # ----- sweep-cell labeling ---------------------------------------------

    @contextmanager
    def cell(self, **labels):
        """Attach *labels* (e.g. graph/variant/threads) to frames recorded
        inside the context — nesting restores the outer labels."""
        prev = self._cell
        self._cell = {**prev, **labels}
        try:
            yield self
        finally:
            self._cell = prev

    def current_cell(self) -> dict:
        """The active sweep-cell labels ({} outside any cell)."""
        return dict(self._cell)

    def add_frame(self, frame: "MetricsFrame") -> None:
        """Append a finished frame (stamped by the loop context)."""
        self.frames.append(frame)


@dataclass
class MetricsFrame:
    """One parallel loop's metric snapshot (JSONL-serialisable).

    Scalar fields mirror the loop's :class:`~repro.sim.stats.LoopStats`
    exactly; ``counters`` holds the registry increments attributable to
    the loop; ``channel`` summarises the DRAM model including the
    saturation fraction (bank-busy time over the loop's bank-cycle
    budget).
    """

    index: int = 0
    label: str = ""
    cell: dict = field(default_factory=dict)
    n_threads: int = 0
    span: float = 0.0
    busy_cycles: float = 0.0
    sched_cycles: float = 0.0
    atomic_wait_cycles: float = 0.0
    tls_cycles: float = 0.0
    hang_cycles: float = 0.0
    idle_cycles: float = 0.0
    atomic_operations: int = 0
    steals: int = 0
    failed_steals: int = 0
    tasks_spawned: int = 0
    tls_inits: int = 0
    n_chunks: int = 0
    killed_threads: list = field(default_factory=list)
    channel: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def thread_budget(self) -> float:
        """Total thread-cycles available during the loop."""
        return self.span * self.n_threads

    def breakdown(self) -> dict[str, float]:
        """Cycle components, summing to :attr:`thread_budget`."""
        return {f: getattr(self, f) for f in BREAKDOWN_FIELDS}

    def to_dict(self) -> dict:
        """JSON-serialisable representation (field order is stable)."""
        return {
            "index": self.index, "label": self.label, "cell": self.cell,
            "n_threads": self.n_threads, "span": self.span,
            "busy_cycles": self.busy_cycles,
            "sched_cycles": self.sched_cycles,
            "atomic_wait_cycles": self.atomic_wait_cycles,
            "tls_cycles": self.tls_cycles,
            "hang_cycles": self.hang_cycles,
            "idle_cycles": self.idle_cycles,
            "atomic_operations": self.atomic_operations,
            "steals": self.steals, "failed_steals": self.failed_steals,
            "tasks_spawned": self.tasks_spawned, "tls_inits": self.tls_inits,
            "n_chunks": self.n_chunks,
            "killed_threads": list(self.killed_threads),
            "channel": self.channel, "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsFrame":
        """Inverse of :meth:`to_dict` (unknown keys are ignored)."""
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})

    @classmethod
    def from_stats(cls, stats, *, n_threads: int, label: str = "",
                   channel: dict | None = None,
                   counters: dict | None = None) -> "MetricsFrame":
        """Build a frame from a finished loop's ``LoopStats``.

        ``idle_cycles`` is computed as the thread-cycle budget minus
        every measured component (clamped at zero), which is what makes
        the breakdown complete by construction.
        """
        measured = (stats.busy_cycles + stats.sched_cycles
                    + stats.atomic_wait_cycles + stats.tls_cycles
                    + stats.hang_cycles)
        idle = max(0.0, stats.span * n_threads - measured)
        return cls(
            label=label, n_threads=n_threads, span=stats.span,
            busy_cycles=stats.busy_cycles, sched_cycles=stats.sched_cycles,
            atomic_wait_cycles=stats.atomic_wait_cycles,
            tls_cycles=stats.tls_cycles, hang_cycles=stats.hang_cycles,
            idle_cycles=idle, atomic_operations=stats.atomic_operations,
            steals=stats.steals, failed_steals=stats.failed_steals,
            tasks_spawned=stats.tasks_spawned, tls_inits=stats.tls_inits,
            n_chunks=stats.n_chunks,
            killed_threads=list(stats.killed_threads),
            channel=dict(channel or {}), counters=dict(counters or {}),
        )
