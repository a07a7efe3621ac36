"""Seeded, deterministic fault injection for the simulated machine.

The paper studies a *pre-release prototype* (Knights Ferry) — exactly the
setting where stragglers, clock throttling and flaky memory differentiate
scheduling policies.  This module lets an experiment degrade the simulated
chip on purpose and compare how the OpenMP / Cilk / TBB runtime models
absorb the damage.

A :class:`FaultPlan` is a declarative, immutable list of
:class:`FaultSpec` entries.  All randomness (random plan generation,
per-chunk transient-stall draws) derives from the plan seed through
counter-keyed :func:`numpy.random.default_rng` streams, so identical
``(seed, FaultPlan)`` inputs produce **bit-identical** fault schedules and
simulated cycle counts — a property the tests assert.

Fault kinds
-----------

* ``CORE_THROTTLE`` — a core's effective issue rate is divided by
  ``magnitude`` over ``[start, start + duration)`` (clock throttling).
* ``TRANSIENT_STALL`` — chunks starting on the core inside the window pay
  an extra exponentially-distributed stall of mean ``magnitude`` cycles
  (flaky memory / ECC retries).
* ``SMT_HANG`` — the SMT context running software thread ``target``
  freezes until the window ends (stuck hardware context).
* ``MEM_JITTER`` — chip-wide memory-channel occupancy is multiplied by
  ``magnitude`` over the window (degraded DRAM channel).
* ``THREAD_KILL`` — software thread ``target`` dies at ``start``: it
  stops at its next scheduling point (chunk fetch or barrier arrival) and
  the region barrier drops a party so survivors complete.  Work the dead
  thread had *not yet fetched* is redistributed by dynamic/guided
  scheduling and work stealing, but statically-dealt chunks are lost —
  which is why post-run kernel validation matters.

Times are *kernel-global* simulated cycles: the injector keeps a clock
offset across the many ``parallel_for`` regions a kernel executes (each
region runs its own :class:`~repro.sim.engine.Engine` starting at 0), so
"a throttle from cycle 1e6 to 2e6" means cycles of the whole kernel run.

Kill events are interleaved deterministically through the engine's
seq-ordered heap (they are scheduled like any other event); window faults
(throttle/stall/hang/jitter) are pure functions of the plan and the query
time, which is equivalent and cheaper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Barrier, Engine, ThreadKilled

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "FaultInjector",
           "ThreadKilled"]


class FaultKind(enum.Enum):
    """The degradation modes the injector can apply."""

    CORE_THROTTLE = "core_throttle"
    TRANSIENT_STALL = "transient_stall"
    SMT_HANG = "smt_hang"
    MEM_JITTER = "mem_jitter"
    THREAD_KILL = "thread_kill"


#: Kinds that degrade timing without destroying work — safe for intensity
#: sweeps whose post-run validation must pass.
DEGRADING_KINDS = (FaultKind.CORE_THROTTLE, FaultKind.TRANSIENT_STALL,
                   FaultKind.SMT_HANG, FaultKind.MEM_JITTER)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: *kind* on *target* over ``[start, start + duration)``.

    ``target`` is a core index (``CORE_THROTTLE`` / ``TRANSIENT_STALL``),
    a software-thread id (``SMT_HANG`` / ``THREAD_KILL``), and ignored for
    the chip-wide ``MEM_JITTER``.  ``magnitude`` is a slowdown factor
    (throttle/jitter, > 1), a mean stall in cycles (transient stall), and
    unused for hang/kill.
    """

    kind: FaultKind
    target: int = 0
    start: float = 0.0
    duration: float = float("inf")
    magnitude: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, FaultKind):
            raise TypeError(f"kind must be a FaultKind, got {self.kind!r}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.kind in (FaultKind.CORE_THROTTLE, FaultKind.MEM_JITTER) \
                and self.magnitude < 1.0:
            raise ValueError(
                f"{self.kind.value} magnitude is a slowdown factor and must "
                f"be >= 1, got {self.magnitude}")
        if self.kind is FaultKind.TRANSIENT_STALL and self.magnitude < 0:
            raise ValueError(
                f"transient stall magnitude must be >= 0, got {self.magnitude}")

    @property
    def end(self) -> float:
        """Exclusive end of the fault window."""
        return self.start + self.duration

    def active(self, t: float) -> bool:
        """Whether the window covers kernel-global time *t*."""
        return self.start <= t < self.end


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded fault scenario.

    ``seed`` drives every stochastic draw the plan implies (transient
    stall magnitudes); ``specs`` is the ordered fault list.  The empty
    plan is the healthy machine.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        for s in self.specs:
            if not isinstance(s, FaultSpec):
                raise TypeError(f"specs must be FaultSpec, got {s!r}")

    def schedule(self) -> tuple[tuple[float, str, int, float, float], ...]:
        """The resolved fault schedule, sorted by start time.

        A pure function of the plan: ``(start, kind, target, duration,
        magnitude)`` rows, bit-identical across runs — the determinism
        contract the tests assert.
        """
        rows = [(s.start, s.kind.value, s.target, s.duration, s.magnitude)
                for s in self.specs]
        return tuple(sorted(rows))

    @classmethod
    def random(cls, seed: int, *, n_cores: int, n_threads: int,
               intensity: float, horizon: float,
               kinds: tuple[FaultKind, ...] = DEGRADING_KINDS) -> "FaultPlan":
        """A deterministic random scenario scaled by ``intensity`` (0..1).

        ``intensity`` scales both the number of faults (up to roughly one
        per core at 1.0) and their severity; ``horizon`` is the expected
        kernel length in cycles, inside which the fault windows fall.
        Only *kinds* are drawn (kills excluded by default so validation
        sweeps stay lossless).
        """
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if not kinds:
            raise ValueError("kinds must not be empty")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xFA)))
        n_faults = int(round(intensity * max(n_cores, 1)))
        specs = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            start = float(rng.uniform(0.0, 0.8 * horizon))
            duration = float(rng.uniform(0.1, 0.5) * horizon)
            if kind is FaultKind.CORE_THROTTLE:
                specs.append(FaultSpec(kind, int(rng.integers(n_cores)),
                                       start, duration,
                                       1.0 + 3.0 * intensity * rng.random()))
            elif kind is FaultKind.TRANSIENT_STALL:
                specs.append(FaultSpec(kind, int(rng.integers(n_cores)),
                                       start, duration,
                                       400.0 * intensity * rng.random()))
            elif kind is FaultKind.SMT_HANG:
                specs.append(FaultSpec(kind, int(rng.integers(n_threads)),
                                       start,
                                       float(rng.uniform(0.02, 0.1) * horizon)))
            elif kind is FaultKind.MEM_JITTER:
                specs.append(FaultSpec(kind, 0, start, duration,
                                       1.0 + 2.0 * intensity * rng.random()))
            elif kind is FaultKind.THREAD_KILL:
                specs.append(FaultSpec(kind, int(rng.integers(n_threads)),
                                       start, 0.0))
        return cls(seed=seed, specs=tuple(specs))


class FaultInjector:
    """Applies a :class:`FaultPlan` to one kernel execution.

    One injector serves the *whole* kernel: pass the same instance to
    every ``parallel_for`` the kernel issues and it advances its
    kernel-global clock across regions (the runtimes call
    :meth:`begin_loop` / :meth:`end_loop` through
    :class:`~repro.runtime.base.LoopContext`).  Injectors are stateful
    and single-use — build a fresh one per kernel run.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.clock = 0.0          # kernel-global cycles before current region
        self.kills_fired = 0
        self.kills_delivered = 0
        self._throttles = [s for s in plan.specs
                           if s.kind is FaultKind.CORE_THROTTLE]
        self._stalls = [s for s in plan.specs
                        if s.kind is FaultKind.TRANSIENT_STALL]
        self._hangs = [s for s in plan.specs if s.kind is FaultKind.SMT_HANG]
        self._jitters = [s for s in plan.specs
                         if s.kind is FaultKind.MEM_JITTER]
        self._kills = sorted((s for s in plan.specs
                              if s.kind is FaultKind.THREAD_KILL),
                             key=lambda s: (s.start, s.target))
        self._stall_draws: dict[int, int] = {}   # spec index -> draw counter
        self._killed: set[int] = set()           # threads flagged dead
        # Per-region state (reset by begin_loop):
        self._engine: Engine | None = None
        self._barrier: Barrier | None = None
        self._procs: dict[int, object] = {}
        self._loop_kills: list[int] = []

    # ----- region lifecycle -------------------------------------------------

    def begin_loop(self, engine: Engine, barrier: Barrier,
                   procs: dict[int, object]) -> None:
        """Arm the injector for one parallel region.

        ``procs`` maps software-thread id to the region's
        :class:`~repro.sim.engine.Process` (used to decide whether a kill
        victim already parked at the barrier).  Pending kill events are
        scheduled onto the region engine's seq-ordered heap so they
        interleave deterministically with the workers.
        """
        self._engine = engine
        self._barrier = barrier
        self._procs = procs
        self._loop_kills = []
        # Threads killed in an earlier region stay dead: they die at their
        # first scheduling point of this region, so release their barrier
        # slot up front.
        for tid in procs:
            if tid in self._killed:
                barrier.drop_party()
        for spec in self._kills:
            if spec.target in self._killed or spec.target not in procs:
                continue
            delay = max(0.0, spec.start - self.clock)
            engine.schedule(delay, self._fire_kill, spec.target)

    def end_loop(self, span: float) -> None:
        """Advance the kernel-global clock past a finished region."""
        self.clock += max(0.0, span)
        self._engine = None
        self._barrier = None
        self._procs = {}

    def _fire_kill(self, thread: int) -> None:
        """Engine event: flag *thread* dead and release its barrier slot.

        A victim already waiting at the join barrier survives the region
        (its work is done); anyone else is flagged and dies at its next
        scheduling point via :meth:`check_kill`.
        """
        if thread in self._killed:
            return
        proc = self._procs.get(thread)
        if proc is None or proc.finished or proc.waiting_on is self._barrier:
            return
        self._killed.add(thread)
        self._loop_kills.append(thread)
        self.kills_fired += 1
        if self._barrier is not None:
            self._barrier.drop_party()

    @property
    def loop_kills(self) -> list[int]:
        """Threads killed during the current/most recent region."""
        return list(self._loop_kills)

    # ----- queries (wired into Chip / LoopContext) --------------------------

    def _gnow(self, now: float) -> float:
        return self.clock + now

    def check_kill(self, thread: int, now: float) -> None:
        """Raise :class:`ThreadKilled` if *thread* has been flagged dead.

        Called by the runtimes at every scheduling point (chunk fetch,
        barrier arrival), which is where a dying thread stops.
        """
        if thread in self._killed:
            self.kills_delivered += 1
            raise ThreadKilled(thread, self._gnow(now))

    def compute_factor(self, core: int, now: float) -> float:
        """Issue-rate slowdown factor for *core* (product of throttles)."""
        t = self._gnow(now)
        factor = 1.0
        for s in self._throttles:
            if s.target == core and s.active(t):
                factor *= s.magnitude
        return factor

    def transient_stall(self, core: int, now: float) -> float:
        """Extra stall cycles for a chunk starting on *core* now.

        Each active stall spec contributes an exponential draw of mean
        ``magnitude``, keyed by ``(plan seed, spec index, core, counter)``
        — deterministic because the engine delivers chunk starts in a
        deterministic order.
        """
        t = self._gnow(now)
        extra = 0.0
        for i, s in enumerate(self._stalls):
            if s.target == core and s.active(t):
                n = self._stall_draws.get(i, 0)
                self._stall_draws[i] = n + 1
                rng = np.random.default_rng(
                    np.random.SeedSequence((self.plan.seed, i, core, n)))
                extra += float(rng.exponential(s.magnitude))
        return extra

    def hang_delay(self, thread: int, now: float) -> float:
        """Cycles until *thread*'s SMT context unfreezes (0 if not hung)."""
        t = self._gnow(now)
        delay = 0.0
        for s in self._hangs:
            if s.target == thread and s.active(t):
                delay = max(delay, s.end - t)
        return delay

    def channel_factor(self, now: float) -> float:
        """Chip-wide memory-channel occupancy multiplier."""
        t = self._gnow(now)
        factor = 1.0
        for s in self._jitters:
            if s.active(t):
                factor *= s.magnitude
        return factor
