"""Happens-before race detector over the simulated machine (``repro.check``).

A :class:`Checker` is an opt-in observer, activated exactly like the
:mod:`repro.obs` tracer: instrumentation sites in the engine, the
resources and the runtimes capture ``active()`` once at construction and
null-check it per use, so an unchecked run pays one ``is not None`` test
per potential event and a checked run perturbs **zero simulated cycles**
(the checker never feeds back into the simulation — a property the tests
and CI assert).

Shadow state:

* one :class:`~repro.check.clocks.VectorClock` per simulated software
  thread, with components keyed ``(loop_index, tid)`` so separate
  parallel regions never share epochs — cross-region ordering exists
  *only* through the region join (the edge the seeded-bug mode drops);
* one clock per synchronisation object (atomic variables, conditions),
  joined acquire/release style on every reservation;
* barrier trips join all arrivals all-to-all;
* work-stealing deques are mirrored, so a stolen range hands the thief
  the victim's clock *at push time* — not the victim's current clock,
  which would hide races against work the victim did in between.

Each executed chunk snapshots its thread's clock; at region end the
checker intersects the declared read/write footprints
(:class:`~repro.kernels.base.AccessSet`) of every concurrent —
not-happens-before-ordered — chunk pair.  Overlaps on arrays annotated
``benign_race`` on *both* sides are tallied and bound-checked; anything
else is an unannotated race finding.

``drop_edges`` removes classes of happens-before edges to *seed*
synchronisation bugs (e.g. ``region-join`` models launching the
colouring conflict pass without waiting for the tentative pass): the
checker must then report races, which is how CI proves the detector
actually depends on every minted edge.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.check.clocks import VectorClock, ordered_before
from repro.check.report import (SEV_ERROR, SEV_WARNING, CheckReport,
                                Finding)
from repro.obs import metrics as _obs_metrics

__all__ = ["Checker", "active", "install", "uninstall", "checking",
           "DROP_EDGE_KINDS"]

#: Happens-before edge classes that ``drop_edges`` can remove (the
#: seeded-bug mechanism; see module docstring).
DROP_EDGE_KINDS = frozenset(
    {"region-join", "barrier", "atomic", "steal", "cond"})

#: Cap on emitted findings — aggregation keys findings per (array, loop
#: pair), so this only trips on pathologically broken runs.
MAX_FINDINGS = 500

#: The active checker (None = checking disabled; the common case).
_ACTIVE: "Checker | None" = None


def active() -> "Checker | None":
    """The installed checker, or None when checking is off."""
    return _ACTIVE


def install(checker: "Checker") -> None:
    """Make *checker* the active checker (fails if one already is)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a checker is already installed")
    if not isinstance(checker, Checker):
        raise TypeError(f"expected a Checker, got {checker!r}")
    _ACTIVE = checker


def uninstall() -> None:
    """Deactivate the active checker (no-op when none is installed)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def checking(checker: "Checker | None" = None):
    """Context manager: install a (new by default) checker, yield it."""
    checker = checker if checker is not None else Checker()
    install(checker)
    try:
        yield checker
    finally:
        uninstall()


@dataclass
class _ChunkRecord:
    """One executed chunk with its happens-before snapshot."""

    loop: int
    label: str
    tid: int
    lo: int
    hi: int
    comp: tuple             # vector-clock component, (loop, tid)
    snap: VectorClock       # thread clock when the chunk executed
    access: object          # the loop's AccessSet (or None)
    fp: dict | None = None  # footprint cache, computed on demand

    def footprint(self) -> dict:
        """``{array: [(kind, cells, guard), ...]}`` for this chunk."""
        if self.fp is None:
            self.fp = self.access.footprint(self.lo, self.hi) \
                if self.access is not None else {}
        return self.fp

    def where(self) -> str:
        """Human-readable location, e.g. ``omp-dynamic#1[0,8)@t2``."""
        return f"{self.label}#{self.loop}[{self.lo},{self.hi})@t{self.tid}"


@dataclass
class _LoopState:
    """Shadow state of the parallel region currently executing."""

    index: int
    label: str
    n_threads: int
    access: object
    fork: VectorClock
    clocks: dict = field(default_factory=dict)   # tid -> VectorClock
    objs: dict = field(default_factory=dict)     # id(sync obj) -> VectorClock
    shadow: dict = field(default_factory=dict)   # wid -> deque of snapshots
    chunks: list = field(default_factory=list)   # [_ChunkRecord]
    last_trip: tuple | None = None
    chunks_since_trip: int = 0

    def comp(self, tid: int) -> tuple:
        """This loop's vector-clock component for thread *tid*."""
        return (self.index, tid)


class Checker:
    """Dynamic happens-before + lockset checker (see module docstring)."""

    def __init__(self, drop_edges=(), max_findings: int = MAX_FINDINGS):
        drop = frozenset(drop_edges)
        unknown = drop - DROP_EDGE_KINDS
        if unknown:
            raise ValueError(
                f"unknown drop_edges {sorted(unknown)}; "
                f"choose from {sorted(DROP_EDGE_KINDS)}")
        self.drop_edges = drop
        self.max_findings = max_findings
        self.report = CheckReport()
        self._master = VectorClock()     # joined clocks of finished regions
        self._carry: list = []           # prior chunks not ordered before now
        self._loop: _LoopState | None = None
        self._next_index = 0
        self._bound_flagged: set = set()

    # ----- region lifecycle -------------------------------------------------

    def begin_loop(self, label: str, n_threads: int, access=None) -> None:
        """A parallel region is starting; fork the thread clocks."""
        if self._loop is not None:
            # A region died mid-flight (watchdog/deadlock); fold what we saw.
            self.end_loop()
        fork = self._master.copy()
        st = _LoopState(index=self._next_index, label=label,
                        n_threads=n_threads, access=access, fork=fork)
        self._next_index += 1
        for tid in range(n_threads):
            vc = fork.copy()
            vc.tick(st.comp(tid))
            st.clocks[tid] = vc
            st.shadow[tid] = deque()
        # Prior-region chunks already ordered before this fork can never
        # race with anything later; with every join intact this empties.
        self._carry = [r for r in self._carry
                       if not ordered_before(r.snap, r.comp, fork)]
        self._loop = st
        self.report.count("loops")
        self.report.loops.append(label)

    def end_loop(self, span: float = 0.0) -> None:
        """The region's engine drained; analyse and absorb its clocks."""
        st = self._loop
        if st is None:
            return
        self._loop = None
        self._tally_writes(st)
        races = self._detect(st)
        self._emit(races)
        if "region-join" not in self.drop_edges:
            for vc in st.clocks.values():
                self._master.join(vc)
        # Chunks the next fork won't dominate stay eligible to race.
        self._carry.extend(st.chunks)
        registry = _obs_metrics.active()
        if registry is not None:
            registry.counter("check.loops").inc(1)
            if races:
                n_err = sum(1 for k in races if not k[0])
                if n_err:
                    registry.counter("check.races").inc(n_err)

    def finalize(self) -> CheckReport:
        """Close any open region, evaluate annotations, return the report."""
        self.end_loop()
        for array in sorted(self.report.benign):
            tally = self.report.benign[array]
            if tally.expected and tally.pairs == 0:
                self.report.add(Finding(
                    kind="benign-missing", severity=SEV_WARNING, array=array,
                    message=f"annotation expects races on '{array}' but the "
                            "schedule produced none (speculation never "
                            "exercised)"))
        return self.report

    # ----- engine events ----------------------------------------------------

    def on_barrier(self, obj, tids: list, now: float) -> None:
        """A barrier released *tids* together (all-to-all join)."""
        st = self._loop
        if st is None or not tids:
            return
        self.report.count("barrier_trips")
        trip = (id(obj), tuple(sorted(tids)))
        if st.last_trip == trip and st.chunks_since_trip == 0:
            self.report.add(Finding(
                kind="double-barrier", severity=SEV_WARNING,
                where=(st.label,),
                message=f"barrier tripped twice for threads "
                        f"{list(trip[1])} with no intervening work"))
        st.last_trip = trip
        st.chunks_since_trip = 0
        if "barrier" in self.drop_edges:
            return
        joined = VectorClock()
        for tid in tids:
            vc = st.clocks.get(tid)
            if vc is not None:
                joined.join(vc)
        for tid in tids:
            if tid in st.clocks:
                vc = joined.copy()
                vc.tick(st.comp(tid))
                st.clocks[tid] = vc

    def on_cond_fire(self, obj, tid: int | None) -> None:
        """A condition fired; waiters happen-after the firer."""
        st = self._loop
        if st is None or "cond" in self.drop_edges:
            return
        vc = st.clocks.get(tid)
        if vc is None:
            return
        o = st.objs.setdefault(id(obj), VectorClock())
        o.join(vc)
        vc.tick(st.comp(tid))

    def on_cond_wake(self, obj, tid: int | None) -> None:
        """A process resumed from a condition wait."""
        st = self._loop
        if st is None or "cond" in self.drop_edges:
            return
        vc = st.clocks.get(tid)
        o = st.objs.get(id(obj))
        if vc is not None and o is not None:
            vc.join(o)

    def on_kill(self, tid: int | None) -> None:
        """A simulated thread was killed (fault injection)."""
        if self._loop is None:
            return
        self.report.count("kills")

    # ----- resource events --------------------------------------------------

    def on_rmw(self, var, tid: int | None) -> None:
        """An atomic RMW completed (e.g. a chunk-counter fetch-and-add).

        An acquire/release edge through the variable's clock.  Minting it
        here orders the *dispatches* through the shared counter while
        leaving the chunk *executions* concurrent — the execution epoch
        is ticked after the fetch, so it never enters the counter's clock
        until the thread's next fetch.
        """
        if "atomic" in self.drop_edges:
            return
        st = self._loop
        vc = None if st is None else st.clocks.get(tid)
        if vc is None:
            return
        self.report.count("sync_ops")
        o = st.objs.setdefault(id(var), VectorClock())
        vc.join(o)
        st.objs[id(var)] = vc.copy()
        vc.tick(st.comp(tid))

    # ----- runtime events ---------------------------------------------------

    def on_chunk(self, tid: int, lo: int, hi: int, start: float,
                 end: float) -> None:
        """Thread *tid* finished executing items ``[lo, hi)``."""
        st = self._loop
        vc = None if st is None else st.clocks.get(tid)
        if vc is None:
            return
        st.chunks.append(_ChunkRecord(
            loop=st.index, label=st.label, tid=tid, lo=lo, hi=hi,
            comp=st.comp(tid), snap=vc.copy(), access=st.access))
        vc.tick(st.comp(tid))
        st.chunks_since_trip += 1
        self.report.count("chunks")

    def on_tls(self, tid: int) -> None:
        """Thread *tid* initialised its thread-local scratch state."""
        st = self._loop
        vc = None if st is None else st.clocks.get(tid)
        if vc is not None:
            vc.tick(st.comp(tid))

    def on_deal(self, wid: int) -> None:
        """An initial range was dealt to *wid*'s deque at region entry."""
        st = self._loop
        if st is not None and wid in st.shadow:
            st.shadow[wid].append(None)  # None = the fork clock

    def on_push(self, wid: int) -> None:
        """Worker *wid* pushed a split-off range onto its own deque."""
        st = self._loop
        vc = None if st is None else st.clocks.get(wid)
        if vc is not None:
            st.shadow[wid].append(vc.copy())

    def on_pop(self, wid: int) -> None:
        """Worker *wid* popped the bottom of its own deque (no edge)."""
        st = self._loop
        if st is not None and st.shadow.get(wid):
            st.shadow[wid].pop()

    def on_steal(self, thief: int, victim: int) -> None:
        """*thief* stole the top of *victim*'s deque: edge from push time.

        A ``None`` snapshot marks an initially-dealt range (its push
        clock is the fork clock, which every worker already dominates).
        The stolen range enters the thief's real deque, so it enters the
        shadow deque too — carrying the thief's post-join clock, which
        dominates the original push snapshot.
        """
        st = self._loop
        if st is None:
            return
        self.report.count("steal_edges")
        snap = None
        if st.shadow.get(victim):
            snap = st.shadow[victim].popleft()
        vc = st.clocks.get(thief)
        if vc is None:
            return
        if "steal" not in self.drop_edges:
            if snap is not None:
                vc.join(snap)
            vc.tick(st.comp(thief))
        if thief in st.shadow:
            st.shadow[thief].append(vc.copy())

    # ----- analysis ---------------------------------------------------------

    def _tally_writes(self, st: _LoopState) -> None:
        """Fold declared writes on annotated arrays into the benign tallies."""
        acc = st.access
        if acc is None or not acc.benign:
            return
        for rec in st.chunks:
            for array, entries in rec.footprint().items():
                ann = acc.benign.get(array)
                if ann is None:
                    continue
                tally = self.report.tally(array)
                tally.reason = tally.reason or ann.reason
                tally.expected = tally.expected or ann.expect
                if ann.bound is not None:
                    tally.bound = ann.bound
                for kind, cells, _ in entries:
                    if kind == "write":
                        tally.writes += len(cells)

    def _detect(self, st: _LoopState) -> dict:
        """Find unordered chunk pairs with overlapping footprints.

        Returns ``{(is_benign, array, where_a, where_b): [cells, pairs]}``.
        Pairs are drawn from this region and from ``_carry`` — prior
        regions whose clocks the fork did not dominate (only non-empty
        when a join edge is missing, so the steady-state cost is the
        intra-region scan alone).
        """
        races: dict = {}
        chunks = [r for r in st.chunks if r.access is not None]
        for i, a in enumerate(chunks):
            for b in chunks[i + 1:]:
                self._check_pair(a, b, races)
            for b in self._carry:
                if b.access is not None:
                    self._check_pair(a, b, races)
        return races

    def _check_pair(self, a: _ChunkRecord, b: _ChunkRecord,
                    races: dict) -> None:
        """Race-test one chunk pair (skip if happens-before ordered)."""
        if ordered_before(a.snap, a.comp, b.snap) \
                or ordered_before(b.snap, b.comp, a.snap):
            return
        fa, fb = a.footprint(), b.footprint()
        for array in fa.keys() & fb.keys():
            # A benign_race annotation covers races *within* its own
            # parallel region (both endpoints must annotate the array);
            # cross-region concurrency is exactly the missing-join class
            # of bug, so it is never excused by an annotation.
            benign = (a.loop == b.loop
                      and a.access.benign.get(array) is not None
                      and b.access.benign.get(array) is not None)
            for kind_a, cells_a, guard_a in fa[array]:
                for kind_b, cells_b, guard_b in fb[array]:
                    if kind_a == "read" and kind_b == "read":
                        continue
                    if guard_a is not None and guard_a == guard_b:
                        continue  # lockset: same per-cell lock family
                    overlap = np.intersect1d(cells_a, cells_b,
                                             assume_unique=True)
                    if not len(overlap):
                        continue
                    key = (benign, array,
                           f"{a.label}#{a.loop}", f"{b.label}#{b.loop}")
                    agg = races.setdefault(key,
                                           [set(), 0, a.where(), b.where()])
                    agg[0].update(int(c) for c in overlap[:16])
                    agg[1] += 1

    def _emit(self, races: dict) -> None:
        """Convert aggregated race overlaps into findings and tallies.

        Races are aggregated per (array, loop pair) — one finding names
        the loops, the pair count, a sample chunk pair and sample cells,
        rather than one finding per racing chunk pair.
        """
        for key in sorted(races, key=lambda k: (k[0], k[1], k[2], k[3])):
            cells, pairs, where_a, where_b = races[key]
            benign, array, _, _ = key
            if benign:
                tally = self.report.tally(array)
                tally.pairs += pairs
                tally.cells += len(cells)
                if tally.bound is not None and array not in self._bound_flagged \
                        and tally.pairs > tally.bound * max(1, tally.writes):
                    self._bound_flagged.add(array)
                    self.report.add(Finding(
                        kind="benign-bound", severity=SEV_ERROR, array=array,
                        where=(where_a, where_b),
                        message=f"benign races on '{array}' exceed the "
                                f"declared bound ({tally.pairs} pairs > "
                                f"{tally.bound:g} x {tally.writes} writes)"))
            elif len(self.report.findings) < self.max_findings:
                self.report.add(Finding(
                    kind="race", severity=SEV_ERROR, array=array,
                    where=(where_a, where_b),
                    cells=tuple(sorted(cells)[:16]),
                    message=f"unsynchronized overlap on '{array}' between "
                            f"concurrent chunks ({pairs} pair(s))"))
