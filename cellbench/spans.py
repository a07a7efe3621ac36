"""Layer spans timed from outside the simulator.

:class:`SpanRecorder` keeps aggregate span statistics in memory: calls,
inclusive time and self time (a span's duration minus the time its child
spans cover).  :func:`instrumented` wraps the public entry points of each
layer (``repro.graph``, ``repro.graphstore``, ``repro.machine``,
``repro.sim``, ``repro.runtime``, ``repro.kernels``, ``repro.campaign``)
in spans by rebinding module and class attributes for the duration of a
``with`` block; nothing under ``src/`` changes.  Wrappers also capture
counts from the results they see (engine events, chunk and steal counts,
colouring rounds, BFS levels) and queue kernel results for validation
outside every timed interval.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["SpanStat", "SpanRecorder", "Capture", "TARGETS",
           "instrumented"]


@dataclass
class SpanStat:
    """Aggregate of every closed span with one name."""

    calls: int = 0
    total: float = 0.0     # inclusive seconds
    self_time: float = 0.0  # seconds not covered by child spans


class SpanRecorder:
    """Nested span timer computing self time = span - child spans.

    *clock* returns seconds; tests pass a fake one.  ``root_total`` sums
    the durations of outermost spans, i.e. the wall time that some layer
    span accounts for.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.root_total = 0.0
        self._stack: list[list] = []   # [name, start, child seconds]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_total += duration

    def reset(self) -> None:
        """Forget every closed span (open spans are not allowed)."""
        if self._stack:
            raise RuntimeError(f"reset with open spans {self._stack}")
        self.stats = defaultdict(SpanStat)
        self.root_total = 0.0


class Capture:
    """Counts and pending validations gathered from wrapped results."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self.pending: list = []   # zero-argument callables -> bool

    def reset(self) -> None:
        self.counts = defaultdict(float)
        self.pending = []


# ----- what each wrapper observes -------------------------------------------

def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_engine(capture, fn, args, kwargs, result):
    capture.counts["sim.events"] += args[0].events_processed


def _observe_loop(capture, fn, args, kwargs, stats):
    c = capture.counts
    c["runtime.chunks"] += len(stats.chunks)
    c["runtime.steals"] += stats.steals
    c["runtime.failed_steals"] += stats.failed_steals
    c["runtime.tasks_spawned"] += stats.tasks_spawned
    c["sim.atomic_ops"] += stats.atomic_operations


def _observe_coloring(capture, fn, args, kwargs, run):
    from repro.kernels.coloring.verify import verify_coloring
    graph = _bound(fn, args, kwargs)["graph"]
    capture.counts["kernels.coloring_rounds"] += run.rounds
    capture.counts["kernels.coloring_recolored"] += sum(
        run.conflicts_per_round)
    capture.counts["kernels.coloring_vertices"] += graph.n_vertices
    colors = run.colors
    capture.pending.append(lambda: verify_coloring(graph, colors))


def _observe_bfs(capture, fn, args, kwargs, run):
    from repro.kernels.bfs.validate import validate_bfs
    arguments = _bound(fn, args, kwargs)
    graph, source = arguments["graph"], arguments["source"]
    if source is None:
        source = graph.n_vertices // 2   # simulate_bfs's default source
    c = capture.counts
    c["kernels.bfs_levels"] += run.n_levels
    c["kernels.bfs_entries"] += run.entries_processed
    c["kernels.bfs_duplicates"] += run.duplicates
    c["kernels.bfs_sentinels"] += run.sentinels
    dist = run.dist
    capture.pending.append(
        lambda: validate_bfs(graph, source, dist, raise_on_error=False))


def _observe_store_get(capture, fn, args, kwargs, value):
    capture.counts["campaign.store_hits"] += value is not None


#: (span name, module, attribute or Class.method, observer or None).  The
#: span name's prefix is the layer it is attributed to.
TARGETS = (
    ("graph.build", "repro.graph.generators", "tube_mesh", None),
    ("graph.reorder", "repro.graph.reorder", "apply_ordering", None),
    ("graphstore.load", "repro.graphstore.format", "load_graph", None),
    ("machine.profile", "repro.machine.cache", "access_profile", None),
    ("machine.profile_cached", "repro.machine.cache",
     "access_profile_cached", None),
    ("machine.costs", "repro.machine.costs", "coloring_tentative_costs", None),
    ("machine.costs", "repro.machine.costs", "coloring_conflict_costs", None),
    ("machine.costs", "repro.machine.costs", "irregular_costs", None),
    ("machine.costs", "repro.machine.costs", "bfs_scan_costs", None),
    ("machine.costs", "repro.machine.costs", "WorkCosts.take", None),
    ("machine.execute", "repro.machine.core", "Chip.execute", None),
    ("sim.run", "repro.sim.engine", "Engine.run", _observe_engine),
    ("runtime.parallel_for", "repro.runtime.base", "RuntimeSpec.parallel_for",
     _observe_loop),
    ("kernels.coloring", "repro.kernels.coloring.parallel",
     "parallel_coloring", _observe_coloring),
    ("kernels.bfs", "repro.kernels.bfs.layered", "simulate_bfs",
     _observe_bfs),
    ("kernels.irregular", "repro.kernels.irregular", "simulate_irregular",
     None),
    ("campaign.execute", "repro.campaign.executor", "execute", None),
    ("campaign.store_get", "repro.campaign.store", "ResultStore.get",
     _observe_store_get),
    ("campaign.store_put", "repro.campaign.store", "ResultStore.put", None),
)

#: Modules that bind the targets by name; imported before patching so
#: every binding is rebound (and restored) together.
_CONSUMERS = ("repro.campaign.runners", "repro.experiments.fig1_coloring",
              "repro.experiments.fig3_irregular",
              "repro.experiments.fig4_bfs", "repro.graph.suite",
              "repro.graphstore.registry", "repro.kernels")


def _wrap(fn, name, recorder, capture, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if observe is not None:
            observe(capture, fn, args, kwargs, result)
        return result
    return wrapper


def _rebind_everywhere(old, new) -> None:
    """Point every ``repro`` module global bound to *old* at *new*."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


@contextmanager
def instrumented(recorder: SpanRecorder, capture: Capture):
    """Wrap every :data:`TARGETS` entry point in a span for the block."""
    for mod_name in _CONSUMERS:
        importlib.import_module(mod_name)
    undo = []
    try:
        for name, mod_name, attr, observe in TARGETS:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth,
                        _wrap(original, name, recorder, capture, observe))
                undo.append(lambda c=cls, m=meth, o=original:
                            setattr(c, m, o))
            else:
                original = getattr(module, attr)
                wrapper = _wrap(original, name, recorder, capture, observe)
                _rebind_everywhere(original, wrapper)
                undo.append(lambda o=original, w=wrapper:
                            _rebind_everywhere(w, o))
        yield
    finally:
        for restore in reversed(undo):
            restore()
