"""Experiment harness: thread sweeps, baselines, and aggregation.

Follows the paper's §V-A methodology:

* MIC sweeps run 1..121 threads in steps of 10 (``THREADS_MIC``); host
  sweeps run 1..24 (``THREADS_HOST``).
* The speedup baseline for a graph is *the configuration that performs
  the fastest on 1 thread for that graph* within the figure's variant
  set.
* Speedups over multiple graphs are aggregated with the geometric mean.

Environment knobs (picked up by the benchmark suite so a laptop run can
be shortened): ``REPRO_GRAPHS`` — comma-separated subset of suite names;
``REPRO_THREADS`` — comma-separated thread counts; ``REPRO_FAST=1`` —
three graphs, five thread counts; ``REPRO_RETRIES`` — per-cell retry
count for :func:`run_panel` (default 1); ``REPRO_JOBS`` — worker
processes for the campaign executor (default 1 = serial in-process);
``REPRO_STORE`` — root of the content-addressed result store (unset = no
caching).

A panel maps each series label to the
:class:`~repro.campaign.spec.CellSpec` fields other than graph and
threads; :func:`run_panel` expands it over graphs × threads and runs the
cells through :func:`repro.campaign.runners.run_cell`, the runner every
campaign uses, so a figure cell and a campaign cell with the same
coordinates are one cell with one ID.

Resilience: :func:`run_panel` retries failing cells a bounded number of
times and records survivors as NaN instead of discarding the sweep
(``PanelResult.failures`` holds the error per cell).  The result store
is the resume path: with ``REPRO_STORE`` set, every finished cell is
content-addressed by its ``CellSpec`` + code fingerprint — the key
``repro campaign run`` uses — so a re-run of a crashed or interrupted
121-thread × 10-graph panel serves finished cells as cache hits and
recomputes only the failed or unfinished ones, and figures, ablations
and campaigns serve each other's cells.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from repro._util import env_bool, env_csv, env_int, env_str
from repro.graph.reorder import apply_ordering
from repro.graph.suite import SUITE, suite_graph, suite_scale

__all__ = ["THREADS_MIC", "THREADS_HOST", "PanelResult", "run_panel",
           "panel_graphs", "panel_threads", "ordered_suite_graph", "geomean",
           "env_csv", "fast_mode", "parse_thread_counts",
           "parse_graph_names"]

#: The paper's MIC thread sweep: "1 to 121 by increment of 10" (§V-B).
THREADS_MIC = [1] + list(range(11, 122, 10))
#: Host sweep: the dual X5680 exposes 24 hardware threads (Fig. 4d).
THREADS_HOST = [1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 23, 24]

_FAST_GRAPHS = ["auto", "inline_1", "pwtk"]
_FAST_THREADS_MIC = [1, 11, 31, 61, 121]
_FAST_THREADS_HOST = [1, 4, 8, 12, 16, 24]


def fast_mode() -> bool:
    """Whether ``REPRO_FAST`` shrinks sweeps (shared by every driver)."""
    return env_bool("REPRO_FAST")


def parse_thread_counts(values, source: str) -> list[int]:
    """Validated, sorted, de-duplicated thread counts.

    Entries must be positive integers — rejected with a clear
    :class:`ValueError` naming *source* otherwise (``0`` or negatives
    would later divide-by-zero in the speedup math; ``int()`` tracebacks
    are opaque).  Shared by the env knob, the CLI flag and campaign spec
    validation so every path fails with the same message.
    """
    counts = set()
    for token in values:
        try:
            t = int(token)
        except (TypeError, ValueError):
            raise ValueError(
                f"{source} entry {token!r} is not an integer") from None
        if t < 1:
            raise ValueError(f"{source} entry {t} must be >= 1")
        counts.add(t)
    if not counts:
        raise ValueError(f"{source} names no thread counts")
    return sorted(counts)


def parse_graph_names(values, source: str) -> list[str]:
    """Validated suite graph names (order preserved).

    Unknown graphs raise the same clear :class:`ValueError` shape as
    unknown thread counts — naming *source*, the offenders, and the
    valid set.
    """
    names = [str(g).strip() for g in values if str(g).strip()]
    unknown = [g for g in names if g not in SUITE]
    if unknown:
        raise ValueError(f"{source} contains unknown graphs {unknown} "
                         f"(suite: {list(SUITE)})")
    if not names:
        raise ValueError(f"{source} names no graphs")
    return names


def panel_graphs() -> list[str]:
    """Suite graphs to sweep (honours REPRO_GRAPHS / REPRO_FAST)."""
    tokens = env_csv("REPRO_GRAPHS")
    if tokens is not None:
        return parse_graph_names(tokens, source="REPRO_GRAPHS")
    if fast_mode():
        return list(_FAST_GRAPHS)
    return list(SUITE)


def panel_threads(host: bool = False) -> list[int]:
    """Thread sweep to use (honours REPRO_THREADS / REPRO_FAST)."""
    tokens = env_csv("REPRO_THREADS")
    if tokens is not None:
        env = env_str("REPRO_THREADS", "")
        return parse_thread_counts(tokens,
                                   source=f"REPRO_THREADS={env!r}")
    if fast_mode():
        return list(_FAST_THREADS_HOST if host else _FAST_THREADS_MIC)
    return list(THREADS_HOST if host else THREADS_MIC)


@lru_cache(maxsize=64)
def ordered_suite_graph(name: str, ordering: str, seed: int = 5):
    """Suite graph under the given vertex ordering (memoised)."""
    return apply_ordering(suite_graph(name), ordering, seed=seed)


def geomean(values) -> float:
    """Geometric mean (0 if any value is non-positive).

    NaN entries (failed panel cells) are skipped so a partial sweep still
    aggregates its surviving graphs; an all-NaN input returns NaN to keep
    the gap visible.
    """
    v = np.asarray(values, dtype=np.float64)
    if len(v) == 0:
        return 0.0
    finite = v[np.isfinite(v)]
    if len(finite) == 0:
        return float("nan")
    if np.any(finite <= 0):
        return 0.0
    return float(np.exp(np.log(finite).mean()))


@dataclass
class PanelResult:
    """One figure panel: speedup series per variant over a thread sweep.

    ``failures`` maps a failed cell ``(graph, variant, threads)`` to the
    error string that survived the retry budget; the corresponding
    speedups are NaN (partial-result semantics).  ``axis`` is the cells'
    :class:`~repro.campaign.spec.CellSpec` axis: ``thread_counts`` holds
    fault intensities in percent when it is ``"intensity"``.
    """

    title: str
    thread_counts: list[int]
    series: dict = field(default_factory=dict)        # label -> np.ndarray
    per_graph: dict = field(default_factory=dict)     # (label, graph) -> array
    baselines: dict = field(default_factory=dict)     # graph -> cycles at t=1
    failures: dict = field(default_factory=dict)      # (g, v, t) -> error str
    notes: str = ""
    axis: str = "threads"

    def best(self, label: str) -> tuple[int, float]:
        """(thread count, value) of the series' peak speedup."""
        s = self.series[label]
        i = int(np.argmax(s))
        return self.thread_counts[i], float(s[i])

    def at(self, label: str, n_threads: int) -> float:
        """Speedup of *label* at a specific thread count."""
        return float(self.series[label][self.thread_counts.index(n_threads)])


def run_panel(
    title: str,
    panel: dict[str, dict],
    graphs: list[str] | None = None,
    threads: list[int] | None = None,
    baseline_variants: list[str] | None = None,
    per_variant_baseline: bool = False,
    baseline_point: int = 1,
    retries: int | None = None,
    on_error: str = "nan",
    jobs: int | None = None,
    store=None,
) -> PanelResult:
    """Sweep a panel of cells over graphs × threads.

    *panel* maps each series label to the
    :class:`~repro.campaign.spec.CellSpec` fields other than ``graph`` and
    ``threads`` (``experiment``, ``variant`` and optionally ``machine``,
    ``params``, ``seed``, ``axis``); every point of the sweep is one cell
    run by :func:`repro.campaign.runners.run_cell`.  On the ``threads``
    axis a thread count above every series machine's hardware contexts
    raises :class:`ValueError` (as campaign validation does); one above
    only some series' machines runs those series at their maximum (the
    SMT ablation's 1-way series past 31).

    The per-graph baseline is the fastest ``baseline_point``-thread cycles
    over ``baseline_variants`` (default: every series), per the paper's
    methodology; the panel series are geometric means over graphs.  With
    ``per_variant_baseline`` each series is normalised by its own
    ``baseline_point`` run instead (the ablations compare machines this
    way).  ``baseline_point`` defaults to 1 (the 1-thread run); the fault
    experiments sweep fault intensity on this axis and baseline at
    intensity 0.

    Execution is one :func:`repro.campaign.executor.execute_cells` call,
    the executor call ``repro campaign run`` makes:

    * ``jobs`` (default: ``REPRO_JOBS`` env var, else 1) computes cells
      on a fork-based process pool — every cell is a pure function of
      its spec, so ``jobs=4`` output is bitwise identical to the serial
      run; ``0`` means one worker per CPU;
    * ``store`` (a :class:`~repro.campaign.store.ResultStore` or its
      root; default: ``REPRO_STORE`` env var, else off) caches each
      finished cell under its ``CellSpec`` + code fingerprint, so
      repeated sweeps across figures, ablations, campaigns and CI
      recompute nothing, and a crashed or interrupted sweep re-run with
      the same store resumes where it stopped (NaN cells are never
      stored, so failed cells are recomputed).

    Resilience (partial-result semantics):

    * a cell whose runner raises is retried up to ``retries`` times
      (default: ``REPRO_RETRIES`` env var, else 1) and then — with
      ``on_error="nan"``, the default — recorded as NaN with the error
      kept in ``PanelResult.failures``, leaving every other cell intact;
      ``on_error="raise"`` restores fail-fast behaviour.
    """
    from repro.campaign.executor import execute_cells
    from repro.campaign.spec import CellSpec
    from repro.campaign.store import ResultStore
    from repro.machine.config import MACHINES

    graphs = graphs if graphs is not None else panel_graphs()
    threads = threads if threads is not None else panel_threads()
    variants = list(panel)
    baseline_variants = baseline_variants or variants
    if baseline_point not in threads:
        threads = [baseline_point] + list(threads)
    if retries is None:
        retries = env_int("REPRO_RETRIES", 1, lo=0)
    if store is None:
        store = env_str("REPRO_STORE") or None
    if isinstance(store, (str, os.PathLike)):
        store = ResultStore(store)

    machines = {v: MACHINES[f.get("machine", "KNF")]
                for v, f in panel.items()
                if f.get("axis", "threads") == "threads"}
    if machines:
        max(machines.values(), key=lambda m: m.max_threads).check_threads(
            max(threads))

    def cell(v: str, graph: str, t: int) -> CellSpec:
        if v in machines:
            t = min(t, machines[v].max_threads)
        return CellSpec.from_dict({**panel[v], "graph": graph, "threads": t})

    cells = {(g, v, t): cell(v, g, t)
             for g in graphs for v in variants for t in threads}
    report = execute_cells(
        list(dict.fromkeys(cells.values())), jobs=jobs, retries=retries,
        on_error=on_error, store=store,
        progress=env_bool("REPRO_PROGRESS"), desc=f"cells ({title})")
    if report.interrupted:
        raise KeyboardInterrupt  # completed cells live in the store
    cycles = {key: report.values[c] for key, c in cells.items()}
    failures = {key: report.errors[c] for key, c in cells.items()
                if c in report.errors}

    result = PanelResult(title=title, thread_counts=list(threads),
                         axis=next(iter(cells.values())).axis,
                         failures=failures)
    for g in graphs:
        bases = [cycles[(g, v, baseline_point)] for v in baseline_variants]
        bases = [b for b in bases if math.isfinite(b)]
        result.baselines[g] = min(bases) if bases else float("nan")
    for v in variants:
        per_graph_speedups = []
        for g in graphs:
            base = cycles[(g, v, baseline_point)] if per_variant_baseline \
                else result.baselines[g]
            s = np.asarray([base / cycles[(g, v, t)] for t in threads])
            result.per_graph[(v, g)] = s
            per_graph_speedups.append(s)
        stacked = np.stack(per_graph_speedups)
        result.series[v] = np.asarray(
            [geomean(stacked[:, i]) for i in range(len(threads))])
    if failures:
        shown = [f"{k[0]}/{k[1]}@{k[2]}: {e}"
                 for k, e in list(failures.items())[:3]]
        more = "" if len(failures) <= 3 else f" (+{len(failures) - 3} more)"
        result.notes = (f"{len(failures)} cell(s) failed after {retries} "
                        f"retr{'y' if retries == 1 else 'ies'} — "
                        + "; ".join(shown) + more)
    return result


def repeat_average(fn: Callable[[int], float], runs: int = 10,
                   keep_last: int = 5, seed0: int = 0) -> float:
    """The paper's §V-A repetition protocol: "10 runs are performed, we
    report the average of the last 5 runs" (the first runs warm the
    runtime up; in the simulation they vary only through scheduler
    randomness, so this averages out steal-order noise).

    ``fn(seed) -> cycles``.
    """
    if runs < 1 or not 1 <= keep_last <= runs:
        raise ValueError(f"need 1 <= keep_last <= runs, got {keep_last}/{runs}")
    values = [fn(seed0 + i) for i in range(runs)]
    tail = values[-keep_last:]
    return float(np.mean(tail))


def scale_of(name: str) -> float:
    """Cache scale for a suite graph (1.0 for non-suite graphs)."""
    try:
        return suite_scale(name)
    except KeyError:
        return 1.0
