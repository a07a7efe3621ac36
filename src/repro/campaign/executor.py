"""Parallel sweep executor: supervised worker processes over cells.

Every sweep cell — ``runner(key) -> cycles`` — is pure CPU on immutable
inputs, so ``fork``-ed worker processes escape the GIL and compute cells
genuinely in parallel while keeping bitwise-identical results (each
worker re-derives the same seeded simulation the serial path would).
The executor owns everything around the runner calls:

* **store short-circuit** — keys whose canonical spec is already in the
  content-addressed :class:`~repro.campaign.store.ResultStore` are
  served as hits without touching the workers, which is also how a
  killed run resumes: re-running it over the same store recomputes no
  completed cell;
* **worker supervision** — parallel execution runs on
  :class:`~repro.campaign.supervise.Supervisor`: per-worker children
  tracked by pid + heartbeat sweep, ``REPRO_CELL_TIMEOUT`` deadlines
  and dead-worker replacement with deterministic requeue — an
  OOM-killed or segfaulting worker costs one requeue, not a wedged
  campaign;
* **bounded retries with NaN semantics** — a failed attempt re-runs at
  once, up to the retry budget (``REPRO_RETRIES``, see
  :func:`default_retries`); a cell that keeps raising is recorded as
  NaN with its error string, mirroring
  :func:`repro.experiments.harness.run_panel`'s partial-result contract;
* **graceful Ctrl-C** — the first SIGINT stops submissions, drains the
  in-flight cells (workers ignore SIGINT) and returns a partial report
  with ``interrupted=True``; a second SIGINT aborts hard;
* **progress/ETA** — per-cell completion reporting on stderr (live
  ``\\r`` line on a TTY, every ~10% otherwise);
* **telemetry** — when a :mod:`repro.obs.metrics` registry is active,
  ``campaign.cells{status=...}`` counters count hit, computed and
  failed cells (the supervisor adds retry/requeue/timeout/death
  counters), and serial cells run inside ``registry.cell(...)`` scopes
  so frames keep their sweep labels.

Submission order is deterministic, every cell's outcome depends on that
cell alone, and results are keyed, not ordered, so ``--jobs N`` output
is bitwise identical to the serial run, failed cells included.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

from repro._util import env_int

__all__ = ["ExecutionReport", "execute", "execute_cells", "default_jobs",
           "default_retries"]


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial in-process).

    ``0`` means "one worker per CPU"; anything that is not a
    non-negative integer is rejected with a clear :class:`ValueError`.
    """
    jobs = env_int("REPRO_JOBS", 1, lo=0)
    return jobs or (os.cpu_count() or 1)


def default_retries() -> int:
    """Per-cell retry budget from ``REPRO_RETRIES`` (default 1).

    Campaigns and figure panels both resolve their budget here, so a
    cell gets the same number of attempts whichever command runs it.
    """
    return int(env_int("REPRO_RETRIES", 1, lo=0))


@dataclass
class ExecutionReport:
    """Outcome of one :func:`execute` call."""

    values: dict = field(default_factory=dict)   # key -> cycles (NaN = failed)
    errors: dict = field(default_factory=dict)   # key -> error string
    hits: int = 0
    computed: int = 0
    failed: int = 0
    elapsed: float = 0.0
    interrupted: bool = False
    resilience: dict = field(default_factory=dict)  # SupervisorStats.to_dict
    jobs: int = 1             # effective worker count of the compute phase
    busy_seconds: float = 0.0       # summed wall time inside runner calls
    store_gets: int = 0             # store lookups in the short-circuit pass
    store_get_seconds: float = 0.0  # summed wall time inside store.get

    @property
    def total(self) -> int:
        return self.hits + self.computed + self.failed

    @property
    def hit_rate(self) -> float:
        """Store hits over completed cells (0.0 when nothing ran)."""
        return self.hits / self.total if self.total else 0.0

    @property
    def cells_per_second(self) -> float:
        """Computed+failed cells per wall-clock second of the compute
        phase (hits are excluded — they never touch a worker)."""
        worked = self.computed + self.failed
        return worked / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker pool's wall-time budget spent inside
        runner calls (1.0 = perfectly packed; serial runs approach it)."""
        if self.elapsed <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.elapsed * self.jobs))

    @property
    def store_get_latency(self) -> float:
        """Mean seconds per store lookup (0.0 without a store)."""
        return self.store_get_seconds / self.store_gets \
            if self.store_gets else 0.0

    def wall(self) -> dict:
        """The wall-clock counter block (campaign status / summaries)."""
        return {"elapsed_s": self.elapsed,
                "jobs": self.jobs,
                "busy_s": self.busy_seconds,
                "cells_per_second": self.cells_per_second,
                "worker_utilization": self.worker_utilization,
                "store_gets": self.store_gets,
                "store_get_latency_s": self.store_get_latency}


class _Progress:
    """Per-cell progress/ETA line on stderr (quiet when disabled)."""

    def __init__(self, total: int, desc: str, enabled: bool):
        self.total = total
        self.desc = desc
        self.enabled = enabled and total > 0
        self.stream = sys.stderr
        self.tty = self.enabled and self.stream.isatty()
        self.step = max(1, total // 10)
        self.t0 = time.time()
        self._last_done = -1

    def update(self, report: ExecutionReport, final: bool = False) -> None:
        if not self.enabled:
            return
        done = report.total
        if not self.tty:
            if final and done == self._last_done:
                return
            if not final and done % self.step:
                return
            self._last_done = done
        elapsed = time.time() - self.t0
        # Failed cells took wall-clock too: counting only computed cells
        # made a mostly-failing campaign's ETA read "-" forever.
        worked = report.computed + report.failed
        rate = worked / elapsed if elapsed > 0 else 0.0
        remaining = self.total - done
        if not remaining:
            eta = "-"
        elif rate > 0:
            eta = f"{remaining / rate:.0f}s"
        elif done > 0:
            # Every cell so far was a hit — the remainder is served at
            # store speed, not compute speed.
            eta = "0s"
        else:
            eta = "-"
        line = (f"[campaign] {done}/{self.total} {self.desc} | "
                f"{report.hits} hits, {report.failed} failed | "
                f"{rate:.1f} cells/s | eta {eta}")
        if self.tty:
            end = "\n" if final else ""
            print(f"\r\x1b[2K{line}", end=end, file=self.stream, flush=True)
        else:
            print(line, file=self.stream, flush=True)


def _fork_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def execute(runner, keys, *, jobs: int | None = None, retries: int = 0,
            on_error: str = "nan", store=None, spec_for=None,
            labels_for=None, progress: bool = False, on_cell=None,
            desc: str = "cells", key_id=repr,
            timeout=None) -> ExecutionReport:
    """Run ``runner(key) -> cycles`` over *keys*, optionally in parallel.

    Parameters mirror the harness' resilience contract: *retries* is the
    per-cell retry budget, ``on_error="nan"`` records a spent budget as
    NaN + error string while ``"raise"`` re-raises (serial) or raises a
    :class:`RuntimeError` with the worker's error (parallel).  *store*
    with *spec_for* (``key -> canonical spec dict``) enables the
    content-addressed cache; *on_cell* (``key, value``) fires in the
    parent for every completed cell (the chaos harness hooks in
    here);
    *labels_for* (``key -> dict``) labels serial cells' telemetry frames.

    *key_id* (``key -> str``, default ``repr``) names the cell in the
    ``on_error="raise"`` error; *timeout* overrides
    ``REPRO_CELL_TIMEOUT``.

    On Ctrl-C the report comes back partial with ``interrupted=True``
    (completed cells are already persisted through *store*/*on_cell*);
    callers decide whether to re-raise.
    """
    from repro.obs import metrics as _obs_metrics

    keys = list(keys)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    jobs = jobs or (os.cpu_count() or 1)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if on_error not in ("nan", "raise"):
        raise ValueError(f"on_error must be 'nan' or 'raise', got {on_error!r}")

    report = ExecutionReport()
    registry = _obs_metrics.active()
    meter = _Progress(len(keys), desc, enabled=progress)

    def count(status: str) -> None:
        if registry is not None:
            registry.incr("campaign.cells", status=status)

    def record(key, value, error) -> None:
        report.values[key] = value
        if error is not None:
            report.errors[key] = error
            report.failed += 1
            count("failed")
        else:
            report.computed += 1
            count("computed")
            if store is not None and spec_for is not None \
                    and math.isfinite(value):
                store.put(spec_for(key), value)
        if on_cell is not None:
            on_cell(key, value)
        meter.update(report)

    # Store short-circuit: warm entries never touch a worker.
    work = []
    for key in keys:
        if store is not None and spec_for is not None:
            t_get = time.time()
            cached = store.get(spec_for(key))
            report.store_get_seconds += time.time() - t_get
            report.store_gets += 1
        else:
            cached = None
        if cached is not None:
            report.values[key] = cached
            report.hits += 1
            count("hit")
            if on_cell is not None:
                on_cell(key, cached)
            meter.update(report)
        else:
            work.append(key)

    t0 = time.time()
    ctx = _fork_context() if jobs > 1 else None
    if jobs > 1 and ctx is None:
        print("[campaign] fork start method unavailable; running serially",
              file=sys.stderr)
    try:
        # Even a single remaining cell goes through supervision when
        # parallel mode is on: the timeout/requeue machinery is the
        # point, not just the parallelism.
        if ctx is not None and work:
            report.jobs = min(jobs, len(work))
            _execute_pool(runner, work, ctx, report.jobs, retries,
                          record, report, timeout=timeout)
        else:
            report.jobs = 1
            _execute_serial(runner, work, retries, on_error, labels_for,
                            registry, record, report)
    finally:
        report.elapsed = time.time() - t0
        meter.update(report, final=True)

    if report.errors and on_error == "raise":
        key, error = next(iter(report.errors.items()))
        raise RuntimeError(f"cell {key_id(key)} failed after {retries} "
                           f"retr{'y' if retries == 1 else 'ies'}: {error}")
    return report


def _cell_labels(cell) -> dict:
    return {"graph": cell.graph, "variant": cell.variant,
            "threads": cell.threads}


def execute_cells(cells, runner=None, **kwargs) -> ExecutionReport:
    """:func:`execute` over :class:`~repro.campaign.spec.CellSpec` keys.

    The one executor call campaigns, figure panels and the chaos harness
    share: a cell is stored under its canonical dict, named by its cell
    ID and labelled by its coordinate.  *runner* defaults to
    :func:`repro.campaign.runners.run_cell`; *kwargs* go to
    :func:`execute`.
    """
    from repro.campaign.runners import run_cell
    from repro.campaign.spec import CellSpec

    return execute(runner or run_cell, cells, spec_for=CellSpec.to_dict,
                   labels_for=_cell_labels,
                   key_id=lambda cell: cell.cell_id, **kwargs)


def _execute_serial(runner, work, retries, on_error, labels_for, registry,
                    record, report) -> None:
    from contextlib import nullcontext

    for key in work:
        try:
            # The cell scope is single-use: rebuild it per attempt.
            error = None
            value = float("nan")
            for _ in range(1 + retries):
                scope = registry.cell(**labels_for(key)) \
                    if registry is not None and labels_for is not None \
                    else nullcontext()
                t_cell = time.time()
                try:
                    with scope:
                        value, error = float(runner(key)), None
                    break
                except Exception as exc:  # noqa: BLE001
                    error = exc
                finally:
                    report.busy_seconds += time.time() - t_cell
            if error is not None and on_error == "raise":
                raise error  # fail fast with the original exception
            record(key, value, None if error is None else
                   f"{type(error).__name__}: {error}")
        except KeyboardInterrupt:
            report.interrupted = True
            return


def _execute_pool(runner, work, ctx, jobs, retries, record, report, *,
                  timeout=None) -> None:
    """Supervised parallel execution with graceful Ctrl-C draining.

    The heavy lifting — worker lifecycle, heartbeat sweeps, timeouts,
    requeues and retries — lives in
    :class:`~repro.campaign.supervise.Supervisor`; this wrapper adapts
    its callback to the executor's ``record`` contract and mirrors the
    interrupt/stats state onto the report.
    """
    from repro.campaign.supervise import Supervisor

    supervisor = Supervisor(runner, ctx, jobs, retries=retries,
                            timeout=timeout)
    try:
        report.interrupted = supervisor.run(work, record)
    except KeyboardInterrupt:
        report.interrupted = True
        raise  # second Ctrl-C: abort hard (workers already killed)
    finally:
        report.resilience = supervisor.stats.to_dict()
        report.busy_seconds = supervisor.stats.busy_seconds
