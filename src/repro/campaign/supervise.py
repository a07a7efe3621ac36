"""Supervised campaign workers: crash-safe parallel cell execution.

The old executor drove a bare ``multiprocessing.Pool`` with
``apply_async`` and polled the result handles — which never become ready
when the worker behind them is OOM-killed, segfaults or hangs, so one
dead child wedged the whole campaign.  This module replaces the pool
with **per-worker child processes the parent actively supervises**:

* each worker is a ``fork``-ed child with its own duplex pipe, tracked
  by pid; every scheduler tick the parent sweeps liveness
  (``Process.is_alive``) and per-cell deadlines — the heartbeat;
* a worker that dies mid-cell (SIGKILL, OOM, segfault) is detected,
  its in-flight cell is **requeued deterministically** (same attempt
  number, original submission order) and a replacement worker is forked;
  a cell that keeps killing its workers is failed after
  :data:`REQUEUE_LIMIT` requeues instead of looping forever;
* a cell that exceeds ``REPRO_CELL_TIMEOUT`` wall-clock seconds has its
  worker SIGKILLed and replaced; the timeout consumes one retry attempt
  (a hang is a runner bug, not infrastructure noise);
* a failed attempt re-runs at once at the cell's original position,
  within the same retry budget as the serial path.

Every cell is computed and reported on its own — no outcome depends on
another cell's — and results are keyed, never ordered, so supervised
parallel output is bitwise identical to a serial run, failures
included.  When a :mod:`repro.obs.metrics` registry is active the
supervisor counts ``campaign.retries``, ``campaign.requeues``,
``campaign.timeouts`` and ``campaign.worker_deaths``.
"""

from __future__ import annotations

import heapq
import signal
import sys
import time
from dataclasses import dataclass

from repro._util import env_float

__all__ = ["Supervisor", "SupervisorStats", "cell_timeout",
           "REQUEUE_LIMIT"]

#: Scheduler tick: the liveness/deadline sweep period in seconds.
_TICK = 0.05

#: A cell whose worker dies this many times is failed, not requeued —
#: the bound that keeps a segfault-on-input cell from cycling forever.
REQUEUE_LIMIT = 5


def cell_timeout() -> float | None:
    """Per-cell wall-clock timeout from ``REPRO_CELL_TIMEOUT`` (seconds).

    Unset or ``0`` disables the deadline (None).
    """
    value = env_float("REPRO_CELL_TIMEOUT", None, lo=0.0)
    return None if not value else value


@dataclass
class SupervisorStats:
    """Resilience accounting for one supervised execution."""

    retries: int = 0            # failed attempts re-dispatched
    requeues: int = 0           # in-flight cells requeued after a death
    timeouts: int = 0           # workers killed for exceeding the deadline
    worker_deaths: int = 0      # children that vanished mid-cell
    workers_spawned: int = 0
    busy_seconds: float = 0.0   # summed worker wall time holding a cell

    def to_dict(self) -> dict:
        return {"retries": self.retries, "requeues": self.requeues,
                "timeouts": self.timeouts,
                "worker_deaths": self.worker_deaths,
                "workers_spawned": self.workers_spawned,
                "busy_seconds": self.busy_seconds}


class _Worker:
    """One supervised child process and its pipe."""

    __slots__ = ("proc", "conn", "item", "started")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.item = None        # (seq, attempt, key) in flight, or None
        self.started = 0.0      # monotonic dispatch time

    @property
    def busy(self) -> bool:
        return self.item is not None


def _worker_main(conn, runner) -> None:
    """Child loop: one cell per request, one attempt per dispatch.

    Retries live in the parent so that a retry can land on a different
    worker than the attempt that failed.  Workers ignore SIGINT — Ctrl-C
    is the parent's drain protocol.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "exit":
            return
        key = message[1]
        try:
            value, error = float(runner(key)), None
        except BaseException as exc:  # noqa: BLE001 — cell isolation
            value, error = float("nan"), f"{type(exc).__name__}: {exc}"
        try:
            conn.send(("done", value, error))
        except (BrokenPipeError, OSError):
            return


class Supervisor:
    """Run cells on supervised workers; deliver final outcomes to a
    callback.

    Parameters
    ----------
    runner : callable
        ``runner(key) -> cycles`` (forked into every worker).
    ctx : multiprocessing context
        Must support ``fork`` (callers guard on this).
    jobs : int
        Maximum concurrent workers.
    retries : int
        Per-cell retry budget (a timeout consumes an attempt; a worker
        death does not — deaths have their own requeue bound).
    timeout : float | None
        Per-cell wall-clock deadline in seconds
        (default ``REPRO_CELL_TIMEOUT``; None/0 = no deadline).

    :meth:`run` takes the work list and ``on_result(key, value,
    error_or_None)``, fired exactly once per cell with its final
    outcome, in the parent.
    """

    def __init__(self, runner, ctx, jobs: int, *, retries: int = 0,
                 timeout: float | None = None):
        self.runner = runner
        self.ctx = ctx
        self.jobs = max(1, jobs)
        self.retries = retries
        self.timeout = cell_timeout() if timeout is None else (timeout or None)
        self.stats = SupervisorStats()
        self.interrupted = False
        self._requeues: dict[object, int] = {}
        self._workers: list[_Worker] = []
        self._pending: list = []    # heap of (seq, attempt, key)
        self._registry = None

    # ----- public surface --------------------------------------------------

    def pids(self) -> list[int]:
        """Live worker pids (chaos harnesses kill from this list)."""
        return [w.proc.pid for w in self._workers
                if w.proc.pid is not None and w.proc.is_alive()]

    def run(self, work, on_result) -> bool:
        """Execute *work*; returns True when interrupted by Ctrl-C.

        The first KeyboardInterrupt stops dispatch and drains in-flight
        cells (their results still reach *on_result*); a second one
        kills the workers and re-raises.
        """
        from repro.obs import metrics as _obs_metrics
        self._registry = _obs_metrics.active()
        # Already in sequence order, so already a valid heap.
        self._pending = [(seq, 1, key) for seq, key in enumerate(work)]
        try:
            while self._pending or any(w.busy for w in self._workers):
                try:
                    self._dispatch(on_result)
                    self._wait()
                    self._collect(on_result)
                except KeyboardInterrupt:
                    if self.interrupted:
                        raise  # second Ctrl-C: abort hard
                    self.interrupted = True
                    dropped = len(self._pending)
                    self._pending.clear()
                    in_flight = sum(w.busy for w in self._workers)
                    print(f"\n[campaign] interrupted — draining "
                          f"{in_flight} in-flight cell(s), dropping "
                          f"{dropped} pending (Ctrl-C again to abort)",
                          file=sys.stderr)
        finally:
            self._shutdown()
        return self.interrupted

    # ----- scheduling ------------------------------------------------------

    def _count(self, name: str, **labels) -> None:
        if self._registry is not None:
            self._registry.incr(name, **labels)

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(target=_worker_main,
                                args=(child_conn, self.runner), daemon=True)
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        self._workers.append(worker)
        self.stats.workers_spawned += 1
        return worker

    def _idle_worker(self) -> "_Worker | None":
        for worker in list(self._workers):
            if worker.busy:
                continue
            if worker.proc.is_alive():
                return worker
            self._discard(worker)   # died while idle: no cell to requeue
        if len(self._workers) < self.jobs:
            return self._spawn()
        return None

    def _dispatch(self, on_result) -> None:
        """Hand pending cells, lowest sequence first, to idle workers."""
        now = time.monotonic()
        while self._pending:
            worker = self._idle_worker()
            if worker is None:
                return
            seq, attempt, key = heapq.heappop(self._pending)
            worker.item = (seq, attempt, key)
            worker.started = now
            try:
                worker.conn.send(("run", key))
            except (BrokenPipeError, OSError):
                # Died between liveness check and send: requeue below.
                self._on_death(worker, on_result)

    def _wait(self) -> None:
        """Sleep until a result may be ready (bounded by the tick)."""
        from multiprocessing import connection
        conns = [w.conn for w in self._workers if w.busy]
        if conns:
            connection.wait(conns, timeout=_TICK)

    def _collect(self, on_result) -> None:
        """Heartbeat sweep: results, deaths, and blown deadlines."""
        now = time.monotonic()
        for worker in list(self._workers):
            if not worker.busy:
                continue
            message = None
            try:
                if worker.conn.poll():
                    message = worker.conn.recv()
            except (EOFError, OSError):
                message = None
            if message is not None:
                seq, attempt, key = worker.item
                worker.item = None
                self.stats.busy_seconds += max(0.0, now - worker.started)
                _, value, error = message
                self._settle(key, seq, attempt, value, error, on_result)
            elif not worker.proc.is_alive():
                self._on_death(worker, on_result)
            elif self.timeout is not None \
                    and now - worker.started > self.timeout:
                self._on_timeout(worker, now, on_result)

    # ----- outcome handling ------------------------------------------------

    def _settle(self, key, seq: int, attempt: int, value, error,
                on_result) -> None:
        """A worker returned: record, or retry at the original position."""
        if error is not None and attempt <= self.retries \
                and not self.interrupted:
            self.stats.retries += 1
            self._count("campaign.retries")
            heapq.heappush(self._pending, (seq, attempt + 1, key))
        else:
            on_result(key, value, error)

    def _on_death(self, worker: _Worker, on_result) -> None:
        """A worker vanished mid-cell: requeue its cell, replace it."""
        seq, attempt, key = worker.item
        worker.item = None
        self.stats.busy_seconds += max(0.0, time.monotonic() - worker.started)
        exitcode = worker.proc.exitcode
        self._discard(worker)
        self.stats.worker_deaths += 1
        self._count("campaign.worker_deaths")
        requeues = self._requeues.get(key, 0) + 1
        self._requeues[key] = requeues
        if requeues > REQUEUE_LIMIT or self.interrupted:
            on_result(key, float("nan"),
                      f"worker died {requeues} time(s) running this "
                      f"cell (last exitcode {exitcode})")
            return
        self.stats.requeues += 1
        self._count("campaign.requeues")
        # Same attempt number and original sequence: the death was the
        # infrastructure's fault, so it does not consume retry budget
        # and the cell goes back deterministically where it was.
        heapq.heappush(self._pending, (seq, attempt, key))

    def _on_timeout(self, worker: _Worker, now: float, on_result) -> None:
        """Deadline blown: SIGKILL the worker, charge a retry attempt."""
        seq, attempt, key = worker.item
        worker.item = None
        self.stats.busy_seconds += max(0.0, now - worker.started)
        self._discard(worker, kill=True)
        self.stats.timeouts += 1
        self._count("campaign.timeouts")
        self._settle(key, seq, attempt, float("nan"),
                     f"cell exceeded REPRO_CELL_TIMEOUT "
                     f"({self.timeout:g}s)", on_result)

    # ----- teardown --------------------------------------------------------

    def _discard(self, worker: _Worker, kill: bool = False) -> None:
        self._workers.remove(worker)
        if kill and worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=1.0)
        if worker.proc.is_alive():  # pragma: no cover — stuck in a syscall
            worker.proc.terminate()
        worker.conn.close()

    def _shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=0.5)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
            worker.conn.close()
        self._workers.clear()
