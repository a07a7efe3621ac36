"""Chaos harness: prove campaigns survive process-level mayhem.

``repro chaos SPEC.json`` runs one campaign three times and demands the
same bytes every time:

1. **clean baseline** — serial, in-process, no faults: the ground-truth
   per-cell results payload;
2. **chaotic run** — parallel under the supervised executor while
   injecting process-level faults chosen by a seeded RNG:

   * *worker SIGKILL*: the victim cell's first attempt kills its own
     worker with ``SIGKILL`` mid-cell (indistinguishable, from the
     supervisor's side, from the OOM killer) — supervision must detect
     the death, requeue the cell and replace the worker;
   * *runner hang*: the victim cell's first attempt sleeps past the
     cell deadline — the supervisor must SIGKILL the hung worker and
     retry;
   * *runner exception*: the victim cell's first attempt raises — the
     retry must recover it;
   * *store truncation*: mid-run, a just-written store object is
     truncated on disk — integrity checksums must quarantine it later
     instead of serving garbage;

3. **warm re-run** — over the chaos store (now containing the truncated
   object): corrupt entries must be quarantined and recomputed.

Every fault is **injected exactly once per victim cell** via marker
files in ``REPRO_CHAOS_DIR`` (created with ``O_EXCL``), so retries
succeed and the final report must be *byte-identical* to the clean
baseline — the property that makes scalability sweeps trustworthy on
flaky hardware.  Victim selection is seeded (``--seed``); nothing in
the harness reads wall-clock entropy.

The worker-side hooks are plain environment variables
(``REPRO_CHAOS_KILL_CELLS`` / ``REPRO_CHAOS_HANG_CELLS`` /
``REPRO_CHAOS_FAIL_CELLS`` — csv lists of cell ids — plus
``REPRO_CHAOS_DIR`` and ``REPRO_CHAOS_HANG_SECONDS``), so any runner
executed through :func:`chaos_run_cell` can be faulted without code
changes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro._util import env_csv, env_float, env_str

__all__ = ["chaos_run_cell", "run_chaos", "ChaosReport", "main"]


class ChaosInjectedError(RuntimeError):
    """The synthetic failure raised for ``REPRO_CHAOS_FAIL_CELLS``."""


def _once(marker_dir: str, kind: str, cell_id: str) -> bool:
    """True exactly once per (kind, cell): atomically claim the marker."""
    path = os.path.join(marker_dir, f"{kind}-{cell_id}")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def chaos_run_cell(cell) -> float:
    """Run one campaign cell with the env-configured faults applied.

    Drop-in replacement for :func:`repro.campaign.runners.run_cell`
    inside chaos runs.  Each configured fault fires on the *first*
    attempt of its victim cell only (marker files make "first" exact
    across worker replacements), so supervised retries converge on the
    clean result.
    """
    from repro.campaign.runners import run_cell
    from repro.campaign.spec import CellSpec
    if isinstance(cell, dict):
        cell = CellSpec.from_dict(cell)
    marker_dir = env_str("REPRO_CHAOS_DIR")
    if marker_dir:
        cell_id = cell.cell_id
        if cell_id in (env_csv("REPRO_CHAOS_KILL_CELLS") or []) \
                and _once(marker_dir, "kill", cell_id):
            os.kill(os.getpid(), signal.SIGKILL)
        if cell_id in (env_csv("REPRO_CHAOS_HANG_CELLS") or []) \
                and _once(marker_dir, "hang", cell_id):
            time.sleep(float(env_float("REPRO_CHAOS_HANG_SECONDS", 3600.0,
                                       lo=0.0)))
        if cell_id in (env_csv("REPRO_CHAOS_FAIL_CELLS") or []) \
                and _once(marker_dir, "fail", cell_id):
            raise ChaosInjectedError(f"injected failure for cell {cell_id}")
    return run_cell(cell)


@dataclass
class ChaosReport:
    """What the harness did and whether the invariants held."""

    cells: int = 0
    kills: list = field(default_factory=list)       # victim cell ids
    hangs: list = field(default_factory=list)
    fails: list = field(default_factory=list)
    truncated: list = field(default_factory=list)   # store paths
    chaos_identical: bool = False       # chaotic bytes == clean bytes
    warm_identical: bool = False        # warm re-run bytes == clean bytes
    quarantined: int = 0                # corrupt objects caught on re-run
    resilience: dict = field(default_factory=dict)
    clean_seconds: float = 0.0
    chaos_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        injected = self.kills or self.hangs or self.fails or self.truncated
        return bool(self.chaos_identical and self.warm_identical
                    and injected
                    and self.quarantined >= len(self.truncated))

    def to_dict(self) -> dict:
        return {"cells": self.cells, "kills": self.kills,
                "hangs": self.hangs, "fails": self.fails,
                "truncated": [os.path.basename(p) for p in self.truncated],
                "chaos_identical": self.chaos_identical,
                "warm_identical": self.warm_identical,
                "quarantined": self.quarantined,
                "resilience": self.resilience, "ok": self.ok}


def _payload_bytes(spec, cells, report) -> bytes:
    from repro.campaign.cli import campaign_results_dict
    payload = campaign_results_dict(spec, cells, report)
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def _pick_victims(cells, rng, kills: int, hangs: int, fails: int):
    """Disjoint victim cell-id sets, deterministically sampled."""
    ids = [c.cell_id for c in cells]
    want = min(kills + hangs + fails, len(ids))
    chosen = [ids[i] for i in
              sorted(rng.choice(len(ids), size=want, replace=False))]
    kills = min(kills, len(chosen))
    hangs = min(hangs, len(chosen) - kills)
    return (chosen[:kills], chosen[kills:kills + hangs],
            chosen[kills + hangs:])


class _ChaosEnv:
    """Pin the chaos env hooks for one run; restore afterwards."""

    _VARS = ("REPRO_CHAOS_DIR", "REPRO_CHAOS_KILL_CELLS",
             "REPRO_CHAOS_HANG_CELLS", "REPRO_CHAOS_FAIL_CELLS",
             "REPRO_CHAOS_HANG_SECONDS")

    def __init__(self, marker_dir, kills, hangs, fails, hang_seconds):
        self.values = {
            "REPRO_CHAOS_DIR": marker_dir,
            "REPRO_CHAOS_KILL_CELLS": ",".join(kills),
            "REPRO_CHAOS_HANG_CELLS": ",".join(hangs),
            "REPRO_CHAOS_FAIL_CELLS": ",".join(fails),
            "REPRO_CHAOS_HANG_SECONDS": str(hang_seconds),
        }
        self.saved: dict = {}

    def __enter__(self) -> "_ChaosEnv":
        for name in self._VARS:
            # Save/restore raw values; chaos_run_cell holds the
            # validated readers for these variables.
            self.saved[name] = os.environ.get(name)
            os.environ[name] = self.values[name]
        return self

    def __exit__(self, *exc: object) -> None:
        for name, old in self.saved.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old


def run_chaos(spec, *, jobs: int = 2, kills: int = 1, hangs: int = 1,
              fails: int = 1, truncate: int = 1, seed: int = 0,
              retries: int | None = None, timeout: float = 45.0,
              workdir: str | None = None,
              progress: bool = False) -> ChaosReport:
    """Execute the three-phase chaos protocol for *spec*.

    Stores and fault markers live under *workdir* (a temp
    directory by default).  *retries* is forced to at least 1 — hang
    and exception injections consume one attempt by design.  Returns a
    :class:`ChaosReport`; ``report.ok`` is the pass/fail verdict.
    """
    import tempfile
    from repro.campaign.executor import execute_cells
    from repro.campaign.store import ResultStore

    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    os.makedirs(workdir, exist_ok=True)
    marker_dir = os.path.join(workdir, "markers")
    os.makedirs(marker_dir, exist_ok=True)

    cells = spec.expand()
    rng = np.random.default_rng(seed)
    kill_ids, hang_ids, fail_ids = _pick_victims(cells, rng, kills, hangs,
                                                 fails)
    report = ChaosReport(cells=len(cells), kills=kill_ids, hangs=hang_ids,
                         fails=fail_ids)
    retries = max(1, retries if retries is not None else 1)

    # Phase 1: clean serial baseline.
    t0 = time.time()
    clean_store = ResultStore(os.path.join(workdir, "store-clean"))
    clean = execute_cells(cells, jobs=1, retries=retries,
                          store=clean_store, progress=progress,
                          desc="cells (clean)")
    report.clean_seconds = time.time() - t0
    clean_bytes = _payload_bytes(spec, cells, clean)

    # Phase 2: chaotic parallel run.  Truncation victims: after the
    # Nth computed cell lands in the store, damage its object in place.
    chaos_store = ResultStore(os.path.join(workdir, "store-chaos"))
    to_truncate = min(truncate, len(cells))

    def truncate_hook(cell, value) -> None:
        if len(report.truncated) >= to_truncate:
            return
        path = chaos_store._path(chaos_store.key(cell.to_dict()))
        if not os.path.isfile(path):
            return  # a failed/NaN cell is never stored
        # repro: ignore[crash-bare-write] deliberate fault injection:
        # the chaos harness corrupts a stored object in place to prove
        # the store's recovery path detects and repairs it.
        with open(path, "r+", encoding="utf-8") as fh:
            fh.truncate(max(0, os.path.getsize(path) // 2))
        report.truncated.append(path)

    t0 = time.time()
    with _ChaosEnv(marker_dir, kill_ids, hang_ids, fail_ids,
                   hang_seconds=max(timeout * 10, 600.0)):
        chaotic = execute_cells(cells, chaos_run_cell, jobs=max(2, jobs),
                                retries=retries, store=chaos_store,
                                timeout=timeout, on_cell=truncate_hook,
                                progress=progress, desc="cells (chaos)")
    report.chaos_seconds = time.time() - t0
    report.resilience = dict(chaotic.resilience)
    report.chaos_identical = _payload_bytes(spec, cells,
                                            chaotic) == clean_bytes

    # Phase 3: warm re-run over the damaged store — corrupt objects
    # must be quarantined and recomputed, not served.
    with _ChaosEnv(marker_dir, kill_ids, hang_ids, fail_ids,
                   hang_seconds=max(timeout * 10, 600.0)):
        warm = execute_cells(cells, chaos_run_cell, jobs=1,
                             retries=retries, store=chaos_store,
                             progress=progress, desc="cells (warm)")
    report.quarantined = chaos_store.stats.quarantined
    report.warm_identical = _payload_bytes(spec, cells, warm) == clean_bytes
    return report


def main(argv=None) -> int:
    """Entry point for ``repro chaos ...`` (returns the exit code)."""
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Run a campaign under injected process-level faults "
                    "(worker SIGKILL, runner hangs/exceptions, store "
                    "corruption) and fail unless the results are "
                    "byte-identical to a clean serial run.")
    parser.add_argument("spec", help="campaign spec JSON file")
    parser.add_argument("--jobs", type=int, default=2,
                        help="workers for the chaotic run (min 2)")
    parser.add_argument("--kills", type=int, default=1,
                        help="cells whose worker is SIGKILLed mid-cell")
    parser.add_argument("--hangs", type=int, default=1,
                        help="cells whose first attempt hangs past the "
                             "deadline")
    parser.add_argument("--fails", type=int, default=1,
                        help="cells whose first attempt raises")
    parser.add_argument("--truncate", type=int, default=1,
                        help="store objects truncated mid-run")
    parser.add_argument("--seed", type=int, default=0,
                        help="victim-selection seed")
    parser.add_argument("--retries", type=int, default=None,
                        help="per-cell retry budget (min 1)")
    parser.add_argument("--timeout", type=float, default=45.0,
                        help="per-cell deadline for the chaotic run "
                             "(seconds)")
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="stores/markers live here (default: temp dir)")
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH", help="write the chaos report JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    args = parser.parse_args(argv)

    from repro.campaign.spec import CampaignSpec
    try:
        spec = CampaignSpec.from_file(args.spec)
        report = run_chaos(spec, jobs=args.jobs, kills=args.kills,
                           hangs=args.hangs, fails=args.fails,
                           truncate=args.truncate, seed=args.seed,
                           retries=args.retries, timeout=args.timeout,
                           workdir=args.workdir,
                           progress=not args.quiet)
    except (ValueError, OSError) as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2

    print(f"chaos {spec.name}: {report.cells} cell(s); "
          f"injected {len(report.kills)} kill(s), "
          f"{len(report.hangs)} hang(s), {len(report.fails)} "
          f"exception(s), {len(report.truncated)} truncation(s)")
    res = report.resilience
    print(f"  supervision: {res.get('worker_deaths', 0)} worker death(s), "
          f"{res.get('requeues', 0)} requeue(s), "
          f"{res.get('timeouts', 0)} timeout(s), "
          f"{res.get('retries', 0)} retried attempt(s)")
    print(f"  chaotic run byte-identical to clean: "
          f"{report.chaos_identical}")
    print(f"  warm re-run byte-identical to clean: {report.warm_identical} "
          f"({report.quarantined} corrupt object(s) quarantined)")
    if args.json_path:
        from repro._util import atomic_write_text
        atomic_write_text(args.json_path,
                          json.dumps(report.to_dict(), sort_keys=True,
                                     indent=1) + "\n")
    print(f"chaos verdict: {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
