"""``repro campaign`` — run, inspect and maintain sweep campaigns.

Subcommands (reached through the main ``repro`` entry point)::

    repro campaign run SPEC.json [--jobs N] [--store DIR] [--retries R]
                                 [--output results.json] [--summary s.json]
    repro campaign status SPEC.json [--store DIR]
    repro campaign cache {stats|ls|gc|clear|verify} [--store DIR]
                                 [--max-age DAYS] [--stale-only] [--repair]

``run`` expands the spec, executes every cell through the supervised
parallel executor with the content-addressed store enabled, prints a
summary and optionally writes the per-cell results (sorted keys, no
timestamps — a repeated run over a warm store is byte-identical) and a
machine-readable summary with the store's hit/miss statistics (what CI
asserts on).  Every computed cell is in the store before the next one
is reported, so after a crash (``kill -9``, power loss) running the
same ``run`` again over the same store serves every completed cell as
a hit and recomputes only the rest.  ``cache verify`` audits
every store object's integrity checksum; ``--repair`` quarantines the
corrupt ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro._util import atomic_write_text, sha256_hex

__all__ = ["main", "run_campaign", "campaign_results_dict"]


def run_campaign(spec, *, jobs=None, retries=None, store=None,
                 progress=False):
    """Execute every cell of *spec*; returns ``(cells, report)``.

    *store* may be a :class:`~repro.campaign.store.ResultStore`, a root
    path, or None for the default store; *retries* defaults to
    ``REPRO_RETRIES`` (1), matching ``run_panel``.
    """
    from repro.campaign.executor import default_retries, execute_cells
    from repro.campaign.store import ResultStore

    if store is None or isinstance(store, (str, os.PathLike)):
        store = ResultStore(store)
    if retries is None:
        retries = default_retries()
    cells = spec.expand()
    report = execute_cells(cells, jobs=jobs, retries=retries, store=store,
                           progress=progress, desc=f"cells ({spec.name})")
    return cells, report


def campaign_results_dict(spec, cells, report) -> dict:
    """Deterministic per-cell results payload (NaN rendered as null)."""
    results = {}
    for cell in cells:
        value = report.values.get(cell)
        entry = dict(cell.to_dict())
        entry["cycles"] = None if value is None or not math.isfinite(value) \
            else value
        error = report.errors.get(cell)
        if error is not None:
            entry["error"] = error
        results[cell.cell_id] = entry
    return {"campaign": spec.name, "spec": spec.to_dict(),
            "results": results}


def _summary_dict(spec, report, store) -> dict:
    return {
        "campaign": spec.name,
        "cells_total": report.total,
        "hits": report.hits,
        "computed": report.computed,
        "failed": report.failed,
        "hit_rate": report.hit_rate,
        "interrupted": report.interrupted,
        "elapsed_seconds": report.elapsed,
        "resilience": dict(report.resilience),
        "wall": report.wall(),
        "store": {"root": store.root, "fingerprint": store.fingerprint,
                  **store.stats.to_dict()},
    }


def _format_wall(wall: dict) -> str:
    """One-line rendering of a wall-clock counter block."""
    line = (f"wall: {wall['cells_per_second']:.1f} cells/s over "
            f"{wall['jobs']} worker(s), "
            f"utilization {wall['worker_utilization']:.0%}")
    if wall.get("store_gets"):
        line += (f", store lookups {wall['store_gets']} @ "
                 f"{wall['store_get_latency_s'] * 1000:.2f}ms")
    return line


def _wall_path(root, campaign: str) -> str:
    """The one last-run wall file of *campaign* under store *root*."""
    return os.path.join(root, "last-run",
                        f"{sha256_hex(campaign)[:16]}.json")


def _write_wall(spec, report, store) -> None:
    """Persist the run's wall counters, one file per campaign name.

    ``repro campaign status`` reads it back, so the throughput of the
    last run is inspectable without re-running.
    """
    path = _wall_path(store.root, spec.name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write_text(path, json.dumps(
        {"campaign": spec.name, "wall": report.wall()},
        sort_keys=True, indent=1) + "\n")


def _print_summary(spec, report, store) -> None:
    status = "interrupted" if report.interrupted else "complete"
    print(f"campaign {spec.name}: {status} — "
          f"{report.total} cell(s) in {report.elapsed:.1f}s")
    print(f"  store hits {report.hits}, "
          f"computed {report.computed}, failed {report.failed} "
          f"(hit-rate {report.hit_rate:.0%})")
    print("  " + _format_wall(report.wall()))
    print(f"  store {store.root} (code fingerprint {store.fingerprint})")


def _cmd_run(args) -> int:
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore

    spec = CampaignSpec.from_file(args.spec)
    store = ResultStore(args.store)
    cells, report = run_campaign(spec, jobs=args.jobs, retries=args.retries,
                                 store=store, progress=not args.quiet)
    if args.output:
        payload = campaign_results_dict(spec, cells, report)
        atomic_write_text(args.output, json.dumps(payload, sort_keys=True,
                                                  indent=1) + "\n")
        print(f"[results written to {args.output}]", file=sys.stderr)
    if args.summary:
        atomic_write_text(args.summary, json.dumps(
            _summary_dict(spec, report, store), sort_keys=True,
            indent=1) + "\n")
    _write_wall(spec, report, store)
    _print_summary(spec, report, store)
    if report.interrupted:
        return 130
    return 1 if report.failed else 0


def _cmd_status(args) -> int:
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore

    spec = CampaignSpec.from_file(args.spec)
    store = ResultStore(args.store)
    cells = spec.expand()
    cached = sum(store.contains(c.to_dict()) for c in cells)
    print(f"campaign {spec.name}: {len(cells)} cell(s), "
          f"{cached} cached, {len(cells) - cached} pending")
    print(f"  store {store.root} (code fingerprint {store.fingerprint})")
    last = _last_wall(store.root, spec.name)
    if last is not None:
        print("  last run: " + _format_wall(last["wall"]))
    return 0


def _last_wall(root, campaign: str) -> dict | None:
    """The persisted wall-counter block of *campaign*'s last run, if any."""
    try:
        with open(_wall_path(root, campaign), "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if data.get("campaign") == campaign and "wall" in data:
        return data
    return None


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.0f}h"
    return f"{seconds / 86400:.0f}d"


def _cmd_cache(args) -> int:
    from repro.campaign.store import ResultStore

    store = ResultStore(args.store)
    if args.action == "stats":
        entries = store.entries()
        current = sum(e.current for e in entries)
        size = sum(e.size_bytes for e in entries)
        print(f"store {store.root}")
        print(f"  code fingerprint {store.fingerprint}")
        print(f"  {len(entries)} object(s), {size} bytes; "
              f"{current} current, {len(entries) - current} stale")
    elif args.action == "ls":
        for e in store.entries():
            spec = e.spec if isinstance(e.spec, dict) else {}
            name = spec.get("experiment", "?")
            coord = (f"{name}/{spec.get('graph', '?')}/"
                     f"{spec.get('variant', '?')}@{spec.get('threads', '?')}")
            flag = " " if e.current else "!"
            print(f"{flag} {e.key[:16]}  {_format_age(e.age_seconds):>4}  "
                  f"{coord}")
    elif args.action == "gc":
        removed, kept = store.gc(max_age_days=args.max_age,
                                 stale_only=args.stale_only)
        print(f"gc: removed {removed} object(s), kept {kept}")
    elif args.action == "clear":
        print(f"clear: removed {store.clear()} object(s)")
    elif args.action == "verify":
        report = store.verify(repair=args.repair)
        print(f"verify: {report.checked} object(s) checked, "
              f"{report.ok} ok, "
              f"{len(report.corrupt) + len(report.quarantined)} corrupt"
              + (f" ({len(report.quarantined)} quarantined)"
                 if args.repair else ""))
        for path in report.corrupt:
            print(f"  corrupt: {path}")
        for path in report.quarantined:
            print(f"  quarantined: {path}")
        if report.corrupt:
            print("  (re-run with --repair to quarantine)")
            return 1
    return 0


def main(argv=None) -> int:
    """Entry point for ``repro campaign ...`` (returns the exit code)."""
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Parallel sweep campaigns with a content-addressed "
                    "result store.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a campaign spec")
    run_p.add_argument("spec", help="campaign spec JSON file")
    run_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default REPRO_JOBS or 1; "
                            "0 = one per CPU)")
    run_p.add_argument("--retries", type=int, default=None,
                       help="per-cell retry budget (default REPRO_RETRIES)")
    run_p.add_argument("--output", default=None, metavar="PATH",
                       help="write per-cell results JSON (deterministic "
                            "bytes for identical specs + code)")
    run_p.add_argument("--summary", default=None, metavar="PATH",
                       help="write run summary JSON incl. store hit stats")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress the progress/ETA line")

    status_p = sub.add_parser("status",
                              help="cached vs pending cells, no execution")
    status_p.add_argument("spec", help="campaign spec JSON file")

    cache_p = sub.add_parser("cache", help="store maintenance")
    cache_p.add_argument("action", choices=["stats", "ls", "gc", "clear",
                                            "verify"])
    cache_p.add_argument("--max-age", type=float, default=None,
                         metavar="DAYS", help="gc: also drop entries older "
                                              "than DAYS")
    cache_p.add_argument("--stale-only", action="store_true",
                         help="gc: only drop stale-fingerprint entries")
    cache_p.add_argument("--repair", action="store_true",
                         help="verify: quarantine corrupt objects")

    for p in (run_p, status_p, cache_p):
        p.add_argument("--store", default=None, metavar="DIR",
                       help="store root (default $REPRO_STORE or "
                            "~/.cache/repro)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "status":
            return _cmd_status(args)
        return _cmd_cache(args)
    except (ValueError, OSError) as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
