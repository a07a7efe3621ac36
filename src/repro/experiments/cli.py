"""Command-line entry point: ``repro-experiments <what>``.

Regenerates the paper's tables and figures as ASCII tables, e.g.::

    repro-experiments table1
    repro-experiments fig1 --fast
    repro-experiments all

Telemetry (``repro.obs``):

* ``--trace PATH`` / ``--metrics PATH`` on any figure run wraps the
  whole run in an :class:`~repro.obs.Observer` and writes the Chrome
  trace / metrics JSONL next to the ASCII output (``repro bench
  profile`` takes the same two options and also draws the Gantt of the
  longest loop);
* ``diff-metrics BASELINE CURRENT`` compares two metrics dumps exactly
  and exits non-zero on any cycle-breakdown difference, printing the
  differing components — the diagnostic behind the CI telemetry gate.

Campaigns (``repro.campaign``):

* ``repro campaign run|status|cache ...`` delegates to
  :mod:`repro.campaign.cli` — declarative sweep specs, a parallel
  executor and a content-addressed result store;
* ``--jobs N`` computes any figure's sweep cells on N worker processes
  (bitwise-identical to the serial run); ``--store DIR`` caches every
  finished cell so repeated figure/ablation/CI runs recompute nothing;
* ``repro chaos SPEC.json`` delegates to :mod:`repro.campaign.chaos` —
  runs a campaign under injected process faults (worker SIGKILL, runner
  hangs/exceptions, store corruption) and fails unless the report is
  byte-identical to a clean serial run.

Static analysis (``repro.lint``):

* ``repro lint ...`` delegates to :mod:`repro.lint.cli` — the AST-level
  invariant checker (determinism, env hygiene, observer gating, kernel
  footprints, lock/barrier pairing) behind the CI lint gate.

Graph registry (``repro.graphstore``):

* ``repro graphs build|ls|verify|gc ...`` delegates to
  :mod:`repro.graphstore.cli` — named graphs (``suite:ldoor``,
  ``tube:1m``, ``rmat:s20``) built once as checksummed ``.rgr``
  binaries and memory-mapped on every later load; with
  ``REPRO_GRAPH_DIR`` set, suite graphs everywhere (figures, campaign
  workers) resolve through the registry instead of regenerating.

Benchmarking (``repro.bench``):

* ``repro bench run|profile|compare ...`` delegates to
  :mod:`repro.bench.cli` — the wall-clock benchmark harness:
  median-of-K timing of the figure sweeps appended to
  ``BENCH_figs.json``, subsystem-bucketed wall profiling with flamegraph
  export, and the same-runner perf-regression gate.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext

__all__ = ["main"]

_CHOICES = ["table1", "fig1", "fig2", "fig3", "fig4", "fig-faults",
            "ablations", "chunk-sweep", "diff-metrics", "all"]

#: Figure runs that honour --trace/--metrics instrumentation.
_OBSERVABLE = {"fig1", "fig2", "fig3", "fig4", "fig-faults", "ablations",
               "chunk-sweep", "all"}


class _VersionAction(argparse.Action):
    """``--version``: package version + campaign-store code fingerprint.

    The fingerprint half of every store key is surfaced here so a user
    can see at a glance whether two checkouts will share cache entries.
    Computed lazily — it hashes the whole source tree.
    """

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        import repro
        from repro.campaign.store import code_fingerprint
        print(f"repro {repro.__version__} "
              f"(code fingerprint {code_fingerprint()})")
        parser.exit()


def main(argv=None) -> int:
    """Entry point for ``repro-experiments`` (returns the exit code)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        from repro.campaign.cli import main as campaign_main
        return campaign_main(list(argv[1:]))
    if argv and argv[0] == "chaos":
        from repro.campaign.chaos import main as chaos_main
        return chaos_main(list(argv[1:]))
    if argv and argv[0] == "check":
        from repro.check.cli import main as check_main
        return check_main(list(argv[1:]))
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main
        return lint_main(list(argv[1:]))
    if argv and argv[0] == "bench":
        from repro.bench.cli import main as bench_main
        return bench_main(list(argv[1:]))
    if argv and argv[0] == "graphs":
        from repro.graphstore.cli import main as graphs_main
        return graphs_main(list(argv[1:]))

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the "
                    "simulated Intel MIC machine.  'repro campaign ...' "
                    "runs declarative sweep campaigns instead.")
    parser.add_argument("--version", action=_VersionAction,
                        help="print version + campaign code fingerprint")
    parser.add_argument("what", choices=_CHOICES, help="experiment to run")
    parser.add_argument("paths", nargs="*", default=[],
                        help="for diff-metrics: BASELINE and CURRENT "
                             "metrics JSONL files")
    parser.add_argument("--fast", action="store_true",
                        help="subset of graphs/thread counts (sets REPRO_FAST)")
    parser.add_argument("--graphs", default=None,
                        help="comma-separated suite graph names")
    parser.add_argument("--threads", default=None,
                        help="comma-separated thread counts")
    parser.add_argument("--retries", type=int, default=None,
                        help="per-cell retry budget (sets REPRO_RETRIES)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for sweep cells (sets "
                             "REPRO_JOBS; 0 = one per CPU, default serial)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed result store root (sets "
                             "REPRO_STORE; cached cells are never "
                             "recomputed)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="fault scenario seed (sets REPRO_FAULT_SEED)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a Chrome trace-event JSON of the run "
                             "(open in Perfetto)")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="record per-loop metric frames as JSONL")
    args = parser.parse_args(argv)
    if args.paths and args.what != "diff-metrics":
        parser.error(f"{args.what} takes no positional paths "
                     f"(got {' '.join(args.paths)})")
    if (args.trace or args.metrics) and args.what not in _OBSERVABLE:
        parser.error(f"--trace/--metrics do not apply to {args.what}")

    if args.fast:
        os.environ["REPRO_FAST"] = "1"
    if args.graphs:
        os.environ["REPRO_GRAPHS"] = args.graphs
    if args.threads:
        os.environ["REPRO_THREADS"] = args.threads
    if args.retries is not None:
        os.environ["REPRO_RETRIES"] = str(args.retries)
    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.store:
        os.environ["REPRO_STORE"] = args.store
    if args.fault_seed is not None:
        os.environ["REPRO_FAULT_SEED"] = str(args.fault_seed)

    what = args.what
    if what == "diff-metrics":
        return _diff_metrics(args)

    from repro.experiments.report import print_panel
    from repro.experiments.table1 import run_table1

    if args.trace or args.metrics:
        from repro.obs import Observer
        obs = Observer(trace=bool(args.trace), metrics=bool(args.metrics))
    else:
        obs = None

    t0 = time.time()
    with obs if obs is not None else nullcontext():
        if what in ("table1", "all"):
            run_table1()
            print()
        if what in ("fig1", "all"):
            from repro.experiments.fig1_coloring import run_fig1
            for panel in run_fig1().values():
                print_panel(panel)
        if what in ("fig2", "all"):
            from repro.experiments.fig2_shuffled import run_fig2
            print_panel(run_fig2())
        if what in ("fig3", "all"):
            from repro.experiments.fig3_irregular import run_fig3
            for panel in run_fig3().values():
                print_panel(panel)
        if what in ("fig4", "all"):
            from repro.experiments.fig4_bfs import run_fig4
            for panel in run_fig4().values():
                print_panel(panel)
        if what in ("fig-faults", "all"):
            from repro.experiments.fig_faults import (format_kill_survival,
                                                      run_fig_faults)
            for panel in run_fig_faults().values():
                print_panel(panel)
            print("Kill survival (one thread killed mid-colouring):")
            print(format_kill_survival())
            print()
        if what == "chunk-sweep":
            from repro.experiments.chunk_sweep import run_chunk_sweep
            print_panel(run_chunk_sweep())
        if what in ("ablations", "all"):
            from repro.experiments.ablations import run_all_ablations
            for panel in run_all_ablations().values():
                print_panel(panel)
    if obs is not None:
        obs.write(trace_path=args.trace, metrics_path=args.metrics)
        for path, label in ((args.trace, "trace"), (args.metrics, "metrics")):
            if path:
                print(f"[{label} written to {path}]", file=sys.stderr)
    print(f"[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    return 0


def _diff_metrics(args) -> int:
    """``diff-metrics BASELINE CURRENT``: 0 iff the frames are identical."""
    from repro.obs.diff import diff_metrics_files

    if len(args.paths) != 2:
        print("diff-metrics needs exactly two paths: BASELINE CURRENT",
              file=sys.stderr)
        return 2
    report = diff_metrics_files(args.paths[0], args.paths[1])
    print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
