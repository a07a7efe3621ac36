"""Command line for the benchmark harness (``repro bench ...``).

Subcommands::

    repro bench run --suite figs        # measure, append to BENCH_figs.json
    repro bench profile --top 10        # wall-clock hot spots by subsystem
    repro bench compare A.json B.json   # perf gate: drift vs noise band
    repro bench trend BENCH_figs.json   # median history per benchmark

``run`` appends one entry to the suite's trajectory file (repo root by
default) unless ``--no-append``; ``--output`` additionally writes the
bare entry to a separate file for CI artifact upload.  ``compare``
exits non-zero on regression past ``tolerance + noise floor`` — that
exit code *is* the CI perf gate.
``profile --trace``/``--metrics`` also records the benchmarks in one
:class:`repro.obs.Observer` (frames labelled ``benchmark=<name>``) and
draws the longest simulated loop above the wall-clock table.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import nullcontext, redirect_stdout

from repro._util import atomic_write_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.bench.compare import DEFAULT_TOLERANCE
    from repro.bench.suite import suite_names

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="wall-clock benchmark harness and perf-trajectory gate")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark suite and record it")
    run.add_argument("--suite", choices=suite_names(), default="kernels",
                     help="benchmark suite to run (default: kernels)")
    run.add_argument("--repeat", type=int, default=None,
                     help="timed repetitions per benchmark "
                          "(default: REPRO_BENCH_REPEAT or 5)")
    run.add_argument("--warmup", type=int, default=None,
                     help="untimed warmup runs per benchmark "
                          "(default: REPRO_BENCH_WARMUP or 1)")
    run.add_argument("--filter", default=None, metavar="SUBSTR",
                     help="only run benchmarks whose name contains SUBSTR")
    run.add_argument("--trajectory", default=None, metavar="PATH",
                     help="trajectory file to append to "
                          "(default: ./BENCH_<suite>.json)")
    run.add_argument("--output", default=None, metavar="PATH",
                     help="also write this run's bare entry to PATH")
    run.add_argument("--no-append", action="store_true",
                     help="do not append to the trajectory file")

    prof = sub.add_parser("profile",
                          help="attribute wall time to subsystem buckets")
    prof.add_argument("--suite", choices=suite_names(), default="kernels",
                      help="suite to profile (default: kernels)")
    prof.add_argument("--filter", default=None, metavar="SUBSTR",
                      help="only profile benchmarks whose name contains "
                           "SUBSTR")
    prof.add_argument("--top", type=int, default=10,
                      help="rows per hot-spot table (default: 10)")
    prof.add_argument("--collapsed", default=None, metavar="PATH",
                      help="write flamegraph collapsed stacks to PATH")
    prof.add_argument("--min-coverage", type=float, default=None,
                      metavar="FRAC",
                      help="fail unless at least FRAC of wall time is "
                           "attributed to named subsystem buckets")
    prof.add_argument("--trace", default=None, metavar="PATH",
                      help="record a Chrome trace-event JSON of the "
                           "simulated runs (open in Perfetto)")
    prof.add_argument("--metrics", default=None, metavar="PATH",
                      help="record per-loop metric frames as JSONL")

    cmp_ = sub.add_parser("compare",
                          help="gate current results against a baseline")
    cmp_.add_argument("baseline", help="baseline trajectory or entry file")
    cmp_.add_argument("current", help="current trajectory or entry file")
    cmp_.add_argument("--tolerance", type=float, default=None,
                      help="relative regression tolerance before the noise "
                           f"floor (default: REPRO_BENCH_TOLERANCE or "
                           f"{DEFAULT_TOLERANCE})")

    trend = sub.add_parser("trend",
                           help="median history across a trajectory file")
    trend.add_argument("trajectory", nargs="?", default=None,
                       help="trajectory file (default: ./BENCH_<suite>.json)")
    trend.add_argument("--suite", choices=suite_names(), default="kernels",
                       help="suite whose default file to read when no "
                            "path is given")
    return parser


def _cmd_run(args) -> int:
    from repro.bench.suite import (append_entry, print_entry, run_suite,
                                   trajectory_path)
    entry = run_suite(args.suite, repeat=args.repeat, warmup=args.warmup,
                      name_filter=args.filter,
                      progress=lambda line: print(line, file=sys.stderr))
    print_entry(entry)
    if args.output:
        atomic_write_text(args.output,
                          json.dumps(entry, sort_keys=True, indent=1) + "\n")
        print(f"entry written to {args.output}")
    if not args.no_append:
        path = args.trajectory or trajectory_path(args.suite)
        data = append_entry(path, entry)
        print(f"appended entry {len(data['entries'])} to {path}")
    return 0


def _cmd_profile(args) -> int:
    from repro.bench.profiler import WallProfiler
    from repro.bench.suite import suite_benchmarks
    benches = suite_benchmarks(args.suite, args.filter)
    profiler = WallProfiler()
    obs = None
    if args.trace or args.metrics:
        from repro.obs import Observer
        obs = Observer()
    with obs if obs is not None else nullcontext():
        for bench in benches:
            print(f"profiling {bench.name} ({bench.description}) ...",
                  file=sys.stderr)
            cell = obs.registry.cell(benchmark=bench.name) \
                if obs is not None else nullcontext()
            with cell, redirect_stdout(io.StringIO()):
                profiler.profile(bench.fn)
    if obs is not None:
        _report_telemetry(obs, args.trace, args.metrics)
    report = profiler.report
    print(report.format_table(args.top))
    if args.collapsed:
        report.write_collapsed(args.collapsed)
        print(f"collapsed stacks ({len(report.stacks)} unique) written to "
              f"{args.collapsed}")
    if args.min_coverage is not None and report.coverage() < args.min_coverage:
        print(f"FAIL: coverage {report.coverage():.1%} is below the "
              f"required {args.min_coverage:.1%}", file=sys.stderr)
        return 1
    return 0


def _report_telemetry(obs, trace_path, metrics_path) -> None:
    """Write the requested artifacts, then draw the longest loop."""
    from repro.obs.gantt import longest_loop
    obs.write(trace_path=trace_path, metrics_path=metrics_path)
    events = obs.tracer.events
    if trace_path:
        print(f"trace:   {trace_path} ({len(events)} events — open in "
              f"Perfetto)")
    if metrics_path:
        print(f"metrics: {metrics_path} ({len(obs.frames)} frames)")
    print()
    print(longest_loop(obs.frames, events))
    print()


def _cmd_compare(args) -> int:
    from repro.bench.compare import compare_files
    report = compare_files(args.baseline, args.current,
                           tolerance=args.tolerance)
    print(report.format())
    return 0 if report.ok else 1


def _cmd_trend(args) -> int:
    from repro.bench.compare import format_trend
    from repro.bench.suite import load_trajectory, trajectory_path
    path = args.trajectory or trajectory_path(args.suite)
    print(format_trend(load_trajectory(path)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "profile": _cmd_profile,
               "compare": _cmd_compare, "trend": _cmd_trend}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
