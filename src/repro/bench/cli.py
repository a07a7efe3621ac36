"""Command line for the benchmark harness (``repro bench ...``).

Subcommands::

    repro bench run                     # time figs, append to BENCH_figs.json
    repro bench profile --top 10        # wall-clock hot spots by subsystem
    repro bench compare A.json B.json   # perf gate: drift vs noise band

``run`` times the ``figs`` suite and appends one entry to
``BENCH_figs.json`` (in the working directory by default) unless
``--no-append``; ``--output`` additionally writes the bare entry to a
separate file for CI artifact upload.  ``compare`` exits non-zero on
regression past ``tolerance + noise floor`` — that exit code *is* the
CI perf gate.
``profile --suite figs|kernels`` attributes wall time to subsystem
buckets; ``--trace``/``--metrics`` also records the benchmarks in one
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
    from repro.bench.suite import SUITES, TRAJECTORY
    from repro.bench.timer import DEFAULT_REPEAT, DEFAULT_WARMUP

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="wall-clock benchmark harness and perf-trajectory gate")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="time the figs suite and record it")
    run.add_argument("--repeat", type=int, default=DEFAULT_REPEAT,
                     help="timed repetitions per benchmark "
                          f"(default: {DEFAULT_REPEAT})")
    run.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                     help="untimed warmup runs per benchmark "
                          f"(default: {DEFAULT_WARMUP})")
    run.add_argument("--filter", default=None, metavar="SUBSTR",
                     help="only run benchmarks whose name contains SUBSTR")
    run.add_argument("--trajectory", default=TRAJECTORY, metavar="PATH",
                     help=f"trajectory file to append to "
                          f"(default: ./{TRAJECTORY})")
    run.add_argument("--output", default=None, metavar="PATH",
                     help="also write this run's bare entry to PATH")
    run.add_argument("--no-append", action="store_true",
                     help="do not append to the trajectory file")

    prof = sub.add_parser("profile",
                          help="attribute wall time to subsystem buckets")
    prof.add_argument("--suite", choices=sorted(SUITES), default="kernels",
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
    cmp_.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                      help="relative regression tolerance before the noise "
                           f"floor (default: {DEFAULT_TOLERANCE})")
    return parser


def _cmd_run(args) -> int:
    from repro.bench.suite import append_entry, print_entry, run_suite
    entry = run_suite(repeat=args.repeat, warmup=args.warmup,
                      name_filter=args.filter,
                      progress=lambda line: print(line, file=sys.stderr))
    print_entry(entry)
    if args.output:
        atomic_write_text(args.output,
                          json.dumps(entry, sort_keys=True, indent=1) + "\n")
        print(f"entry written to {args.output}")
    if not args.no_append:
        data = append_entry(args.trajectory, entry)
        print(f"appended entry {len(data['entries'])} to {args.trajectory}")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "profile": _cmd_profile,
               "compare": _cmd_compare}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
