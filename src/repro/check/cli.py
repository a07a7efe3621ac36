"""``repro check`` — run the shipped kernels under the concurrency checker.

Replays the graph kernels on tiny built-in graphs (or a named suite
graph) through :class:`repro.check.Checker` and reports the findings::

    repro check                               # all kernels, all runtimes
    repro check --kernel coloring --runtime openmp --json report.json
    repro check --kernel coloring --runtime openmp --seed-bug drop-region-join

Exit status is 0 iff no error-severity finding was recorded (unannotated
race or benign-bound violation) — annotated benign races are tallied,
never suppressed, and never fail the run.  ``--seed-bug`` removes a class
of happens-before edges.  On the tiny presets only ``drop-region-join``
makes the run fail, which is how CI proves the detector depends on the
region join.  ``drop-barrier`` and ``drop-cond`` leave the report
unchanged; ``drop-atomic`` and ``drop-steal`` only raise the benign-race
tallies (and ``drop-atomic`` zeroes the sync-op count).

``--assert-unperturbed`` additionally runs every cell once *without* the
checker and fails unless the simulated cycle counts are byte-identical —
the zero-perturbation guarantee the observer design promises.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from dataclasses import replace

from repro.check.checker import DROP_EDGE_KINDS, Checker, checking
from repro.check.report import CheckReport

__all__ = ["main"]

KERNELS = ("coloring", "bfs", "irregular")
RUNTIMES = ("openmp", "cilk", "tbb")

#: Tiny graphs exercising distinct sharing shapes: dense adjacency
#: (every chunk pair overlaps), bounded-degree locality, and irregular
#: degree skew.  Small enough that the full all-pairs chunk analysis
#: stays instant, rich enough that every kernel's benign races appear.
TINY_GRAPHS = ("complete16", "grid8x6", "er120")


def _make_graph(name: str):
    """Materialise a tiny preset graph (or a suite graph by name)."""
    from repro.graph import generators as gen
    if name == "complete16":
        return gen.complete(16)
    if name == "grid8x6":
        return gen.grid2d(8, 6)
    if name == "er120":
        return gen.erdos_renyi(120, 480, seed=7)
    from repro.graph.suite import suite_graph
    return suite_graph(name)


def _runtime_spec(runtime: str, chunk: int):
    """The representative RuntimeSpec for one runtime family."""
    from repro.runtime.base import (Partitioner, ProgrammingModel,
                                    RuntimeSpec, Schedule)
    if runtime == "openmp":
        return RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC,
                           chunk=chunk)
    if runtime == "cilk":
        return RuntimeSpec(ProgrammingModel.CILK, chunk=chunk)
    return RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE,
                       chunk=chunk)


def _run_cell(kernel: str, graph, spec, n_threads: int, config, seed: int):
    """Execute one (kernel, graph, runtime) cell; returns total cycles."""
    if kernel == "coloring":
        from repro.kernels.coloring.parallel import parallel_coloring
        run = parallel_coloring(graph, n_threads, spec=spec, config=config,
                                seed=seed)
    elif kernel == "bfs":
        from repro.kernels.bfs.layered import simulate_bfs
        variant = {"openmp": "openmp-block", "cilk": "cilk-bag",
                   "tbb": "tbb-block"}[_spec_family(spec)]
        run = simulate_bfs(graph, n_threads, variant=variant, config=config,
                           seed=seed)
    else:
        from repro.kernels.irregular import simulate_irregular
        run = simulate_irregular(graph, n_threads, iterations=2, spec=spec,
                                 config=config, seed=seed)
    return run.total_cycles


def _spec_family(spec) -> str:
    """Map a RuntimeSpec back to its runtime-family name."""
    from repro.runtime.base import ProgrammingModel
    return {ProgrammingModel.OPENMP: "openmp", ProgrammingModel.CILK: "cilk",
            ProgrammingModel.TBB: "tbb"}[spec.model]


def _merge(cells) -> CheckReport:
    """Fold per-cell reports into one.

    Each cell is an independent simulation, so each gets its own
    :class:`Checker` — sharing one would manufacture happens-before
    relations (or, with dropped edges, phantom races) between executions
    that never coexisted.  With more than one cell, findings and loop
    labels are prefixed with their ``kernel/runtime/graph`` cell id.
    """
    merged = CheckReport()
    multi = len(cells) > 1
    for tag, rep in cells:
        for f in rep.findings:
            merged.add(replace(f, message=f"[{tag}] {f.message}")
                       if multi else f)
        for arr, t in rep.benign.items():
            cur = merged.benign.get(arr)
            if cur is None:
                merged.benign[arr] = replace(t)
            else:
                cur.pairs += t.pairs
                cur.cells += t.cells
                cur.writes += t.writes
                cur.expected = cur.expected or t.expected
        for key, val in rep.counters.items():
            merged.count(key, val)
        merged.loops.extend(f"{tag}:{lbl}" if multi else lbl
                            for lbl in rep.loops)
    return merged


def main(argv=None) -> int:
    """Entry point for ``repro check`` (returns the exit code)."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Replay simulated kernel executions through the "
                    "happens-before concurrency checker.")
    parser.add_argument("--kernel", default="all",
                        choices=KERNELS + ("all",),
                        help="kernel family to check (default: all)")
    parser.add_argument("--runtime", default="all",
                        choices=RUNTIMES + ("all",),
                        help="runtime model to check (default: all)")
    parser.add_argument("--graph", default=None,
                        help="a single graph: one of the tiny presets "
                             f"{', '.join(TINY_GRAPHS)} or a suite graph "
                             "name (default: all tiny presets)")
    parser.add_argument("--threads", type=int, default=4,
                        help="simulated thread count (default: 4)")
    parser.add_argument("--chunk", type=int, default=8,
                        help="chunk/grain size (default: 8)")
    parser.add_argument("--seed", type=int, default=1,
                        help="simulation seed (default: 1)")
    parser.add_argument("--seed-bug", default=None, metavar="KIND",
                        choices=sorted("drop-" + k for k in DROP_EDGE_KINDS),
                        help="drop a class of happens-before edges to seed "
                             "a synchronisation bug; on the tiny presets "
                             "only drop-region-join makes the run fail; "
                             "the other kinds exit 0")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the full report as JSON ('-' = stdout)")
    parser.add_argument("--assert-unperturbed", action="store_true",
                        help="also run uninstrumented and fail unless the "
                             "simulated cycles are identical")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    args = parser.parse_args(argv)

    from repro.machine.config import KNF
    config = KNF.with_(name="check-tiny", n_cores=max(2, args.threads // 2),
                       smt_per_core=2)

    kernels = KERNELS if args.kernel == "all" else (args.kernel,)
    runtimes = RUNTIMES if args.runtime == "all" else (args.runtime,)
    graph_names = (args.graph,) if args.graph else TINY_GRAPHS
    drop = frozenset({args.seed_bug[len("drop-"):]} if args.seed_bug else ())

    cells = []
    perturbed = []
    for gname in graph_names:
        graph = _make_graph(gname)
        for kernel in kernels:
            for runtime in runtimes:
                spec = _runtime_spec(runtime, args.chunk)
                checker = Checker(drop_edges=drop)
                with checking(checker):
                    cycles = _run_cell(kernel, graph, spec, args.threads,
                                       config, args.seed)
                cells.append((f"{kernel}/{runtime}/{gname}",
                              checker.finalize()))
                if not args.quiet:
                    print(f"  checked {kernel:9s} {runtime:7s} on "
                          f"{gname}: {cycles:.0f} simulated cycles",
                          file=sys.stderr)
                if args.assert_unperturbed:
                    perturbed.append(
                        (kernel, runtime, gname, cycles, spec))
    report = _merge(cells)

    if args.assert_unperturbed:
        for kernel, runtime, gname, cycles, spec in perturbed:
            graph = _make_graph(gname)
            bare = _run_cell(kernel, graph, spec, args.threads, config,
                             args.seed)
            if bare != cycles or not np.isfinite(bare):
                print(f"PERTURBATION: {kernel}/{runtime}/{gname} simulated "
                      f"{cycles:.6f} cycles checked vs {bare:.6f} bare",
                      file=sys.stderr)
                return 3
        if not args.quiet:
            print("  unperturbed: checked and bare cycle counts identical",
                  file=sys.stderr)

    if args.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            from repro._util import atomic_write_text
            atomic_write_text(args.json, text)
            print(f"[report written to {args.json}]", file=sys.stderr)
    if args.json != "-":
        print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
