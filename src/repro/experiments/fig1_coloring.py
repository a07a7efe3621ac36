"""Figure 1 — speedup of the colouring implementations on all (naturally
ordered) graphs, one panel per programming model.

Paper variants and tuning (§V-B): OpenMP dynamic/guided best at chunk 100,
static at chunk 40; Cilk holder vs. worker-ID at grain 100; TBB
simple/auto/affinity at minimum chunk 40.  The suite here is ~1/8 the
paper's graph size, so chunk sizes scale by the same factor (13 / 5) to
preserve the chunks-per-thread structure the tuning produced.  Paper outcomes: dynamic pulls
ahead past 51 threads reaching ~72 at 121; Cilk variants nearly tie,
peaking ~32; TBB simple clearly best, peaking ~45 around 101 threads.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.harness import PanelResult, run_panel, scale_of, \
    ordered_suite_graph
from repro.machine.config import KNF
from repro.kernels.coloring.parallel import parallel_coloring
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule, TlsMode)

__all__ = ["COLORING_VARIANTS", "coloring_cycles", "run_fig1", "BEST_PER_MODEL"]

#: Every runtime variant the figure compares, with the paper's best chunks.
COLORING_VARIANTS: dict[str, RuntimeSpec] = {
    "OpenMP-dynamic": RuntimeSpec(ProgrammingModel.OPENMP,
                                  schedule=Schedule.DYNAMIC, chunk=13),
    "OpenMP-static": RuntimeSpec(ProgrammingModel.OPENMP,
                                 schedule=Schedule.STATIC, chunk=5),
    "OpenMP-guided": RuntimeSpec(ProgrammingModel.OPENMP,
                                 schedule=Schedule.GUIDED, chunk=13),
    "CilkPlus": RuntimeSpec(ProgrammingModel.CILK,
                            tls_mode=TlsMode.WORKER_ID, chunk=13),
    "CilkPlus-holder": RuntimeSpec(ProgrammingModel.CILK,
                                   tls_mode=TlsMode.HOLDER, chunk=13),
    "TBB-simple": RuntimeSpec(ProgrammingModel.TBB,
                              partitioner=Partitioner.SIMPLE, chunk=5),
    "TBB-auto": RuntimeSpec(ProgrammingModel.TBB,
                            partitioner=Partitioner.AUTO, chunk=5),
    "TBB-affinity": RuntimeSpec(ProgrammingModel.TBB,
                                partitioner=Partitioner.AFFINITY, chunk=5),
}

#: The winner of each panel — carried forward to Figure 2 (§V-B).
BEST_PER_MODEL = ["OpenMP-dynamic", "CilkPlus-holder", "TBB-simple"]

_PANELS = {
    "Fig 1(a): coloring speedup, OpenMP (natural order)":
        ["OpenMP-dynamic", "OpenMP-static", "OpenMP-guided"],
    "Fig 1(b): coloring speedup, Cilk Plus (natural order)":
        ["CilkPlus", "CilkPlus-holder"],
    "Fig 1(c): coloring speedup, TBB (natural order)":
        ["TBB-simple", "TBB-auto", "TBB-affinity"],
}


def coloring_cycles(graph_name: str, variant: str, n_threads: int,
                    ordering: str = "natural", config=KNF,
                    seed: int = 0, chunk: int | None = None) -> float:
    """Simulated cycles of one colouring run (``coloring`` cell runner).

    *chunk* overrides the variant's tuned chunk size.
    """
    spec = COLORING_VARIANTS[variant]
    if chunk is not None:
        spec = replace(spec, chunk=chunk)
    graph = ordered_suite_graph(graph_name, ordering)
    run = parallel_coloring(graph, n_threads, spec, config=config,
                            cache_scale=scale_of(graph_name), seed=seed)
    return run.total_cycles


def run_fig1(graphs=None, threads=None, jobs=None,
             store=None) -> dict[str, PanelResult]:
    """Regenerate all three Figure 1 panels.

    All eight variants are swept together so every panel shares the same
    per-graph baseline — "the configuration that performs the fastest on
    1 thread for that graph" (§V-A), which in practice is an OpenMP run.
    ``jobs``/``store`` reach the campaign executor via ``run_panel``.
    """
    panel = {v: {"experiment": "coloring", "variant": v,
                 "params": {"ordering": "natural"}}
             for v in COLORING_VARIANTS}
    combined = run_panel("fig1", panel, graphs=graphs, threads=threads,
                         jobs=jobs, store=store)
    out = {}
    for title, variants in _PANELS.items():
        panel = PanelResult(title=title,
                            thread_counts=combined.thread_counts,
                            baselines=combined.baselines)
        panel.series = {v: combined.series[v] for v in variants}
        out[title] = panel
    return out
