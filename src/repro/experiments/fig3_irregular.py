"""Figure 3 — speedup of the irregular-computation microbenchmark, one
panel per programming model, one series per iteration count (1, 3, 5, 10).

Paper outcomes (§V-C): OpenMP and TBB speedups *decrease* as the
computation grows (the FPU/issue pipeline saturates, so SMT helps less);
Cilk Plus *increases* (more work amortises its scheduling overhead); at
10 iterations all three models converge, topping out at ~49 on 121
threads vs. ~46 on 61.  Speedups are computed relative to the 1-thread
run of the same iteration count.
"""

from __future__ import annotations

from repro.experiments.harness import PanelResult, run_panel, scale_of
from repro.graph.suite import suite_graph
from repro.kernels.irregular import simulate_irregular
from repro.machine.config import KNF
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule, TlsMode)

__all__ = ["IRREGULAR_MODELS", "ITERATION_COUNTS", "irregular_cycles",
           "run_fig3"]

#: Best-performing runtime configuration per model (§V-C: OpenMP dynamic,
#: TBB simple).
IRREGULAR_MODELS: dict[str, RuntimeSpec] = {
    "OpenMP": RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC,
                          chunk=13),
    "CilkPlus": RuntimeSpec(ProgrammingModel.CILK, tls_mode=TlsMode.HOLDER,
                            chunk=13),
    "TBB": RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE,
                       chunk=13),
}

ITERATION_COUNTS = [1, 3, 5, 10]


def irregular_cycles(graph_name: str, model: str, n_threads: int,
                     iterations: int = 1, config=KNF, seed: int = 0) -> float:
    """Simulated cycles of one irregular run (``irregular`` cell runner)."""
    run = simulate_irregular(suite_graph(graph_name), n_threads,
                             iterations=iterations,
                             spec=IRREGULAR_MODELS[model], config=config,
                             cache_scale=scale_of(graph_name), seed=seed)
    return run.total_cycles


def run_fig3(graphs=None, threads=None, jobs=None,
             store=None) -> dict[str, PanelResult]:
    """Regenerate all three Figure 3 panels.

    Speedups are "computed relatively to the same number of iterations"
    (§V-C): for each (graph, iteration count) the baseline is the fastest
    1-thread run across the three models, shared by all three panels.
    So each iteration count is one ``run_panel`` sweep with the models as
    series, regrouped into one panel per model with the iteration counts
    as series.  A failed cell raises (``on_error="raise"``).
    """
    sweeps = {
        it: run_panel(f"fig3 ({it} iterations)",
                      {m: {"experiment": "irregular", "variant": m,
                           "params": {"iterations": it}}
                       for m in IRREGULAR_MODELS},
                      graphs=graphs, threads=threads, on_error="raise",
                      jobs=jobs, store=store)
        for it in ITERATION_COUNTS}
    out = {}
    for model in IRREGULAR_MODELS:
        title = f"Fig 3: irregular computation speedup, {model}"
        panel = PanelResult(title=title, thread_counts=sweeps[
            ITERATION_COUNTS[0]].thread_counts)
        for it, sweep in sweeps.items():
            label = f"{it} iteration{'s' if it > 1 else ''}"
            panel.series[label] = sweep.series[model]
        out[title] = panel
    return out
