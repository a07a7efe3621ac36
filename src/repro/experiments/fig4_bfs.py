"""Figure 4 — speedup of the layered parallel BFS.

Panels:

* (a) ``pwtk`` on the MIC — the outlier whose narrow levels cap the
  achievable speedup (the model's slope break at 13 threads);
* (b) ``inline_1`` on the MIC — about twice pwtk's peak;
* (c) all graphs on the MIC — relaxed block queues (OpenMP/TBB) against
  the Leiserson–Schardl bag, with the analytic model;
* (d) all graphs on the host CPU — adding SNAP's OpenMP-TLS.

The "Model" series is the §III-C analytic bound
(:mod:`repro.models.bfs_model`), normalised by its own 1-thread value so
it is comparable to measured speedups (the paper's full-size graphs make
that normalisation ≈1; on the scaled suite the 1-thread block padding is
visible).  Measured baselines follow the paper: fastest 1-thread
configuration per graph within the panel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.experiments.harness import (PanelResult, geomean, panel_graphs,
                                       panel_threads, run_panel, scale_of)
from repro.graph.suite import suite_graph
from repro.kernels.bfs.layered import simulate_bfs
from repro.kernels.bfs.sequential import frontier_profile
from repro.machine.config import KNF, MACHINES, MachineConfig
from repro.models.bfs_model import bfs_model_curve

__all__ = ["BLOCK_SIZE", "bfs_cycles", "model_series", "run_fig4",
           "run_fig4_panel"]

#: The paper's best block size was 32 on the full-size graphs (§V-D); the
#: ~1/8-scale suite preserves the blocks-per-level structure at 8 (the
#: block-size ablation bench confirms 8 is the scaled optimum).
BLOCK_SIZE = 8

#: Variant label -> (simulate_bfs variant, relaxed).
_BFS_VARIANTS = {
    "OpenMP-Block-relaxed": ("openmp-block", True),
    "OpenMP-Block": ("openmp-block", False),
    "TBB-Block-relaxed": ("tbb-block", True),
    "OpenMP-TLS": ("openmp-tls", False),
    "CilkPlus-Bag-relaxed": ("cilk-bag", True),
}


def bfs_cycles(graph_name: str, variant: str, n_threads: int,
               config: MachineConfig = KNF, block: int = BLOCK_SIZE,
               seed: int = 0) -> float:
    """Simulated cycles of one BFS run (``bfs`` cell runner)."""
    kind, relaxed = _BFS_VARIANTS[variant]
    run = simulate_bfs(suite_graph(graph_name), n_threads, variant=kind,
                       relaxed=relaxed, block=block, config=config,
                       cache_scale=scale_of(graph_name), seed=seed)
    return run.total_cycles


@lru_cache(maxsize=32)
def _widths(graph_name: str):
    g = suite_graph(graph_name)
    return tuple(frontier_profile(g, g.n_vertices // 2).tolist())


def model_series(graphs: list[str], threads: list[int],
                 block: int = BLOCK_SIZE) -> np.ndarray:
    """Geomean analytic-model speedups, normalised at one thread."""
    per_graph = []
    for g in graphs:
        widths = np.asarray(_widths(g), dtype=np.float64)
        raw = bfs_model_curve(widths, threads, block)
        per_graph.append(raw / raw[0] if raw[0] > 0 else raw)
    stacked = np.stack(per_graph)
    return np.asarray([geomean(stacked[:, i]) for i in range(len(threads))])


def run_fig4_panel(title: str, variants: list[str], graphs: list[str],
                   machine: str = "KNF", threads: list[int] | None = None,
                   block: int = BLOCK_SIZE, jobs=None,
                   store=None) -> PanelResult:
    """One Figure 4 panel on a named machine, with the analytic model as
    an extra series."""
    threads = threads if threads is not None else \
        panel_threads(host=machine == "HOST_XEON")
    # Figure 4 plots each machine up to its own hardware contexts: an
    # explicit ``REPRO_THREADS`` list serves the KNF and host panels
    # alike, so counts a machine lacks are left off its panel rather
    # than failing it.
    threads = [t for t in threads if t <= MACHINES[machine].max_threads]
    params = {} if block == BLOCK_SIZE else {"block": block}
    panel = run_panel(title, {v: {"experiment": "bfs", "variant": v,
                                  "machine": machine, "params": params}
                              for v in variants},
                      graphs=graphs, threads=threads, jobs=jobs, store=store)
    panel.series = {"Model": model_series(graphs, panel.thread_counts, block),
                    **panel.series}
    return panel


def run_fig4(graphs=None, threads=None, jobs=None,
             store=None) -> dict[str, PanelResult]:
    """Regenerate all four Figure 4 panels."""
    graphs = graphs if graphs is not None else panel_graphs()
    block = ["OpenMP-Block-relaxed", "OpenMP-Block"]
    panels = [
        ("Fig 4(a): BFS speedup, pwtk on Intel MIC", block, ["pwtk"], "KNF"),
        ("Fig 4(b): BFS speedup, inline_1 on Intel MIC", block, ["inline_1"],
         "KNF"),
        ("Fig 4(c): BFS speedup, all graphs on Intel MIC",
         ["OpenMP-Block-relaxed", "TBB-Block-relaxed",
          "CilkPlus-Bag-relaxed"], graphs, "KNF"),
        ("Fig 4(d): BFS speedup, all graphs on host CPU",
         ["OpenMP-Block-relaxed", "TBB-Block-relaxed", "OpenMP-TLS",
          "CilkPlus-Bag-relaxed"], graphs, "HOST_XEON"),
    ]
    # The host panel always sweeps the host's own thread counts.
    return {title: run_fig4_panel(
        title, variants, on, machine,
        threads=None if machine == "HOST_XEON" else threads, jobs=jobs,
        store=store) for title, variants, on, machine in panels}
