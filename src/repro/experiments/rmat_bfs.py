"""Graph500-style extension experiment: BFS on R-MAT graphs.

The paper grounds parallel BFS in the Graph 500 benchmark, whose inputs
are Kronecker/R-MAT graphs — low diameter, heavy-tailed degrees — the
structural opposite of the FEM suite.  This experiment runs the paper's
BFS variants on R-MAT inputs: with only ~6–10 BFS levels and very wide
frontiers, the analytic model predicts near-perfect scaling, and the
relaxed block queue should track it much more closely than on the deep
meshes of Figure 4.  It also reports how much edge work the
direction-optimising extension saves on these inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.experiments.harness import PanelResult, geomean, panel_threads
from repro.graph.generators import rmat
from repro.kernels.bfs.direction_optimizing import bfs_direction_optimizing
from repro.kernels.bfs.layered import simulate_bfs
from repro.kernels.bfs.sequential import frontier_profile
from repro.machine.config import KNF
from repro.models.bfs_model import bfs_model_curve

__all__ = ["run_rmat_bfs", "rmat_direction_savings", "RMAT_SCALES"]

RMAT_SCALES = [13, 14]


@lru_cache(maxsize=8)
def _rmat_graph(scale: int):
    return rmat(scale, edge_factor=8, seed=100 + scale,
                name=f"rmat{scale}")


def run_rmat_bfs(scales=None, threads=None, block: int = 8) -> PanelResult:
    """BFS thread sweep over R-MAT graphs (geomean), with the model."""
    scales = scales or RMAT_SCALES
    threads = threads if threads is not None else panel_threads()
    if 1 not in threads:
        threads = [1] + list(threads)

    variants = {"OpenMP-Block-relaxed": ("openmp-block", True),
                "CilkPlus-Bag-relaxed": ("cilk-bag", True)}
    cycles = {}
    for s in scales:
        g = _rmat_graph(s)
        for label, (kind, relaxed) in variants.items():
            for t in threads:
                run = simulate_bfs(g, t, variant=kind, relaxed=relaxed,
                                   block=block, config=KNF,
                                   cache_scale=0.05, seed=1)
                cycles[(s, label, t)] = run.total_cycles

    panel = PanelResult(title="Extension: BFS on R-MAT (Graph500-style) "
                              "graphs, Intel MIC",
                        thread_counts=list(threads))
    for s in scales:
        panel.baselines[f"rmat{s}"] = min(cycles[(s, v, 1)] for v in variants)
    for label in variants:
        per_graph = []
        for s in scales:
            base = panel.baselines[f"rmat{s}"]
            per_graph.append(
                np.asarray([base / cycles[(s, label, t)] for t in threads]))
        stacked = np.stack(per_graph)
        panel.series[label] = np.asarray(
            [geomean(stacked[:, i]) for i in range(len(threads))])

    model = []
    for s in scales:
        g = _rmat_graph(s)
        widths = frontier_profile(g, g.n_vertices // 2)
        raw = bfs_model_curve(widths, threads, block)
        model.append(raw / raw[0] if raw[0] > 0 else raw)
    stacked = np.stack(model)
    panel.series = {"Model": np.asarray(
        [geomean(stacked[:, i]) for i in range(len(threads))]),
        **panel.series}
    return panel


def rmat_direction_savings(scale: int = 14) -> dict:
    """Edge examinations: hybrid direction-optimising vs pure top-down."""
    g = _rmat_graph(scale)
    r = bfs_direction_optimizing(g, g.n_vertices // 2, alpha=8.0)
    return {
        "graph": g.name,
        "edges_hybrid": r.edges_examined,
        "edges_topdown": r.edges_examined_topdown_only,
        "saving": 1.0 - r.edges_examined / max(1, r.edges_examined_topdown_only),
        "directions": r.directions,
    }
