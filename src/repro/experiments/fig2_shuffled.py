"""Figure 2 — colouring speedup on the randomly ordered graphs.

Shuffling vertex IDs "break[s] all the locality that naturally appears in
the graphs" (§V-B), making the kernel purely memory-bound.  The paper
reports *super-linear* best speedups at 121 threads — OpenMP 153,
TBB 121, Cilk Plus 98 — because SMT hides the latency while the chip's
aggregate cache turns DRAM misses into ring transactions.
"""

from __future__ import annotations

from repro.experiments.fig1_coloring import BEST_PER_MODEL
from repro.experiments.harness import PanelResult, run_panel

__all__ = ["run_fig2", "PAPER_FIG2_AT_121"]

#: Paper's reported Figure 2 speedups at 121 threads.
PAPER_FIG2_AT_121 = {"OpenMP-dynamic": 153.0, "TBB-simple": 121.0,
                     "CilkPlus-holder": 98.0}


def run_fig2(graphs=None, threads=None, jobs=None, store=None) -> PanelResult:
    """Regenerate Figure 2 (best variant of each model, shuffled IDs)."""
    panel = {v: {"experiment": "coloring", "variant": v,
                 "params": {"ordering": "random"}} for v in BEST_PER_MODEL}
    return run_panel("Fig 2: coloring speedup, randomly ordered graphs",
                     panel, graphs=graphs, threads=threads, jobs=jobs,
                     store=store)
