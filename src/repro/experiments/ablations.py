"""Ablation studies beyond the paper's figures (DESIGN.md §4).

Each ablation isolates one design choice the paper discusses:

* **block size** — the BFS block-queue tradeoff ("keeping the block size
  small, but not so small that we do not use atomics too often", §IV-C);
* **relaxed vs. locked** — the benign-race queue relaxation (§V-D:
  "relaxed queue variants led to consistently better speedup");
* **SMT** — the headline claim: without SMT contexts the memory-bound
  kernels stop scaling past the core count (§VI);
* **aggregate cache** — disable the chip-residency benefit (remote hits
  priced as DRAM): the super-linear Figure 2 speedup collapses to ≤ t;
* **memory bandwidth** — shrink the DRAM channel until the linear
  coloring scaling breaks (the saturation the KNF prototype avoided).

Each series is a campaign cell on a named machine of
:data:`repro.machine.config.MACHINES`, so ablation cells share the
result store with figures and campaigns.
"""

from __future__ import annotations

from repro.experiments.fig4_bfs import BLOCK_SIZE, run_fig4_panel
from repro.experiments.harness import PanelResult, run_panel

__all__ = ["run_block_size_ablation", "run_relaxed_ablation",
           "run_smt_ablation", "run_cache_ablation",
           "run_bandwidth_ablation", "run_all_ablations"]


def _coloring(machine: str, ordering: str) -> dict:
    """OpenMP-dynamic colouring on a named machine (ablation series)."""
    return {"experiment": "coloring", "variant": "OpenMP-dynamic",
            "machine": machine, "params": {"ordering": ordering}}


def run_block_size_ablation(graphs=None, threads=None, jobs=None,
                            store=None) -> PanelResult:
    """BFS speedup vs. queue block size (OpenMP-Block-relaxed)."""
    panel = {f"b={b}": {"experiment": "bfs",
                        "variant": "OpenMP-Block-relaxed",
                        "params": {} if b == BLOCK_SIZE else {"block": b}}
             for b in (8, 16, 32, 64, 128)}
    return run_panel("Ablation: BFS block size (OpenMP-Block-relaxed)",
                     panel, graphs=graphs or ["pwtk", "inline_1"],
                     threads=threads, jobs=jobs, store=store)


def run_relaxed_ablation(graphs=None, threads=None, jobs=None,
                         store=None) -> PanelResult:
    """Relaxed vs. locked queue insertion across BFS variants."""
    return run_fig4_panel(
        "Ablation: relaxed vs locked queues (BFS, Intel MIC)",
        ["OpenMP-Block-relaxed", "OpenMP-Block"],
        graphs or ["pwtk", "inline_1", "ldoor"], threads=threads,
        jobs=jobs, store=store)


def run_smt_ablation(graphs=None, threads=None, jobs=None,
                     store=None) -> PanelResult:
    """Coloring with 1-way vs. 4-way SMT cores; past 31 threads the
    1-way machine runs at its 31 hardware contexts."""
    panel = {"SMT 4-way": _coloring("KNF", "natural"),
             "SMT 1-way": _coloring("KNF-noSMT", "natural")}
    return run_panel("Ablation: SMT on/off (coloring, natural order)",
                     panel, graphs=graphs or ["hood", "msdoor"],
                     threads=threads, per_variant_baseline=True, jobs=jobs,
                     store=store)


def run_cache_ablation(graphs=None, threads=None, jobs=None,
                       store=None) -> PanelResult:
    """Shuffled coloring with and without the aggregate-cache benefit."""
    panel = {"with chip cache": _coloring("KNF", "random"),
             "without chip cache": _coloring("KNF-noAggCache", "random")}
    return run_panel(
        "Ablation: aggregate-cache residency (coloring, shuffled)",
        panel, graphs=graphs or ["hood", "msdoor"], threads=threads,
        per_variant_baseline=True, jobs=jobs, store=store)


def run_bandwidth_ablation(graphs=None, threads=None, jobs=None,
                           store=None) -> PanelResult:
    """Shuffled coloring under progressively narrower DRAM channels.

    Caches are shrunk to almost nothing so every access actually reaches
    DRAM (on the stock KNF the chip's aggregate cache absorbs the random
    traffic — remote hits consume no channel bandwidth — which is exactly
    why the real prototype's memory subsystem "scales well").
    """
    panel = {f"banks={b}": _coloring(f"KNF-{b}banks", "random")
             for b in (16, 4, 1)}
    return run_panel("Ablation: DRAM bandwidth (coloring, shuffled)",
                     panel, graphs=graphs or ["hood"], threads=threads,
                     per_variant_baseline=True, jobs=jobs, store=store)


def run_all_ablations(graphs=None, threads=None, jobs=None,
                      store=None) -> dict[str, PanelResult]:
    """Run every ablation; returns panels keyed by short name."""
    return {
        "block_size": run_block_size_ablation(threads=threads, jobs=jobs,
                                              store=store),
        "relaxed": run_relaxed_ablation(threads=threads, jobs=jobs,
                                        store=store),
        "smt": run_smt_ablation(threads=threads, jobs=jobs, store=store),
        "cache": run_cache_ablation(threads=threads, jobs=jobs, store=store),
        "bandwidth": run_bandwidth_ablation(threads=threads, jobs=jobs,
                                            store=store),
    }
