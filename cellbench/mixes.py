"""The benchmark's workloads: fixed cell mixes and how each one sets up.

A cell is a :class:`~repro.campaign.spec.CellSpec` dict.  Simulation
seeds stay 0, so each cell's simulated cycles never change and are
checked against ``reference_cycles.json``; the workload seed only
permutes the order of the cells in each pass.  The profile memo is
emptied before every timed phase, as in a fresh campaign process, so
where cells share an access profile the order decides which of them
finds it warm.

Every run does a fixed number of passes over its mix, sized so a run
measures about ``--seconds`` on a 2-core x86 host under Python 3.11;
equal work in every run keeps the sample sets, and so the percentiles,
comparable between runs and seeds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "pass_orders", "passes_for",
           "prepare", "setup", "clear_profile_memo", "cell_id", "cell_label"]


def _cell(experiment, graph, variant, threads, machine="KNF", **params):
    return {"experiment": experiment, "graph": graph, "variant": variant,
            "threads": threads, "axis": "threads", "machine": machine,
            "seed": 0, "params": params}


# Fig 1/2 colouring: both orderings, the five best-tuned variants of the
# three models, 1 to 121 threads.  No two cells share a (graph, ordering,
# threads) access profile, so a pass costs the same in any order: when
# they shared one, the seed decided which cell paid for it and the median
# and tail moved between seeds.  Closely spaced cell times keep the order
# statistics from jumping between distant cells.
COLOR_CELLS = (
    _cell("coloring", "pwtk", "TBB-affinity", 31, ordering="natural"),
    _cell("coloring", "auto", "TBB-affinity", 31, ordering="random"),
    _cell("coloring", "pwtk", "OpenMP-dynamic", 121, ordering="random"),
    _cell("coloring", "auto", "OpenMP-dynamic", 121, ordering="natural"),
    _cell("coloring", "pwtk", "CilkPlus-holder", 31, ordering="random"),
    _cell("coloring", "inline_1", "TBB-affinity", 121, ordering="natural"),
    _cell("coloring", "pwtk", "CilkPlus-holder", 1, ordering="natural"),
    _cell("coloring", "inline_1", "TBB-affinity", 31, ordering="natural"),
    _cell("coloring", "auto", "TBB-affinity", 1, ordering="natural"),
    _cell("coloring", "pwtk", "TBB-simple", 121, ordering="natural"),
    _cell("coloring", "auto", "OpenMP-static", 31, ordering="natural"),
    _cell("coloring", "inline_1", "OpenMP-dynamic", 121, ordering="random"),
    _cell("coloring", "inline_1", "CilkPlus-holder", 31, ordering="random"),
    _cell("coloring", "auto", "OpenMP-static", 1, ordering="random"),
    _cell("coloring", "inline_1", "TBB-simple", 1, ordering="natural"),
)

# Fig 4 BFS: relaxed block queues and the Cilk bag on the MIC, SNAP's
# OpenMP-TLS on the host, over pwtk (deep) and inline_1 (wide); the two
# 121-thread Cilk-bag cells are the slowest.  One cell per (graph,
# machine, threads) profile, as for colouring.
BFS_CELLS = (
    _cell("bfs", "pwtk", "TBB-Block-relaxed", 1),
    _cell("bfs", "pwtk", "OpenMP-Block-relaxed", 11),
    _cell("bfs", "pwtk", "OpenMP-Block-relaxed", 31),
    _cell("bfs", "pwtk", "TBB-Block-relaxed", 61),
    _cell("bfs", "pwtk", "CilkPlus-Bag-relaxed", 121),
    _cell("bfs", "inline_1", "OpenMP-Block-relaxed", 1),
    _cell("bfs", "inline_1", "CilkPlus-Bag-relaxed", 11),
    _cell("bfs", "inline_1", "TBB-Block-relaxed", 31),
    _cell("bfs", "inline_1", "OpenMP-Block-relaxed", 61),
    _cell("bfs", "inline_1", "CilkPlus-Bag-relaxed", 121),
    _cell("bfs", "pwtk", "OpenMP-TLS", 12, machine="HOST_XEON"),
    _cell("bfs", "pwtk", "OpenMP-TLS", 24, machine="HOST_XEON"),
    _cell("bfs", "inline_1", "OpenMP-TLS", 24, machine="HOST_XEON"),
)

# Fig 3 irregular microbenchmark: 3 models x iterations {1, 10}.  Six
# cells share each (graph, threads) profile; the seed picks which of them
# pays for it in the first pass.
IRREGULAR_CELLS = tuple(
    _cell("irregular", graph, model, threads, iterations=iterations)
    for graph in ("auto", "inline_1", "pwtk")
    for model in ("OpenMP", "CilkPlus", "TBB")
    for iterations in (1, 10)
    for threads in (1, 31, 121))


@dataclass(frozen=True)
class Workload:
    """One cell mix and the way its graphs are set up.

    ``source`` is ``generate`` (tube_mesh + reordering in-process) or
    ``registry`` (mmap loads from a GraphRegistry built once per
    checkout).  ``pass_seconds`` is the wall time of one pass on the
    reference host; it sizes the number of passes.
    """

    name: str
    why: str
    cells: tuple
    source: str
    pass_seconds: float

    @property
    def graphs(self) -> tuple:
        """Sorted distinct ``(graph, ordering)`` pairs the cells use."""
        return tuple(sorted({(c["graph"], c["params"].get("ordering",
                                                          "natural"))
                             for c in self.cells}))


WORKLOADS = {w.name: w for w in (
    Workload("color",
             "1-process closed loop; fig1/fig2 colouring in both orders: "
             "kernel replay does real work; the only workload paying graph "
             "generation and reordering in setup",
             COLOR_CELLS, "generate", 8.0),
    Workload("bfs",
             "1-process closed loop; fig4 BFS, a parallel_for per level: "
             "engine, runtime steals and loop setup, kernels.bfs; 121-thread "
             "Cilk-bag cells are the slowest; graphs mmapped",
             BFS_CELLS, "registry", 12.5),
    Workload("irregular",
             "1-process closed loop; fig3 cells, one loop per cell and no "
             "kernel replay: engine and machine carry the time; the control "
             "for kernel-level changes",
             IRREGULAR_CELLS, "registry", 4.5),
)}

#: Passes never drop below this, so the tail percentile (ten samples
#: beyond it) falls inside a block of repeats of one cell rather than
#: between cells; a bfs run therefore measures about 1.5x ``--seconds``.
MIN_PASSES = 3


def passes_for(workload: Workload, seconds: float) -> int:
    """Number of passes that fill about *seconds* on the reference host."""
    return max(MIN_PASSES, round(seconds / workload.pass_seconds))


def pass_orders(n_cells: int, seed: int, passes: int) -> list[list[int]]:
    """Per-pass cell orders: one seeded permutation of the mix per pass."""
    rng = random.Random(seed)
    orders = []
    for _ in range(passes):
        order = list(range(n_cells))
        rng.shuffle(order)
        orders.append(order)
    return orders


def cell_id(cell: dict) -> str:
    """The campaign's stable cell ID (also the reference-file key)."""
    from repro.campaign.spec import CellSpec
    return CellSpec.from_dict(cell).cell_id


def cell_label(cell: dict) -> str:
    """Human-readable coordinate, e.g. ``bfs pwtk/OpenMP-TLS@12t HOST_XEON``."""
    params = ",".join(f"{k}={v}" for k, v in sorted(cell["params"].items()))
    return (f"{cell['experiment']} {cell['graph']}/{cell['variant']}"
            f"@{cell['threads']}t {cell['machine']}"
            + (f" {params}" if params else ""))


# ----- set-up ---------------------------------------------------------------

def clear_profile_memo() -> None:
    """Empty the access-profile memo (keyed on graph identity)."""
    from repro.machine import cache
    cache._access_profile_lru.cache_clear()


def _forget_graphs() -> None:
    """Drop every in-process graph handle so the next set-up really
    generates, reorders or mmap-loads (the memos live in ``src/``, so
    their private handles are reached from here)."""
    from repro.experiments.harness import ordered_suite_graph
    from repro.graph.suite import suite_graph
    from repro.graphstore import registry
    suite_graph.cache_clear()
    ordered_suite_graph.cache_clear()
    registry._ACTIVE.clear()
    clear_profile_memo()


def _graph_dir(work_dir: str) -> str:
    return os.path.join(work_dir, "graphs")


def prepare(workload: Workload, work_dir: str) -> None:
    """One-off, untimed preparation shared by every run in a checkout:
    build the registry's ``.rgr`` files that are missing."""
    if workload.source != "registry":
        return
    from repro.graphstore.registry import GraphRegistry
    registry = GraphRegistry(_graph_dir(work_dir))
    for graph, _ in workload.graphs:
        registry.build(f"suite:{graph}")


def setup(workload: Workload, work_dir: str) -> None:
    """Bring the process to the state the first timed cell expects: every
    graph of the mix generated and reordered, or mmap-loaded."""
    _forget_graphs()
    if workload.source == "registry":
        os.environ["REPRO_GRAPH_DIR"] = _graph_dir(work_dir)
    else:
        os.environ.pop("REPRO_GRAPH_DIR", None)
    from repro.experiments.harness import ordered_suite_graph
    for graph, ordering in workload.graphs:
        ordered_suite_graph(graph, ordering)

