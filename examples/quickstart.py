#!/usr/bin/env python3
"""Quickstart: colour a graph and run BFS, sequentially and on the
simulated Knights Ferry.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (KNF, bfs_parallel, bfs_sequential, greedy_coloring,
                   parallel_coloring, verify_coloring)
from repro.graph import tube_mesh
from repro.runtime import ProgrammingModel, RuntimeSpec, Schedule


def main():
    # 1. Build a graph. tube_mesh mimics the paper's FEM matrices; any
    #    CSRGraph works (see repro.graph.generators).
    graph = tube_mesh(20_000, section=120, clique=12, cliques_per_vertex=1.0,
                      coupling=4, seed=42, name="demo")
    print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges, "
          f"max degree {graph.max_degree}")

    # 2. Sequential greedy colouring (the paper's Algorithm 1).
    n_colors, colors = greedy_coloring(graph)
    assert verify_coloring(graph, colors)
    print(f"sequential greedy colouring: {n_colors} colours")

    # 3. The same colouring, simulated on a 121-thread Knights Ferry with
    #    OpenMP dynamic scheduling (Algorithms 2-4).
    spec = RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC,
                       chunk=16)
    base = parallel_coloring(graph, 1, spec, KNF, cache_scale=0.1)
    run = parallel_coloring(graph, 121, spec, KNF, cache_scale=0.1)
    assert verify_coloring(graph, run.colors)
    print(f"parallel colouring on KNF/121t: {run.n_colors} colours in "
          f"{run.rounds} rounds (conflicts per round: "
          f"{run.conflicts_per_round}), "
          f"speedup {base.total_cycles / run.total_cycles:.1f}x")

    # 4. BFS: the sequential oracle and the simulated block-queue variant.
    source = graph.n_vertices // 2
    dist = bfs_sequential(graph, source)
    print(f"BFS from {source}: {dist.max() + 1} levels")
    dist_par = bfs_parallel(graph, source=source, n_threads=121, block=8,
                            cache_scale=0.1)
    assert np.array_equal(dist, dist_par)
    print("parallel layered BFS produced the exact same labelling")


if __name__ == "__main__":
    main()
