"""Graph substrate: CSR storage, generators, the evaluation suite and
reordering."""

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    tube_mesh,
    grid2d,
    erdos_renyi,
    rmat,
    chain,
    star,
    complete,
)
from repro.graph.suite import (SUITE, PAPER_TABLE1, SuiteSpec, suite_graph,
                               suite_scale)
from repro.graph.reorder import (
    ORDERINGS,
    apply_ordering,
    natural_order,
    random_order,
    rcm_order,
    degree_order,
)
from repro.graph.properties import (
    GraphProperties,
    graph_properties,
    bfs_levels,
    connected_components,
    bandwidth,
)

__all__ = [
    "CSRGraph",
    "tube_mesh",
    "grid2d",
    "erdos_renyi",
    "rmat",
    "chain",
    "star",
    "complete",
    "SUITE",
    "PAPER_TABLE1",
    "SuiteSpec",
    "suite_graph",
    "suite_scale",
    "ORDERINGS",
    "apply_ordering",
    "natural_order",
    "random_order",
    "rcm_order",
    "degree_order",
    "GraphProperties",
    "graph_properties",
    "bfs_levels",
    "connected_components",
    "bandwidth",
]
