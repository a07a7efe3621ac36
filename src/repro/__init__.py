"""repro — reproduction of *An Early Evaluation of the Scalability of Graph
Algorithms on the Intel MIC Architecture* (Saule & Çatalyürek, IPDPS-W 2012).

The package provides:

* :mod:`repro.graph` — a CSR graph substrate with FEM-style generators that
  mirror the paper's seven test matrices, plus reordering.
* :mod:`repro.sim` — a deterministic discrete-event engine.
* :mod:`repro.machine` — a timing model of a many-core chip (Knights Ferry
  and a dual-Xeon host), including an SMT core model and a cache/locality
  model.
* :mod:`repro.runtime` — simulated OpenMP, Cilk Plus and TBB runtimes with
  the scheduling policies the paper compares.
* :mod:`repro.kernels` — the paper's three kernels: iterative speculative
  graph coloring, an irregular-computation microbenchmark, and layered BFS
  with bag / TLS-queue / block-queue frontier data structures.
* :mod:`repro.models` — the paper's analytic layered-BFS speedup model.
* :mod:`repro.experiments` — drivers regenerating every table and figure.
"""

from repro.graph import CSRGraph, suite_graph, SUITE
from repro.machine import MachineConfig, KNF, HOST_XEON
from repro.runtime import ProgrammingModel, Schedule, Partitioner
from repro.kernels import (
    greedy_coloring,
    parallel_coloring,
    verify_coloring,
    bfs_sequential,
    bfs_parallel,
    irregular_kernel,
)
from repro.models import bfs_model_speedup

# Single source of truth is the package metadata (pyproject.toml); the
# literal fallback covers PYTHONPATH=src runs without an installed dist.
try:
    from importlib.metadata import version as _dist_version
    __version__ = _dist_version("repro")
except Exception:  # PackageNotFoundError, or exotic import environments
    __version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "suite_graph",
    "SUITE",
    "MachineConfig",
    "KNF",
    "HOST_XEON",
    "ProgrammingModel",
    "Schedule",
    "Partitioner",
    "greedy_coloring",
    "parallel_coloring",
    "verify_coloring",
    "bfs_sequential",
    "bfs_parallel",
    "irregular_kernel",
    "bfs_model_speedup",
    "__version__",
]
