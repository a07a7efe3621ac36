"""Graph colouring kernels: sequential greedy (Alg. 1), the iterative
parallel speculative algorithm (Alg. 2-4), and validation."""

from repro.kernels.coloring.sequential import greedy_coloring, greedy_coloring_stamp
from repro.kernels.coloring.parallel import ColoringRun, parallel_coloring
from repro.kernels.coloring.verify import verify_coloring, count_conflicts
from repro.kernels.coloring.jones_plassmann import (jones_plassmann_coloring,
                                                    simulate_jones_plassmann,
                                                    JonesPlassmannRun)

__all__ = [
    "greedy_coloring",
    "greedy_coloring_stamp",
    "ColoringRun",
    "parallel_coloring",
    "verify_coloring",
    "count_conflicts",
    "jones_plassmann_coloring",
    "simulate_jones_plassmann",
    "JonesPlassmannRun",
]
