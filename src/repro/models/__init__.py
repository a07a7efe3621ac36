"""Analytic performance models (the paper's §III-C BFS model and an SMT
roofline companion)."""

from repro.models.bfs_model import (
    bfs_model_level_cost,
    bfs_model_speedup,
    bfs_model_curve,
)
from repro.models.smt_model import smt_speedup, saturation_threads

__all__ = [
    "bfs_model_level_cost",
    "bfs_model_speedup",
    "bfs_model_curve",
    "smt_speedup",
    "saturation_threads",
]
