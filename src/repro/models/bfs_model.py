"""The paper's analytic layered-BFS speedup model (§III-C).

The computation is decomposed into ``L`` synchronised steps, one per BFS
level, with ``x_l`` vertices at level ``l``, executed by ``t`` threads in
blocks of ``b`` vertices under five idealising assumptions (uniform vertex
cost, no cache effects, independent threads, no scheduling overhead, no
synchronisation overhead).  The modelled cost of level ``l`` is::

    c(l) = x_l                      if x_l < b     (one thread, one block)
    c(l) = ceil(x_l / (t*b)) * b    otherwise      (rounds of full blocks)

and the achievable speedup is ``sum(x_l) / sum(c(l))``.

The model's knee — where the slope changes because some levels stop
having enough blocks to feed every thread — is what Figure 4(a) shows at
13 threads on ``pwtk``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bfs_model_level_cost", "bfs_model_speedup", "bfs_model_curve"]


def bfs_model_level_cost(widths, n_threads: int, block: int) -> np.ndarray:
    """Modelled cost ``c(l)`` of each level (vector over levels)."""
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    x = np.asarray(widths, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("level widths must be non-negative")
    rounds = np.ceil(x / (n_threads * block))
    return np.where(x < block, x, rounds * block)


def bfs_model_speedup(widths, n_threads: int, block: int) -> float:
    """Achievable speedup ``sum(x_l) / sum(c(l))`` for one configuration."""
    x = np.asarray(widths, dtype=np.float64)
    if x.sum() == 0:
        return 0.0
    return float(x.sum() / bfs_model_level_cost(x, n_threads, block).sum())


def bfs_model_curve(widths, thread_counts, block: int) -> np.ndarray:
    """Model speedup at each thread count (the dashed line of Figure 4)."""
    return np.asarray([bfs_model_speedup(widths, t, block)
                       for t in thread_counts])
