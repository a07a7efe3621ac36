"""Analytic SMT roofline model for the loop kernels.

A companion to the paper's BFS model: for a kernel whose average vertex
costs ``compute`` issue cycles and ``stall`` exposed-latency cycles, a
machine with ``cores`` in-order cores and scatter-placed threads executes
at per-vertex rate ``max(k * compute, compute + stall) / k`` per thread
(``k`` = threads per core), giving the closed-form speedup::

    speedup(t) = t * (compute + stall) / max(k * compute, compute + stall)

Memory-bound kernels (``stall >> compute``) scale linearly in *threads*;
compute-bound kernels cap at ``cores * (1 + stall/compute)`` — the two
regimes of the paper's Figures 2 and 3.
``tests/machine/test_model_consistency.py`` checks the event simulation
against :func:`smt_speedup`, and ``examples/mic_scaling_study.py``
reports :func:`saturation_threads`.
"""

from __future__ import annotations

from repro.machine.config import MachineConfig

__all__ = ["smt_speedup", "saturation_threads"]


def smt_speedup(compute: float, stall: float, n_threads: int,
                config: MachineConfig) -> float:
    """Closed-form speedup at *n_threads* (scatter placement)."""
    if compute <= 0:
        raise ValueError(f"compute must be > 0, got {compute}")
    if stall < 0:
        raise ValueError(f"stall must be >= 0, got {stall}")
    if not 1 <= n_threads <= config.max_threads:
        raise ValueError(f"n_threads {n_threads} out of range")
    k = -(-n_threads // config.n_cores)
    single = compute + stall
    per_chunk = max(k * compute, single)
    return n_threads * single / per_chunk


def saturation_threads(compute: float, stall: float,
                       config: MachineConfig) -> float:
    """Thread count where the issue pipeline saturates (speedup knee):
    ``k* = 1 + stall / compute`` threads per core."""
    if compute <= 0:
        raise ValueError(f"compute must be > 0, got {compute}")
    return config.n_cores * (1.0 + stall / compute)
