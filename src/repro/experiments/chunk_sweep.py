"""Chunk-size tuning sweep (§V-B methodology).

"Different chunk sizes (from 40 to 150) were tried and only the best
results are reported.  We observed that, for the OpenMP experiments, the
dynamic scheduling policy performs better with a chunk size of 100.  The
static policy is better with a chunk size of 40..."

This experiment reproduces that tuning on the scaled suite: for each
scheduling policy it sweeps the chunk size and reports the speedup at
full thread count per chunk, exposing the tradeoff between scheduling
overhead (small chunks) and load-balance/concurrency quantisation (large
chunks).  Paper chunk sizes 40–150 correspond to 5–19 at the ~1/8 suite
scale.
"""

from __future__ import annotations

from repro.experiments.harness import PanelResult, run_panel
from repro.runtime.base import Schedule

__all__ = ["run_chunk_sweep", "CHUNK_SIZES"]

#: The paper's 40-150 range, scaled by ~1/8.
CHUNK_SIZES = [3, 5, 8, 13, 19, 32]


def run_chunk_sweep(schedule: Schedule = Schedule.DYNAMIC,
                    graphs=None, threads=None, jobs=None,
                    store=None) -> PanelResult:
    """Colouring speedup as a function of OpenMP chunk size."""
    panel = {f"chunk={c}": {"experiment": "coloring",
                            "variant": f"OpenMP-{schedule.value}", "seed": 1,
                            "params": {"ordering": "natural", "chunk": c}}
             for c in CHUNK_SIZES}
    return run_panel(
        f"Chunk-size sweep: coloring, OpenMP {schedule.value}",
        panel, graphs=graphs or ["hood", "msdoor"], threads=threads,
        jobs=jobs, store=store)
