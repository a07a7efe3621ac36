"""Metric catalogue and the order statistics the benchmark reports.

Every metric the benchmark can print is declared here once, with its
unit, the layer it belongs to and what it should move: for a per-layer
metric, the end-to-end metric and workloads a change to that layer is
expected to move (the prediction a speed-up claim is checked against).
``BENCHMARK.json`` lists the same names, units and directions; a test
keeps the two in step.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "NAME_RE", "UNIT_RE",
           "median", "tail", "TAIL_BEYOND"]

#: Legal metric names and units (the benchmark contract's character sets).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: The tail percentile is the highest one with at least this many
#: samples beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Metric:
    """One reported number."""

    name: str
    unit: str
    better: str          # "higher" or "lower"
    layer: str
    moves: str           # what it should move, on which workloads
    bound: float | None = None   # end-to-end only: allowed worsening share


END_TO_END = (
    Metric("cells_per_s", "cells/s", "higher", "end-to-end",
           "time to regenerate a figure", bound=0.25),
    Metric("cell_p50_ms", "ms", "lower", "end-to-end",
           "median wall time of one cell", bound=0.25),
    Metric("cell_tail_ms", "ms", "lower", "end-to-end",
           "slowest cells; bound the makespan of a REPRO_JOBS campaign",
           bound=0.25),
    Metric("setup_s", "s", "lower", "end-to-end",
           "graph generation and reordering, or registry loads, before "
           "the first cell", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", "end-to-end",
           "host memory a campaign worker needs", bound=0.15),
)

_BFS_IRR = "cells_per_s, cell_tail_ms on bfs, irregular"

PER_LAYER = (
    Metric("sim.run_s", "s", "lower", "sim", _BFS_IRR),
    Metric("sim.events", "count", "lower", "sim", _BFS_IRR),
    Metric("sim.events_per_s", "1/s", "higher", "sim", _BFS_IRR),
    Metric("sim.channel_transfers", "count", "lower", "sim",
           "invariant: must repeat exactly on every workload"),
    Metric("sim.atomic_ops", "count", "lower", "sim",
           "invariant: must repeat exactly on every workload"),
    Metric("runtime.loops", "count", "lower", "runtime",
           "cells_per_s on bfs (many loops per cell), little on irregular"),
    Metric("runtime.chunks", "count", "lower", "runtime",
           "cells_per_s on bfs; invariant for simulator-only changes"),
    Metric("runtime.loop_setup_s", "s", "lower", "runtime",
           "cells_per_s on bfs, little on irregular"),
    Metric("runtime.steals", "count", "lower", "runtime",
           "cell_tail_ms on bfs"),
    Metric("runtime.steal_success_ratio", "ratio", "higher", "runtime",
           "cell_tail_ms on bfs"),
    Metric("runtime.tasks_spawned", "count", "lower", "runtime",
           "cell_tail_ms on bfs"),
    Metric("machine.execute_s", "s", "lower", "machine",
           "cells_per_s on irregular"),
    Metric("machine.execute_calls", "count", "lower", "machine",
           "cells_per_s on irregular"),
    Metric("machine.costs_s", "s", "lower", "machine",
           "cells_per_s on irregular and color"),
    Metric("machine.profile_s", "s", "lower", "machine",
           "cell_p50_ms on color and irregular"),
    Metric("machine.profile_hit_ratio", "ratio", "higher", "machine",
           "cell_p50_ms on color and irregular"),
    Metric("kernels.coloring_s", "s", "lower", "kernels",
           "cells_per_s on color; no change on bfs or irregular"),
    Metric("kernels.coloring_rounds", "count", "lower", "kernels",
           "cells_per_s on color"),
    Metric("kernels.coloring_recolor_ratio", "ratio", "lower", "kernels",
           "cells_per_s on color"),
    Metric("kernels.bfs_s", "s", "lower", "kernels", "cells_per_s on bfs"),
    Metric("kernels.bfs_levels", "count", "lower", "kernels",
           "cells_per_s on bfs"),
    Metric("kernels.bfs_useful_ratio", "ratio", "higher", "kernels",
           "cells_per_s on bfs"),
    Metric("kernels.irregular_s", "s", "lower", "kernels",
           "near 0 everywhere: irregular bypasses kernel Python"),
    Metric("graph.build_s", "s", "lower", "graph", "setup_s on color"),
    Metric("graph.reorder_s", "s", "lower", "graph", "setup_s on color"),
    Metric("graphstore.load_s", "s", "lower", "graphstore",
           "setup_s on bfs and irregular (mmap)"),
    Metric("graphstore.hits", "count", "higher", "graphstore",
           "setup_s on bfs and irregular (mmap)"),
    Metric("campaign.execute_self_s", "s", "lower", "campaign",
           "store replay of the mix (traced run); no end-to-end metric "
           "of the compute workloads"),
    Metric("campaign.store_get_s", "s", "lower", "campaign",
           "store replay of the mix (traced run)"),
    Metric("campaign.store_hit_ratio", "ratio", "higher", "campaign",
           "store replay of the mix (traced run)"),
    Metric("campaign.store_put_s", "s", "lower", "campaign",
           "store seeding of the mix (traced run)"),
    Metric("trace.overhead_ratio", "ratio", "higher", "trace",
           "traced cells_per_s / untraced cells_per_s"),
    Metric("trace.unattributed_share", "ratio", "lower", "trace",
           "share of traced cell wall outside every layer span"),
    Metric("trace.validated_results", "count", "higher", "trace",
           "kernel results checked by a validator"),
)


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile that still has
    at least *beyond* samples above it.

    The k-th smallest of n samples (1-based) is the ``100 * k / n``-th
    percentile; the rule picks ``k = n - beyond``.  Fewer than
    ``beyond + 1`` samples leave no such percentile.
    """
    s = sorted(values)
    n = len(s)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail, "
                         f"got {n}")
    k = n - beyond
    value = s[k - 1]
    if not math.isfinite(value):
        raise ValueError(f"non-finite tail sample {value!r}")
    return value, 100.0 * k / n, n
