"""Fault-intensity sweep — resilience of the simulated runtimes.

Not a paper figure: this experiment exercises the fault-injection layer
(:mod:`repro.sim.faults`) end to end.  For each runtime the kernels are
re-run under increasingly intense degrading faults (core throttling,
transient stalls, SMT hangs, memory-channel jitter) and the panel
reports the *degradation ratio* — healthy cycles over faulted cycles, so
1.0 means unaffected and 0.5 means the run took twice as long.  The
sweep axis is fault intensity in percent (reusing the harness' thread
axis with ``per_variant_baseline=True, baseline_point=0``); the actual
thread count is fixed at :data:`FAULT_THREADS`.

Every faulted run is validated (``verify_coloring`` / ``validate_bfs``)
before its cycles are accepted — degrading faults slow the simulated
machine but must never corrupt results; a validation failure raises and
surfaces through the harness' partial-result path as a NaN cell.

A separate kill-survival table (:func:`kill_survival_rows`) injects a
mid-kernel thread kill and reports which schedulers finish with valid
output: dynamic/guided OpenMP, Cilk and TBB redistribute the dead
thread's work, while static OpenMP loses its pre-dealt chunks.
"""

from __future__ import annotations

from functools import lru_cache

from repro.experiments.fig1_coloring import COLORING_VARIANTS
from repro.experiments.harness import (PanelResult, ordered_suite_graph,
                                       panel_graphs, run_panel, scale_of)
from repro.kernels.bfs.layered import simulate_bfs
from repro.kernels.bfs.validate import validate_bfs
from repro.kernels.coloring.parallel import parallel_coloring
from repro.kernels.coloring.verify import verify_coloring
from repro.machine.config import KNF
from repro.sim.faults import (DEGRADING_KINDS, FaultInjector, FaultKind,
                              FaultPlan, FaultSpec)

__all__ = ["FAULT_THREADS", "FAULT_RUNTIMES", "INTENSITIES", "fault_seed",
           "faulted_coloring_cycles", "faulted_bfs_cycles", "run_fig_faults",
           "kill_survival_rows", "format_kill_survival"]

#: Fixed thread count for the fault sweep (each thread on its own KNF core).
FAULT_THREADS = 16

#: Fault intensity levels in percent — the panel's sweep axis.
INTENSITIES = [0, 10, 25, 50, 100]
_FAST_INTENSITIES = [0, 25, 100]

#: One representative per scheduling strategy (specs from Figure 1).
FAULT_RUNTIMES = ["OpenMP-dynamic", "OpenMP-static", "CilkPlus-holder",
                  "TBB-simple"]

#: BFS runner variants matched to the same four schedulers.
_BFS_KINDS = {
    "OpenMP-dynamic": ("openmp-block", True),
    "OpenMP-static": ("openmp-tls", False),
    "CilkPlus-holder": ("cilk-bag", True),
    "TBB-simple": ("tbb-block", True),
}


def fault_seed() -> int:
    """Scenario seed (``REPRO_FAULT_SEED`` env var, default 0)."""
    from repro._util import env_int
    seed = env_int("REPRO_FAULT_SEED", 0)
    assert seed is not None
    return seed


def _intensities() -> list[int]:
    from repro.experiments.harness import fast_mode
    if fast_mode():
        return list(_FAST_INTENSITIES)
    return list(INTENSITIES)


@lru_cache(maxsize=256)
def _healthy_horizon(kernel: str, graph_name: str, variant: str) -> float:
    """Healthy total cycles — the fault-window horizon for this cell."""
    return _run_cycles(kernel, graph_name, variant, faults=None)


def _injector(kernel: str, graph_name: str, variant: str,
              intensity_pct: int) -> FaultInjector | None:
    """Fresh injector for one cell (injectors are stateful, plans are not)."""
    if intensity_pct == 0:
        return None
    horizon = _healthy_horizon(kernel, graph_name, variant)
    plan = FaultPlan.random(fault_seed(), n_cores=KNF.n_cores,
                            n_threads=FAULT_THREADS,
                            intensity=intensity_pct / 100.0,
                            horizon=horizon, kinds=DEGRADING_KINDS)
    return FaultInjector(plan)


def _run_cycles(kernel: str, graph_name: str, variant: str, faults) -> float:
    """One validated kernel run; raises if the output is corrupt."""
    graph = ordered_suite_graph(graph_name, "natural")
    if kernel == "coloring":
        run = parallel_coloring(graph, FAULT_THREADS,
                                COLORING_VARIANTS[variant], config=KNF,
                                cache_scale=scale_of(graph_name),
                                faults=faults)
        if not verify_coloring(graph, run.colors):
            raise RuntimeError(
                f"faulted colouring of {graph_name} ({variant}) is invalid")
        return run.total_cycles
    kind, relaxed = _BFS_KINDS[variant]
    source = graph.n_vertices // 2  # simulate_bfs' default source
    run = simulate_bfs(graph, FAULT_THREADS, variant=kind, relaxed=relaxed,
                       source=source, block=8, config=KNF,
                       cache_scale=scale_of(graph_name), faults=faults)
    validate_bfs(graph, source, run.dist)
    return run.total_cycles


def faulted_coloring_cycles(graph_name: str, variant: str,
                            intensity_pct: int) -> float:
    """``coloring-faults`` cell runner: cycles under *intensity_pct* %
    faults."""
    faults = _injector("coloring", graph_name, variant, intensity_pct)
    return _run_cycles("coloring", graph_name, variant, faults)


def faulted_bfs_cycles(graph_name: str, variant: str,
                       intensity_pct: int) -> float:
    """``bfs-faults`` cell runner: cycles under *intensity_pct* % faults."""
    faults = _injector("bfs", graph_name, variant, intensity_pct)
    return _run_cycles("bfs", graph_name, variant, faults)


def run_fig_faults(graphs=None, intensities=None, jobs=None,
                   store=None) -> dict[str, PanelResult]:
    """Degradation panels for colouring and BFS under random fault plans.

    Series values are healthy-over-faulted cycle ratios (geomean over
    graphs); the x axis is fault intensity in percent.  Identical
    ``REPRO_FAULT_SEED`` values regenerate bit-identical fault schedules
    and therefore identical panels (the seed is the cells' campaign
    seed, so store entries from different scenarios never collide).
    """
    intensities = intensities if intensities is not None else _intensities()
    seed = fault_seed()
    out = {}
    for kernel in ("coloring", "bfs"):
        title = (f"Faults: {kernel} degradation vs intensity % "
                 f"({FAULT_THREADS} threads, seed {seed})")
        panel = {v: {"experiment": f"{kernel}-faults", "variant": v,
                     "axis": "intensity", "seed": seed}
                 for v in FAULT_RUNTIMES}
        out[kernel] = run_panel(title, panel, graphs=graphs,
                                threads=list(intensities),
                                per_variant_baseline=True, baseline_point=0,
                                jobs=jobs, store=store)
    return out


def kill_survival_rows(graph_name: str | None = None,
                       victim: int = 3, at_fraction: float = 0.1):
    """Kill one thread mid-colouring and report who survives it.

    Returns ``(headers, rows)`` for :func:`~repro.experiments.report.format_rows`:
    per runtime, whether the run completed, whether the colouring is
    still valid, and the cycle overhead relative to healthy.  Work-
    redistributing schedulers (dynamic, stealing) stay valid; static
    OpenMP loses the victim's pre-dealt chunks and fails validation —
    the degradation mode the fault layer is built to expose.
    """
    if graph_name is None:
        graph_name = panel_graphs()[0]
    graph = ordered_suite_graph(graph_name, "natural")
    headers = ["runtime", "completed", "valid", "cycles vs healthy"]
    rows = []
    for variant in FAULT_RUNTIMES:
        healthy = _healthy_horizon("coloring", graph_name, variant)
        plan = FaultPlan(fault_seed(), specs=(
            FaultSpec(FaultKind.THREAD_KILL, target=victim,
                      start=at_fraction * healthy),))
        completed, valid, ratio = True, False, float("nan")
        try:
            run = parallel_coloring(graph, FAULT_THREADS,
                                    COLORING_VARIANTS[variant], config=KNF,
                                    cache_scale=scale_of(graph_name),
                                    faults=FaultInjector(plan))
            valid = verify_coloring(graph, run.colors)
            ratio = run.total_cycles / healthy
        except Exception:
            completed = False
        rows.append((variant, completed, valid, ratio))
    return headers, rows


def format_kill_survival(graph_name: str | None = None) -> str:
    """ASCII kill-survival table (see :func:`kill_survival_rows`)."""
    from repro.experiments.report import format_rows
    headers, rows = kill_survival_rows(graph_name)
    return format_rows(headers, rows)
