"""Experiment runner registry: campaign cells → simulated cycles.

Every campaign experiment maps to one module-level adapter that turns a
:class:`~repro.campaign.spec.CellSpec` into a call of the corresponding
figure runner.  Adapters are plain importable functions — a worker
process can execute any cell from its spec dict alone, with no closures
to pickle.

Registered experiments:

``coloring``
    Figure 1/2 colouring runner; ``params.ordering`` selects the vertex
    ordering (``natural``/``random``/...), ``params.chunk`` overrides the
    variant's chunk size (the chunk-size sweep), variants are the
    :data:`~repro.experiments.fig1_coloring.COLORING_VARIANTS` labels.
``bfs``
    Figure 4 layered BFS; ``params.block`` overrides the block size.
``irregular``
    Figure 3 microbenchmark; the variant is the programming model and
    ``params.iterations`` the §V-C iteration count.
``coloring-faults`` / ``bfs-faults``
    Fault-degradation runners; the grid's third axis is the fault
    intensity in percent (``axis="intensity"``) and the campaign seed
    selects the fault scenario.

Every cell names its machine in :data:`repro.machine.config.MACHINES`.

Graph resolution: every adapter reaches its suite graph through
:func:`repro.graph.suite.suite_graph` (directly or via
``ordered_suite_graph``).  With ``REPRO_GRAPH_DIR`` set — worker forks
inherit it — that call resolves through the :mod:`repro.graphstore`
registry: the first process builds the ``.rgr`` file once, every other
worker and every warm rerun memory-maps it with zero generation (the
``graphstore.hits``/``graphstore.misses`` obs counters prove which path
ran).  Unset, workers regenerate in-process exactly as before.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.machine.config import MACHINES

__all__ = ["runner_names", "known_variants", "run_cell"]


@contextmanager
def _fault_seed_env(seed: int):
    """Pin ``REPRO_FAULT_SEED`` for one cell, restoring the old value."""
    # repro: ignore[env-raw-read] save/restore of the previous raw value
    # around a pinned cell, not a configuration read (fault_seed() is the
    # validated consumer)
    old = os.environ.get("REPRO_FAULT_SEED")
    os.environ["REPRO_FAULT_SEED"] = str(seed)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_FAULT_SEED", None)
        else:
            os.environ["REPRO_FAULT_SEED"] = old


def _run_coloring(cell) -> float:
    from repro.experiments.fig1_coloring import coloring_cycles
    params = dict(cell.params)
    return coloring_cycles(cell.graph, cell.variant, cell.threads,
                           ordering=params.get("ordering", "natural"),
                           config=MACHINES[cell.machine], seed=cell.seed,
                           chunk=params.get("chunk"))


def _run_bfs(cell) -> float:
    from repro.experiments.fig4_bfs import BLOCK_SIZE, bfs_cycles
    params = dict(cell.params)
    return bfs_cycles(cell.graph, cell.variant, cell.threads,
                      config=MACHINES[cell.machine],
                      block=int(params.get("block", BLOCK_SIZE)),
                      seed=cell.seed)


def _run_irregular(cell) -> float:
    from repro.experiments.fig3_irregular import irregular_cycles
    iterations = int(dict(cell.params).get("iterations", 1))
    return irregular_cycles(cell.graph, cell.variant, cell.threads,
                            iterations=iterations,
                            config=MACHINES[cell.machine], seed=cell.seed)


def _run_coloring_faults(cell) -> float:
    from repro.experiments.fig_faults import faulted_coloring_cycles
    with _fault_seed_env(cell.seed):
        return faulted_coloring_cycles(cell.graph, cell.variant, cell.threads)


def _run_bfs_faults(cell) -> float:
    from repro.experiments.fig_faults import faulted_bfs_cycles
    with _fault_seed_env(cell.seed):
        return faulted_bfs_cycles(cell.graph, cell.variant, cell.threads)


def _coloring_variants():
    from repro.experiments.fig1_coloring import COLORING_VARIANTS
    return set(COLORING_VARIANTS)


def _bfs_variants():
    from repro.experiments import fig4_bfs
    return set(fig4_bfs._BFS_VARIANTS)


def _irregular_variants():
    from repro.experiments.fig3_irregular import IRREGULAR_MODELS
    return set(IRREGULAR_MODELS)


def _fault_variants():
    from repro.experiments.fig_faults import FAULT_RUNTIMES
    return set(FAULT_RUNTIMES)


#: experiment name -> (cell adapter, known-variants provider or None).
_REGISTRY = {
    "coloring": (_run_coloring, _coloring_variants),
    "bfs": (_run_bfs, _bfs_variants),
    "irregular": (_run_irregular, _irregular_variants),
    "coloring-faults": (_run_coloring_faults, _fault_variants),
    "bfs-faults": (_run_bfs_faults, _fault_variants),
}


def runner_names() -> list[str]:
    """Names of every registered experiment runner."""
    return sorted(_REGISTRY)


def known_variants(experiment: str) -> set[str] | None:
    """Valid variant labels for *experiment* (None = unconstrained)."""
    provider = _REGISTRY[experiment][1]
    return provider() if provider is not None else None


def run_cell(cell) -> float:
    """Execute one campaign cell, returning simulated cycles.

    Accepts a :class:`~repro.campaign.spec.CellSpec` or its dict form
    (what a worker receives over the pool's pickle channel).
    """
    from repro.campaign.spec import CellSpec
    if isinstance(cell, dict):
        cell = CellSpec.from_dict(cell)
    try:
        adapter = _REGISTRY[cell.experiment][0]
    except KeyError:
        raise ValueError(f"unknown experiment {cell.experiment!r} "
                         f"(known: {runner_names()})") from None
    return adapter(cell)
