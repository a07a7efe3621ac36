"""Experiment drivers regenerating every table and figure of the paper."""

from repro.experiments.harness import (
    THREADS_MIC,
    THREADS_HOST,
    PanelResult,
    run_panel,
    geomean,
    panel_graphs,
    panel_threads,
    parse_graph_names,
    parse_thread_counts,
    env_csv,
    fast_mode,
    ordered_suite_graph,
)
from repro.experiments.report import format_panel, format_rows, print_panel
from repro.experiments.table1 import table1_rows, format_table1, run_table1
from repro.experiments.fig1_coloring import (
    COLORING_VARIANTS,
    BEST_PER_MODEL,
    coloring_cycles,
    run_fig1,
)
from repro.experiments.fig2_shuffled import run_fig2, PAPER_FIG2_AT_121
from repro.experiments.fig3_irregular import (
    IRREGULAR_MODELS,
    ITERATION_COUNTS,
    irregular_cycles,
    run_fig3,
)
from repro.experiments.fig4_bfs import (
    BLOCK_SIZE,
    bfs_cycles,
    model_series,
    run_fig4,
    run_fig4_panel,
)
from repro.experiments.fig_faults import (
    FAULT_RUNTIMES,
    FAULT_THREADS,
    INTENSITIES,
    faulted_bfs_cycles,
    faulted_coloring_cycles,
    kill_survival_rows,
    run_fig_faults,
)
from repro.experiments.chunk_sweep import run_chunk_sweep, CHUNK_SIZES
from repro.experiments.rmat_bfs import run_rmat_bfs, rmat_direction_savings
from repro.experiments.ablations import (
    run_block_size_ablation,
    run_relaxed_ablation,
    run_smt_ablation,
    run_cache_ablation,
    run_bandwidth_ablation,
    run_all_ablations,
)

__all__ = [
    "THREADS_MIC", "THREADS_HOST", "PanelResult", "run_panel", "geomean",
    "panel_graphs", "panel_threads", "parse_graph_names",
    "parse_thread_counts", "env_csv", "fast_mode",
    "ordered_suite_graph",
    "format_panel", "format_rows", "print_panel",
    "table1_rows", "format_table1", "run_table1",
    "COLORING_VARIANTS", "BEST_PER_MODEL", "coloring_cycles", "run_fig1",
    "run_fig2", "PAPER_FIG2_AT_121",
    "IRREGULAR_MODELS", "ITERATION_COUNTS", "irregular_cycles", "run_fig3",
    "BLOCK_SIZE", "bfs_cycles", "model_series", "run_fig4", "run_fig4_panel",
    "FAULT_RUNTIMES", "FAULT_THREADS", "INTENSITIES", "faulted_bfs_cycles",
    "faulted_coloring_cycles", "kill_survival_rows", "run_fig_faults",
    "run_block_size_ablation", "run_relaxed_ablation", "run_smt_ablation",
    "run_cache_ablation", "run_bandwidth_ablation", "run_all_ablations",
]
