"""Integration tests: figure drivers reproduce the paper's *shapes*.

These run the real pipelines on reduced sweeps (two graphs, three thread
counts) so the whole file stays around a minute; the full-suite numbers
live in the benchmarks and EXPERIMENTS.md.
"""

import numpy as np
import pytest

GRAPHS = ["hood", "pwtk"]
THREADS = [1, 31, 121]


@pytest.fixture(scope="module")
def fig1():
    from repro.experiments.fig1_coloring import run_fig1
    return run_fig1(graphs=GRAPHS, threads=THREADS)


@pytest.fixture(scope="module")
def fig4():
    from repro.experiments.fig4_bfs import run_fig4_panel
    return run_fig4_panel(
        "test", ["OpenMP-Block-relaxed", "OpenMP-Block", "CilkPlus-Bag-relaxed"],
        GRAPHS, "KNF", threads=THREADS)


class TestTable1:
    def test_rows_and_format(self):
        from repro.experiments.table1 import format_table1, table1_rows
        rows = table1_rows()
        assert len(rows) == 7
        text = format_table1()
        assert "pwtk" in text and "ldoor" in text

    def test_level_counts_close_to_paper(self):
        from repro.experiments.table1 import table1_rows
        for row in table1_rows():
            measured, paper = row[9], row[10]
            assert measured == pytest.approx(paper, rel=0.08)


class TestFig1Shapes:
    def test_three_panels(self, fig1):
        assert len(fig1) == 3

    def test_openmp_scales_past_cores(self, fig1):
        panel = next(p for t, p in fig1.items() if "OpenMP" in t)
        # SMT keeps the memory-bound kernel scaling beyond 31 cores
        assert panel.at("OpenMP-dynamic", 121) > panel.at("OpenMP-dynamic", 31)
        assert panel.at("OpenMP-dynamic", 121) > 35

    def test_model_ordering_openmp_tbb_cilk(self, fig1):
        """Fig 1 headline: OpenMP > TBB-simple > Cilk at full threads."""
        omp = next(p for t, p in fig1.items() if "OpenMP" in t)
        cilk = next(p for t, p in fig1.items() if "Cilk" in t)
        tbb = next(p for t, p in fig1.items() if "TBB" in t)
        v_omp = omp.at("OpenMP-dynamic", 121)
        v_tbb = tbb.at("TBB-simple", 121)
        v_cilk = cilk.at("CilkPlus-holder", 121)
        assert v_omp > v_tbb > v_cilk

    def test_cilk_variants_close(self, fig1):
        """§V-B: worker-ID and holder variants perform very closely."""
        cilk = next(p for t, p in fig1.items() if "Cilk" in t)
        a = cilk.series["CilkPlus"]
        b = cilk.series["CilkPlus-holder"]
        assert np.all(np.abs(a - b) <= 0.15 * np.maximum(a, b) + 0.5)

    def test_tbb_simple_beats_auto(self, fig1):
        tbb = next(p for t, p in fig1.items() if "TBB" in t)
        assert tbb.at("TBB-simple", 121) > tbb.at("TBB-auto", 121)


class TestFig2Shapes:
    def test_shuffle_superlinear_and_ordered(self):
        from repro.experiments.fig2_shuffled import run_fig2
        panel = run_fig2(graphs=GRAPHS, threads=THREADS)
        omp = panel.at("OpenMP-dynamic", 121)
        tbb = panel.at("TBB-simple", 121)
        cilk = panel.at("CilkPlus-holder", 121)
        # super-linear in thread count (the paper's 153 on 121 threads)
        assert omp > 121
        assert omp > tbb > cilk


class TestFig3Shapes:
    def test_openmp_decreases_cilk_increases(self):
        from repro.experiments.fig3_irregular import run_fig3
        panels = run_fig3(graphs=GRAPHS, threads=THREADS)
        omp = next(p for t, p in panels.items() if "OpenMP" in t)
        cilk = next(p for t, p in panels.items() if "Cilk" in t)
        # §V-C: more computation -> OpenMP speedup down, Cilk speedup up
        assert omp.at("1 iteration", 121) > omp.at("10 iterations", 121)
        assert cilk.at("10 iterations", 121) > cilk.at("1 iteration", 121)

    def test_models_converge_at_ten_iterations(self):
        from repro.experiments.fig3_irregular import run_fig3
        panels = run_fig3(graphs=GRAPHS, threads=THREADS)
        at10 = [p.at("10 iterations", 121) for p in panels.values()]
        assert max(at10) < 1.45 * min(at10)


class TestFig4Shapes:
    def test_model_series_present(self, fig4):
        assert "Model" in fig4.series
        assert fig4.series["Model"][0] == pytest.approx(1.0)

    def test_relaxed_beats_locked(self, fig4):
        assert fig4.at("OpenMP-Block-relaxed", 31) > \
            fig4.at("OpenMP-Block", 31)

    def test_bag_worst(self, fig4):
        assert fig4.at("CilkPlus-Bag-relaxed", 31) < \
            0.8 * fig4.at("OpenMP-Block-relaxed", 31)

    def test_measured_tracks_model_at_cores(self, fig4):
        """§V-D: the block queue exploits all the parallelism the
        algorithm offers (measured ~ model up to the core count)."""
        measured = fig4.at("OpenMP-Block-relaxed", 31)
        model = fig4.at("Model", 31)
        assert measured == pytest.approx(model, rel=0.6)

    def test_pwtk_below_inline(self):
        from repro.experiments.fig4_bfs import run_fig4_panel
        a = run_fig4_panel("a", ["OpenMP-Block-relaxed"], ["pwtk"], "KNF",
                           threads=[1, 31])
        b = run_fig4_panel("b", ["OpenMP-Block-relaxed"], ["inline_1"],
                           "KNF", threads=[1, 31])
        assert b.at("OpenMP-Block-relaxed", 31) > \
            1.5 * a.at("OpenMP-Block-relaxed", 31)
