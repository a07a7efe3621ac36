"""Wall profiler: bucket mapping, attribution and collapsed stacks."""

import pytest

from repro.bench.profiler import (OTHER_BUCKET, ProfileReport, WallProfiler,
                                  code_bucket)
from repro.obs.tracer import SPAN_BUCKETS


class TestCodeBucket:
    def test_engine_functions_align_with_span_buckets(self):
        assert code_bucket("src/repro/sim/engine.py", "barrier_release") \
            == SPAN_BUCKETS["barrier-wait"]
        assert code_bucket("src/repro/sim/engine.py", "cond_fire") \
            == SPAN_BUCKETS["cond-wait"]
        assert code_bucket("src/repro/sim/engine.py", "schedule") \
            == "engine:events"

    def test_runtime_functions(self):
        assert code_bucket("src/repro/runtime/base.py", "tls_slot") \
            == SPAN_BUCKETS["tls-init"]
        assert code_bucket("src/repro/runtime/work.py", "steal_half") \
            == SPAN_BUCKETS["steal"]
        assert code_bucket("src/repro/runtime/base.py", "execute_chunk") \
            == SPAN_BUCKETS["chunk"]
        assert code_bucket("src/repro/runtime/openmp.py", "body") \
            == "runtime:loop"

    def test_resources(self):
        assert code_bucket("src/repro/sim/resources.py", "service") \
            == SPAN_BUCKETS["xfer"]
        assert code_bucket("src/repro/sim/resources.py", "rmw") \
            == SPAN_BUCKETS["rmw"]

    def test_module_table(self):
        assert code_bucket("src/repro/kernels/coloring/parallel.py",
                           "color") == "kernels:coloring"
        assert code_bucket("src/repro/machine/cache.py", "access") \
            == "machine:cache-model"

    def test_foreign_code_inherits(self):
        assert code_bucket("/usr/lib/python3/heapq.py", "heappush") is None


class TestProfileReport:
    def report(self):
        rep = ProfileReport()
        rep.buckets = {"engine:events": 3.0, OTHER_BUCKET: 1.0}
        rep.functions = {("engine:events", "repro.sim.engine.run"): 3.0,
                         (OTHER_BUCKET, "main"): 1.0}
        rep.stacks = {("main", "repro.sim.engine.run"): 3.0,
                      ("main",): 1.0, ("zero",): 0.0}
        return rep

    def test_totals_and_coverage(self):
        rep = self.report()
        assert rep.total_seconds == 4.0
        assert rep.coverage() == pytest.approx(0.75)

    def test_empty_report_coverage_is_full(self):
        assert ProfileReport().coverage() == 1.0

    def test_top_buckets_ordered(self):
        rows = self.report().top_buckets(10)
        assert rows[0][0] == "engine:events"
        assert rows[0][2] == pytest.approx(0.75)

    def test_collapsed_lines(self):
        lines = self.report().collapsed_lines()
        assert "main;repro.sim.engine.run 3000000" in lines
        assert "main 1000000" in lines
        assert not any(line.startswith("zero") for line in lines)

    def test_write_collapsed(self, tmp_path):
        path = tmp_path / "stacks.collapsed"
        self.report().write_collapsed(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert all(line.rsplit(" ", 1)[1].isdigit()
                   for line in text.splitlines())

    def test_format_table_mentions_coverage(self):
        out = self.report().format_table(5)
        assert "coverage" in out
        assert "engine:events" in out


class TestWallProfiler:
    def test_profiles_a_simulation_with_high_coverage(self):
        from repro.experiments.fig1_coloring import coloring_cycles
        prof = WallProfiler()
        with prof:
            coloring_cycles("auto", "OpenMP-dynamic", 5)
        rep = prof.report
        assert rep.total_seconds > 0
        # The acceptance bar of the CI profile gate: at least 90% of
        # wall time lands in named subsystem buckets.
        assert rep.coverage() >= 0.90
        assert any(b.startswith("engine:") for b in rep.buckets)
        assert any(b.startswith("kernels:") for b in rep.buckets)
        assert rep.collapsed_lines()

    def test_profiling_does_not_change_simulated_cycles(self):
        from repro.experiments.fig1_coloring import coloring_cycles
        bare = coloring_cycles("auto", "OpenMP-dynamic", 5)
        prof = WallProfiler()
        with prof:
            profiled = coloring_cycles("auto", "OpenMP-dynamic", 5)
        assert profiled == bare

    def test_nested_install_rejected(self):
        prof = WallProfiler()
        with prof:
            with pytest.raises(RuntimeError, match="already installed"):
                prof.__enter__()

    def test_profile_returns_result_and_uninstalls(self):
        import sys
        prof = WallProfiler()
        assert prof.profile(lambda: 42) == 42
        assert sys.getprofile() is None
