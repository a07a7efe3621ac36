"""Counter registry, frames, and LoopStats reconciliation."""

import numpy as np
import pytest

from repro.machine.costs import WorkCosts
from repro.obs import Observer
from repro.obs.metrics import BREAKDOWN_FIELDS, MetricsFrame, MetricsRegistry
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule)


def run_loop(tiny_machine, spec, threads=4, n=60):
    work = WorkCosts(np.full(n, 100.0), np.zeros(n), np.zeros(n))
    return spec.parallel_for(tiny_machine, threads, work, tls_entries=8)


ALL_SPECS = [
    RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.STATIC, chunk=10),
    RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC, chunk=10),
    RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.GUIDED, chunk=10),
    RuntimeSpec(ProgrammingModel.CILK, chunk=10),
    RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE, chunk=10),
    RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.AFFINITY,
                chunk=10),
]


class TestCounters:
    def test_counter_keys_canonical(self):
        reg = MetricsRegistry()
        reg.counter("x", b="2", a="1").inc(3)
        assert reg.snapshot() == {"x{a=1,b=2}": 3.0}
        assert reg.counter("x", a="1", b="2").value == 3.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_loop_delta_is_sparse(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.counter("b").inc(1)
        assert reg.loop_delta() == {"a": 2.0, "b": 1.0}
        reg.counter("a").inc(5)
        assert reg.loop_delta() == {"a": 5.0}  # b unchanged -> omitted

    def test_cell_labels_nest(self):
        reg = MetricsRegistry()
        with reg.cell(graph="g"):
            with reg.cell(threads=4):
                assert reg.current_cell() == {"graph": "g", "threads": 4}
            assert reg.current_cell() == {"graph": "g"}
        assert reg.current_cell() == {}


class TestFrames:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_frame_matches_loop_stats(self, tiny_machine, spec):
        with Observer(trace=False) as obs:
            stats = run_loop(tiny_machine, spec)
        assert len(obs.registry.frames) == 1
        f = obs.registry.frames[0]
        assert f.span == stats.span
        assert f.busy_cycles == stats.busy_cycles
        assert f.sched_cycles == stats.sched_cycles
        assert f.atomic_wait_cycles == stats.atomic_wait_cycles
        assert f.atomic_operations == stats.atomic_operations
        assert f.tls_cycles == stats.tls_cycles
        assert f.tls_inits == stats.tls_inits
        assert f.steals == stats.steals
        assert f.n_chunks == stats.n_chunks

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_breakdown_accounts_for_budget(self, tiny_machine, spec):
        """busy + sched + atomic-wait + tls + hang + idle == span * threads
        within 1% — the acceptance invariant of the telemetry layer."""
        with Observer(trace=False) as obs:
            run_loop(tiny_machine, spec)
        f = obs.registry.frames[0]
        total = sum(f.breakdown().values())
        assert total == pytest.approx(f.thread_budget, rel=0.01)
        # and the *measured* part never exceeds the budget
        measured = total - f.idle_cycles
        assert measured <= f.thread_budget * 1.01

    def test_channel_saturation_bounded(self, tiny_machine):
        work = WorkCosts(np.full(60, 50.0), np.full(60, 10.0),
                         np.full(60, 2.0))
        spec = RuntimeSpec(ProgrammingModel.OPENMP, chunk=10)
        with Observer(trace=False) as obs:
            spec.parallel_for(tiny_machine, 4, work)
        f = obs.registry.frames[0]
        ch = f.channel
        assert ch["transfers"] > 0
        assert 0.0 < ch["saturation"] <= 1.0
        assert ch["n_banks"] == tiny_machine.mem_banks
        assert f.counters["channel.transfers"] == ch["transfers"]

    def test_counters_attached_to_frame(self, tiny_machine):
        spec = RuntimeSpec(ProgrammingModel.OPENMP, chunk=10)
        with Observer(trace=False) as obs:
            stats = run_loop(tiny_machine, spec)
        counters = obs.registry.frames[0].counters
        assert counters["atomic.ops{var=omp-chunk-counter}"] \
            == stats.atomic_operations
        assert counters["atomic.wait_cycles{var=omp-chunk-counter}"] \
            == pytest.approx(stats.atomic_wait_cycles)

    def test_steal_counters_by_victim(self, tiny_machine):
        spec = RuntimeSpec(ProgrammingModel.CILK, chunk=10)
        with Observer(trace=False) as obs:
            stats = run_loop(tiny_machine, spec)
        steal_total = sum(v for k, v in obs.registry.frames[0].counters.items()
                          if k.startswith("steals{"))
        assert steal_total == stats.steals

    def test_frame_roundtrip(self):
        f = MetricsFrame(index=3, label="loop", cell={"graph": "g"},
                         n_threads=4, span=10.0, busy_cycles=30.0,
                         idle_cycles=10.0, counters={"a": 1.0})
        back = MetricsFrame.from_dict(f.to_dict())
        assert back == f

    def test_metrics_do_not_change_timing(self, tiny_machine):
        spec = RuntimeSpec(ProgrammingModel.TBB, chunk=10)
        bare = run_loop(tiny_machine, spec)
        with Observer(trace=False):
            observed = run_loop(tiny_machine, spec)
        assert observed.span == bare.span
        assert observed.busy_cycles == bare.busy_cycles

    def test_breakdown_fields_cover_frame(self):
        f = MetricsFrame()
        assert set(BREAKDOWN_FIELDS) <= set(f.to_dict())


class TestKernelFrames:
    def test_coloring_emits_labeled_frames(self, mesh, tiny_machine):
        from repro.kernels.coloring.parallel import parallel_coloring
        spec = RuntimeSpec(ProgrammingModel.OPENMP, chunk=10)
        with Observer(trace=False) as obs:
            with obs.registry.cell(graph="mesh", variant="omp", threads=4):
                run = parallel_coloring(mesh, 4, spec,
                                        config=tiny_machine)
        assert len(obs.registry.frames) == len(run.loop_stats)
        assert all(f.cell == {"graph": "mesh", "variant": "omp",
                              "threads": 4} for f in obs.registry.frames)
        assert sum(f.span for f in obs.registry.frames) \
            == pytest.approx(run.total_cycles)
        # cache-tier counters recorded on every profile use
        totals = {}
        for f in obs.registry.frames:
            for k, v in f.counters.items():
                totals[k] = totals.get(k, 0.0) + v
        assert any(k.startswith("cache.accesses") for k in totals)
