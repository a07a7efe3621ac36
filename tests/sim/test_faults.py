"""Fault-injection layer: determinism, degradation, kill semantics."""

import numpy as np
import pytest

from repro.graph.generators import tube_mesh
from repro.kernels.coloring.parallel import parallel_coloring
from repro.kernels.coloring.verify import verify_coloring
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule)
from repro.sim.faults import (DEGRADING_KINDS, FaultInjector, FaultKind,
                              FaultPlan, FaultSpec)


@pytest.fixture(scope="module")
def mesh():
    return tube_mesh(900, 45, 10, 1.0, 3, seed=6)


DYNAMIC = RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC,
                      chunk=13)
STATIC = RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.STATIC,
                     chunk=5)
GUIDED = RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.GUIDED,
                     chunk=13)
CILK = RuntimeSpec(ProgrammingModel.CILK, chunk=13)
TBB = RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE,
                  chunk=5)


class TestFaultSpec:
    def test_window(self):
        s = FaultSpec(FaultKind.CORE_THROTTLE, 0, start=10.0, duration=5.0,
                      magnitude=2.0)
        assert s.end == 15.0
        assert s.active(10.0) and s.active(14.999)
        assert not s.active(9.999) and not s.active(15.0)

    def test_kind_checked(self):
        with pytest.raises(TypeError, match="FaultKind"):
            FaultSpec("core_throttle")

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            FaultSpec(FaultKind.SMT_HANG, start=-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(FaultKind.SMT_HANG, duration=-1.0)

    @pytest.mark.parametrize("kind", [FaultKind.CORE_THROTTLE,
                                      FaultKind.MEM_JITTER])
    def test_slowdown_magnitude_below_one_rejected(self, kind):
        with pytest.raises(ValueError, match="slowdown"):
            FaultSpec(kind, magnitude=0.5)

    def test_negative_stall_rejected(self):
        with pytest.raises(ValueError, match="stall"):
            FaultSpec(FaultKind.TRANSIENT_STALL, magnitude=-3.0)


class TestFaultPlan:
    def test_specs_type_checked(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultPlan(specs=("nope",))

    def test_schedule_sorted_and_stable(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.MEM_JITTER, start=50.0, magnitude=2.0),
            FaultSpec(FaultKind.SMT_HANG, target=1, start=5.0, duration=3.0),
        ))
        sched = plan.schedule()
        assert [row[0] for row in sched] == [5.0, 50.0]
        assert sched == plan.schedule()

    def test_random_bit_identical(self):
        kw = dict(n_cores=8, n_threads=16, intensity=0.7, horizon=1e6)
        a = FaultPlan.random(42, **kw)
        b = FaultPlan.random(42, **kw)
        assert a.schedule() == b.schedule()
        assert a.schedule() != FaultPlan.random(43, **kw).schedule()

    def test_random_scales_with_intensity(self):
        none = FaultPlan.random(1, n_cores=8, n_threads=8, intensity=0.0,
                                horizon=1e6)
        full = FaultPlan.random(1, n_cores=8, n_threads=8, intensity=1.0,
                                horizon=1e6)
        assert none.specs == ()
        assert len(full.specs) == 8
        assert all(s.kind in DEGRADING_KINDS for s in full.specs)

    def test_random_validation(self):
        with pytest.raises(ValueError, match="intensity"):
            FaultPlan.random(0, n_cores=4, n_threads=4, intensity=1.5,
                             horizon=1e6)
        with pytest.raises(ValueError, match="horizon"):
            FaultPlan.random(0, n_cores=4, n_threads=4, intensity=0.5,
                             horizon=0.0)
        with pytest.raises(ValueError, match="kinds"):
            FaultPlan.random(0, n_cores=4, n_threads=4, intensity=0.5,
                             horizon=1e6, kinds=())


class TestInjectorQueries:
    def test_compute_factor_products_overlapping_throttles(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(FaultKind.CORE_THROTTLE, 0, 0.0, 100.0, 2.0),
            FaultSpec(FaultKind.CORE_THROTTLE, 0, 50.0, 100.0, 3.0),
            FaultSpec(FaultKind.CORE_THROTTLE, 1, 0.0, 100.0, 5.0),
        )))
        assert inj.compute_factor(0, 10.0) == 2.0
        assert inj.compute_factor(0, 60.0) == 6.0
        assert inj.compute_factor(0, 200.0) == 1.0
        assert inj.compute_factor(2, 10.0) == 1.0

    def test_channel_factor(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(FaultKind.MEM_JITTER, 0, 10.0, 10.0, 4.0),)))
        assert inj.channel_factor(5.0) == 1.0
        assert inj.channel_factor(15.0) == 4.0

    def test_hang_delay_until_window_end(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(FaultKind.SMT_HANG, 3, 100.0, 50.0),)))
        assert inj.hang_delay(3, 120.0) == pytest.approx(30.0)
        assert inj.hang_delay(3, 160.0) == 0.0
        assert inj.hang_delay(2, 120.0) == 0.0

    def test_clock_offset_applies_across_regions(self):
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(FaultKind.CORE_THROTTLE, 0, 1000.0, 100.0, 2.0),)))
        assert inj.compute_factor(0, 50.0) == 1.0
        inj.end_loop(1000.0)  # a region of 1000 cycles has elapsed
        assert inj.compute_factor(0, 50.0) == 2.0

    def test_transient_stall_draws_deterministic(self):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(FaultKind.TRANSIENT_STALL, 0, 0.0, 1e9, 100.0),))
        a, b = FaultInjector(plan), FaultInjector(plan)
        draws_a = [a.transient_stall(0, 1.0) for _ in range(5)]
        draws_b = [b.transient_stall(0, 1.0) for _ in range(5)]
        assert draws_a == draws_b
        assert len(set(draws_a)) == 5  # counter-keyed: every draw distinct
        assert all(d > 0 for d in draws_a)


@pytest.mark.parametrize("spec", [DYNAMIC, STATIC, GUIDED, CILK, TBB],
                         ids=["dynamic", "static", "guided", "cilk", "tbb"])
class TestKernelUnderFaults:
    def _cycles(self, mesh, spec, machine, plan):
        run = parallel_coloring(mesh, 8, spec, machine, cache_scale=0.1,
                                faults=FaultInjector(plan))
        assert verify_coloring(mesh, run.colors)
        return run.total_cycles

    def test_identical_plan_identical_cycles(self, mesh, spec, tiny_machine):
        healthy = self._cycles(mesh, spec, tiny_machine, FaultPlan())
        plan = FaultPlan.random(5, n_cores=4, n_threads=8, intensity=1.0,
                                horizon=healthy)
        assert plan.schedule() == FaultPlan.random(
            5, n_cores=4, n_threads=8, intensity=1.0,
            horizon=healthy).schedule()
        c1 = self._cycles(mesh, spec, tiny_machine, plan)
        c2 = self._cycles(mesh, spec, tiny_machine, plan)
        assert c1 == c2  # bit-identical simulated cycle counts

    def test_throttle_slows_the_run(self, mesh, spec, tiny_machine):
        healthy = self._cycles(mesh, spec, tiny_machine, FaultPlan())
        slow = self._cycles(mesh, spec, tiny_machine, FaultPlan(specs=tuple(
            FaultSpec(FaultKind.CORE_THROTTLE, c, 0.0, float("inf"), 4.0)
            for c in range(4))))
        assert slow > healthy


class TestThreadKill:
    def _run(self, mesh, spec, machine, victim=3):
        healthy = parallel_coloring(mesh, 8, spec, machine, cache_scale=0.1)
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.THREAD_KILL, target=victim,
                      start=0.05 * healthy.total_cycles),))
        inj = FaultInjector(plan)
        run = parallel_coloring(mesh, 8, spec, machine, cache_scale=0.1,
                                faults=inj)
        return run, inj

    @pytest.mark.parametrize("spec", [DYNAMIC, GUIDED, CILK, TBB],
                             ids=["dynamic", "guided", "cilk", "tbb"])
    def test_redistributing_schedulers_stay_valid(self, mesh, spec,
                                                  tiny_machine):
        run, inj = self._run(mesh, spec, tiny_machine)
        assert inj.kills_fired == 1
        assert verify_coloring(mesh, run.colors)

    def test_static_loses_predealt_work(self, mesh, tiny_machine):
        run, inj = self._run(mesh, STATIC, tiny_machine)
        assert inj.kills_fired == 1
        # the victim's statically-dealt chunks were never coloured
        assert not verify_coloring(mesh, run.colors)
        assert (run.colors == 0).any()

    def test_kill_recorded_in_stats(self, mesh, tiny_machine):
        run, inj = self._run(mesh, DYNAMIC, tiny_machine)
        assert any(3 in loop.killed_threads for loop in run.loop_stats)

    def test_kill_stays_dead_across_regions(self, mesh, tiny_machine):
        # colouring issues many parallel_for regions after the kill; the
        # run completing at all proves later regions drop the dead party.
        run, inj = self._run(mesh, DYNAMIC, tiny_machine)
        assert run.rounds >= 1
        assert inj.kills_fired == 1  # flagged once, dead forever


class TestInjectorWiring:
    def test_single_thread_region_with_faults(self, mesh, tiny_machine):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.CORE_THROTTLE, 0, 0.0, float("inf"), 2.0),))
        run = parallel_coloring(mesh, 1, DYNAMIC, tiny_machine,
                                cache_scale=0.1, faults=FaultInjector(plan))
        assert verify_coloring(mesh, run.colors)

    def test_hang_slows_victim_thread(self, mesh, tiny_machine):
        healthy = parallel_coloring(mesh, 4, DYNAMIC, tiny_machine,
                                    cache_scale=0.1)
        span = healthy.total_cycles
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.SMT_HANG, target=0, start=0.0,
                      duration=0.5 * span),))
        run = parallel_coloring(mesh, 4, DYNAMIC, tiny_machine,
                                cache_scale=0.1, faults=FaultInjector(plan))
        assert verify_coloring(mesh, run.colors)
        assert run.total_cycles > span
        assert sum(loop.hang_cycles for loop in run.loop_stats) > 0

    def test_mem_jitter_stretches_channel_bound_chunks(self, tiny_machine):
        # The test mesh is cache-resident, so jitter is asserted on one
        # memory-bound chunk (the intensity sweep covers the end-to-end
        # effect on the real suite graphs).
        from repro.machine.costs import WorkCosts
        from repro.runtime.base import LoopContext

        def chunk_time(faults):
            work = WorkCosts(np.array([10.0]), np.array([0.0]),
                             np.array([500.0]))
            ctx = LoopContext(tiny_machine, 1, work, faults=faults)
            return next(ctx.execute_chunk(0, 0, 1))

        healthy = chunk_time(None)
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.MEM_JITTER, 0, 0.0, float("inf"), 3.0),))
        assert chunk_time(FaultInjector(plan)) > healthy

    def test_injectors_are_single_use_state(self, mesh, tiny_machine):
        # a reused injector carries its clock forward — documented contract
        inj = FaultInjector(FaultPlan())
        parallel_coloring(mesh, 2, DYNAMIC, tiny_machine, cache_scale=0.1,
                          faults=inj)
        assert inj.clock > 0.0


class TestBfsUnderFaults:
    def test_bfs_deterministic_and_valid_under_faults(self, mesh,
                                                      tiny_machine):
        from repro.kernels.bfs.layered import simulate_bfs
        from repro.kernels.bfs.validate import validate_bfs
        healthy = simulate_bfs(mesh, 4, variant="openmp-block", block=8,
                               config=tiny_machine, cache_scale=0.1)
        plan = FaultPlan.random(11, n_cores=4, n_threads=4, intensity=1.0,
                                horizon=healthy.total_cycles)
        runs = [simulate_bfs(mesh, 4, variant="openmp-block", block=8,
                             config=tiny_machine, cache_scale=0.1,
                             faults=FaultInjector(plan)) for _ in range(2)]
        assert runs[0].total_cycles == runs[1].total_cycles
        assert runs[0].total_cycles > healthy.total_cycles
        for r in runs:
            validate_bfs(mesh, mesh.n_vertices // 2, r.dist)
            assert np.array_equal(r.dist, healthy.dist)
