"""Self time over nested spans, and the layer wrappers' install/restore."""

import pytest

from cellbench.spans import Capture, SpanRecorder, instrumented


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.enter("kernel")           # t=0
    clock.now = 1.0
    rec.enter("loop")             # t=1
    clock.now = 2.0
    rec.enter("engine")           # t=2
    clock.now = 5.0
    rec.exit()                    # engine 2..5
    clock.now = 6.0
    rec.exit()                    # loop 1..6
    clock.now = 7.0
    rec.enter("loop")             # t=7
    clock.now = 8.0
    rec.exit()                    # loop 7..8
    clock.now = 10.0
    rec.exit()                    # kernel 0..10

    assert rec.stats["engine"].total == 3.0
    assert rec.stats["engine"].self_time == 3.0
    assert rec.stats["loop"].calls == 2
    assert rec.stats["loop"].total == 6.0
    assert rec.stats["loop"].self_time == 3.0          # 5 - 3 + 1
    assert rec.stats["kernel"].self_time == 4.0        # 10 - 5 - 1
    assert rec.root_total == 10.0
    assert sum(s.self_time for s in rec.stats.values()) == rec.root_total


def test_recursive_span_counts_each_level_once():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.enter("f")
    clock.now = 1.0
    rec.enter("f")
    clock.now = 3.0
    rec.exit()
    clock.now = 4.0
    rec.exit()
    assert rec.stats["f"].calls == 2
    assert rec.stats["f"].self_time == 4.0
    assert rec.root_total == 4.0


def test_reset_refuses_open_spans():
    rec = SpanRecorder(clock=FakeClock())
    rec.enter("open")
    with pytest.raises(RuntimeError):
        rec.reset()
    rec.exit()
    rec.reset()
    assert not rec.stats and rec.root_total == 0.0


def test_instrumented_wraps_layers_and_restores_bindings():
    from repro.experiments import fig3_irregular
    from repro.graph.generators import grid2d
    from repro.kernels import irregular
    from repro.sim.engine import Engine

    original, original_run = irregular.simulate_irregular, Engine.run
    rec, capture = SpanRecorder(), Capture()
    with instrumented(rec, capture):
        assert fig3_irregular.simulate_irregular is not original
        irregular.simulate_irregular(grid2d(4, 4), 2)
    assert irregular.simulate_irregular is original
    assert fig3_irregular.simulate_irregular is original
    assert Engine.run is original_run

    kernel, loop = rec.stats["kernels.irregular"], \
        rec.stats["runtime.parallel_for"]
    assert kernel.calls == 1 and loop.calls >= 1
    assert rec.stats["sim.run"].calls == loop.calls
    assert kernel.total >= loop.total >= rec.stats["sim.run"].total
    assert capture.counts["sim.events"] > 0
    assert capture.counts["runtime.chunks"] == \
        rec.stats["machine.execute"].calls


def test_coloring_result_is_queued_for_validation():
    from repro.graph.generators import grid2d
    from repro.kernels.coloring import parallel

    rec, capture = SpanRecorder(), Capture()
    with instrumented(rec, capture):
        parallel.parallel_coloring(grid2d(5, 5), 4)
    assert capture.counts["kernels.coloring_rounds"] >= 1
    assert capture.counts["kernels.coloring_vertices"] == 25
    assert len(capture.pending) == 1 and capture.pending[0]() is True
