"""Tracer core: activation, recording, clock, and non-interference."""

import numpy as np
import pytest

from repro.machine.costs import WorkCosts
from repro.obs import Observer, tracer as obs_tracer
from repro.obs.tracer import (PID_ENGINE, PID_THREADS, Tracer, active,
                              install, uninstall)
from repro.runtime.base import ProgrammingModel, RuntimeSpec, Schedule


def run_loop(tiny_machine, model=ProgrammingModel.OPENMP, threads=4, n=60):
    work = WorkCosts(np.full(n, 100.0), np.zeros(n), np.zeros(n))
    spec = RuntimeSpec(model, schedule=Schedule.DYNAMIC, chunk=10)
    return spec.parallel_for(tiny_machine, threads, work, tls_entries=8)


class TestActivation:
    def test_off_by_default(self):
        assert active() is None

    def test_install_uninstall(self):
        t = Tracer()
        install(t)
        try:
            assert active() is t
        finally:
            uninstall()
        assert active() is None

    def test_double_install_rejected(self):
        with Observer(metrics=False):
            with pytest.raises(RuntimeError, match="already installed"):
                install(Tracer())

    def test_install_type_checked(self):
        with pytest.raises(TypeError):
            install("not a tracer")


class TestRecording:
    def test_span_balances(self):
        t = Tracer()
        t.span("work", PID_THREADS, 0, 1.0, 5.0)
        assert [e["ph"] for e in t.events] == ["B", "E"]
        assert t.open_spans() == {}

    def test_span_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            Tracer().span("work", PID_THREADS, 0, 5.0, 1.0)

    def test_open_spans_tracks_depth(self):
        t = Tracer()
        t.begin("outer", PID_THREADS, 0, 0.0)
        t.begin("inner", PID_THREADS, 0, 1.0)
        assert t.open_spans() == {(PID_THREADS, 0): 2}
        t.end("inner", PID_THREADS, 0, 2.0)
        assert t.open_spans() == {(PID_THREADS, 0): 1}

    def test_offset_shifts_timestamps(self):
        t = Tracer()
        t.advance(100.0)
        t.instant("x", PID_ENGINE, 0, 5.0)
        assert t.events[-1]["ts"] == 105.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            Tracer().advance(-1.0)


class TestInstrumentedRuns:
    def test_loop_records_chunk_spans(self, tiny_machine):
        with Observer(metrics=False) as obs:
            stats = run_loop(tiny_machine)
        chunks = [e for e in obs.tracer.events
                  if e["name"] == "chunk" and e["ph"] == "B"]
        assert len(chunks) == stats.n_chunks
        assert any(e["name"].startswith("loop:") for e in obs.tracer.events)
        assert any(e["name"] == "barrier-wait" for e in obs.tracer.events)
        assert any(e["name"] == "tls-init" for e in obs.tracer.events)

    def test_resource_spans_recorded(self, tiny_machine):
        with Observer(metrics=False) as obs:
            run_loop(tiny_machine)
        rmw = [e for e in obs.tracer.events if e["name"] == "rmw"]
        assert rmw and all(e["tid"] == "omp-chunk-counter" for e in rmw)

    def test_steal_instants(self, tiny_machine):
        with Observer(metrics=False) as obs:
            stats = run_loop(tiny_machine, model=ProgrammingModel.CILK)
        steals = [e for e in obs.tracer.events if e["name"] == "steal"]
        assert len(steals) == stats.steals

    def test_tracing_does_not_change_timing(self, tiny_machine):
        bare = run_loop(tiny_machine)
        with Observer(metrics=False):
            traced = run_loop(tiny_machine)
        with Observer():
            observed = run_loop(tiny_machine)
        assert traced.span == bare.span
        assert observed.span == bare.span
        assert traced.busy_cycles == bare.busy_cycles
        assert [(c.lo, c.hi, c.thread, c.start, c.end) for c in traced.chunks] \
            == [(c.lo, c.hi, c.thread, c.start, c.end) for c in bare.chunks]

    def test_deterministic_byte_stable(self, tiny_machine):
        with Observer(metrics=False) as obs1:
            run_loop(tiny_machine, model=ProgrammingModel.TBB)
        with Observer(metrics=False) as obs2:
            run_loop(tiny_machine, model=ProgrammingModel.TBB)
        assert obs1.tracer.events == obs2.tracer.events

    def test_multi_loop_offset_advances(self, tiny_machine):
        with Observer(metrics=False) as obs:
            s1 = run_loop(tiny_machine)
            s2 = run_loop(tiny_machine)
        assert obs.tracer.offset == pytest.approx(s1.span + s2.span)
        loop_begins = [e for e in obs.tracer.events
                       if e["name"].startswith("loop:") and e["ph"] == "B"]
        assert loop_begins[1]["ts"] == pytest.approx(s1.span)


class TestObserver:
    def test_requires_some_half(self):
        with pytest.raises(ValueError):
            Observer(trace=False, metrics=False)

    def test_installs_both(self):
        with Observer() as obs:
            assert obs_tracer.active() is obs.tracer
        assert obs_tracer.active() is None

    def test_trace_only(self):
        from repro.obs import metrics as obs_metrics
        with Observer(metrics=False) as obs:
            assert obs.tracer is not None
            assert obs_metrics.active() is None
            assert obs.frames == []
