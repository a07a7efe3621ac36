"""Exporters: Chrome trace schema validity and JSONL round-trips."""

import json

import numpy as np
import pytest

from repro.machine.costs import WorkCosts
from repro.obs import (Observer, chrome_trace_events, load_metrics_jsonl,
                       write_chrome_trace, write_metrics_jsonl)
from repro.obs.metrics import MetricsFrame
from repro.obs.tracer import PID_THREADS, Tracer
from repro.runtime.base import ProgrammingModel, RuntimeSpec


def run_loop(tiny_machine, threads=4, n=60):
    work = WorkCosts(np.full(n, 100.0), np.zeros(n), np.zeros(n))
    spec = RuntimeSpec(ProgrammingModel.OPENMP, chunk=10)
    return spec.parallel_for(tiny_machine, threads, work, tls_entries=8)


def assert_schema_valid(events):
    """The golden contract: required keys, known phases, balanced B/E."""
    depth = {}
    for ev in events:
        for key in ("name", "ph", "ts", "pid", "tid"):
            assert key in ev, f"event missing {key}: {ev}"
        assert ev["ph"] in ("B", "E", "i", "M")
        assert isinstance(ev["tid"], int), "tids must resolve to ints"
        if ev["ph"] == "B":
            depth[(ev["pid"], ev["tid"])] = \
                depth.get((ev["pid"], ev["tid"]), 0) + 1
        elif ev["ph"] == "E":
            key = (ev["pid"], ev["tid"])
            depth[key] = depth.get(key, 0) - 1
            assert depth[key] >= 0, f"E without B on {key}"
    assert all(d == 0 for d in depth.values()), f"unbalanced spans: {depth}"


class TestChromeTrace:
    def test_schema_valid(self, tiny_machine):
        with Observer(metrics=False) as obs:
            run_loop(tiny_machine)
        assert_schema_valid(chrome_trace_events(obs.tracer))

    def test_metadata_names_tracks(self, tiny_machine):
        with Observer(metrics=False) as obs:
            run_loop(tiny_machine)
        events = chrome_trace_events(obs.tracer)
        names = [e for e in events if e["ph"] == "M"]
        assert {"sim-threads", "resources", "engine"} <= \
            {e["args"]["name"] for e in names if e["name"] == "process_name"}
        assert any(e["name"] == "thread_name"
                   and e["args"]["name"] == "omp-chunk-counter"
                   for e in names)

    def test_unclosed_spans_closed_at_export(self):
        t = Tracer()
        t.begin("work", PID_THREADS, 0, 0.0)
        t.begin("inner", PID_THREADS, 0, 5.0)
        t.instant("last", PID_THREADS, 0, 9.0)
        events = chrome_trace_events(t)
        assert_schema_valid(events)
        closers = [e for e in events if e["name"] == "(unclosed)"]
        assert len(closers) == 2
        assert all(e["ts"] == 9.0 for e in closers)

    def test_file_loads_as_json(self, tiny_machine, tmp_path):
        with Observer(metrics=False) as obs:
            run_loop(tiny_machine)
        path = tmp_path / "trace.json"
        write_chrome_trace(obs.tracer, path)
        data = json.loads(path.read_text())
        assert "traceEvents" in data
        assert_schema_valid(data["traceEvents"])
        assert data["otherData"]["producer"] == "repro.obs"

    def test_byte_stable_across_runs(self, tiny_machine, tmp_path):
        paths = []
        for i in range(2):
            with Observer(metrics=False) as obs:
                run_loop(tiny_machine)
            p = tmp_path / f"trace{i}.json"
            write_chrome_trace(obs.tracer, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestMetricsJsonl:
    def test_roundtrip(self, tiny_machine, tmp_path):
        with Observer(trace=False) as obs:
            run_loop(tiny_machine)
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(obs.registry, path)
        frames = load_metrics_jsonl(path)
        assert frames == obs.frames

    def test_header_required(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"other": 1}\n')
        with pytest.raises(ValueError, match="not a repro metrics"):
            load_metrics_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_metrics_jsonl(path)

    def test_frame_list_accepted(self, tmp_path):
        frames = [MetricsFrame(index=0, label="l", span=5.0, n_threads=2)]
        path = tmp_path / "m.jsonl"
        write_metrics_jsonl(frames, path)
        assert load_metrics_jsonl(path) == frames


class TestStampsAndStability:
    def test_exports_are_byte_stable_without_a_stamp(self, tiny_machine,
                                                     tmp_path):
        blobs = []
        for i in range(2):
            with Observer() as obs:
                run_loop(tiny_machine)
            t, m = tmp_path / f"t{i}.json", tmp_path / f"m{i}.jsonl"
            obs.write(trace_path=t, metrics_path=m)
            blobs.append((t.read_bytes(), m.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_stamp_clock_timestamps_both_artifacts(self, tiny_machine,
                                                   tmp_path):
        with Observer() as obs:
            run_loop(tiny_machine)
        t, m = tmp_path / "t.json", tmp_path / "m.jsonl"
        obs.write(trace_path=t, metrics_path=m, stamp=lambda: 7.0)
        assert json.loads(t.read_text())["otherData"]["generated_at"] == 7.0
        header = json.loads(m.read_text().splitlines()[0])
        assert header["generated_at"] == 7.0
        assert header["repro_metrics"] == 1

    def test_stamped_metrics_still_load(self, tiny_machine, tmp_path):
        with Observer(trace=False) as obs:
            run_loop(tiny_machine)
        path = tmp_path / "m.jsonl"
        write_metrics_jsonl(obs.registry, path, stamp=lambda: 1.0)
        assert load_metrics_jsonl(path) == obs.frames

    def test_json_keys_sorted(self, tiny_machine, tmp_path):
        with Observer(trace=False) as obs:
            run_loop(tiny_machine)
        path = tmp_path / "m.jsonl"
        write_metrics_jsonl(obs.registry, path)
        for line in path.read_text().splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)


class TestHalfDisabledObserver:
    def test_metrics_only_round_trip(self, tiny_machine, tmp_path):
        with Observer(trace=False) as obs:
            run_loop(tiny_machine)
        assert obs.tracer is None
        assert obs.frames
        path = tmp_path / "m.jsonl"
        obs.write(metrics_path=path)
        assert load_metrics_jsonl(path) == obs.frames

    def test_trace_only_round_trip(self, tiny_machine, tmp_path):
        with Observer(metrics=False) as obs:
            run_loop(tiny_machine)
        assert obs.registry is None
        assert obs.frames == []
        path = tmp_path / "t.json"
        obs.write(trace_path=path)
        assert_schema_valid(json.loads(path.read_text())["traceEvents"])

    def test_writing_the_disabled_half_is_an_error(self, tiny_machine,
                                                   tmp_path):
        with Observer(trace=False) as obs:
            run_loop(tiny_machine)
        with pytest.raises(ValueError, match="recorded no trace"):
            obs.write(trace_path=tmp_path / "t.json")
        with Observer(metrics=False) as obs:
            run_loop(tiny_machine)
        with pytest.raises(ValueError, match="recorded no metrics"):
            obs.write(metrics_path=tmp_path / "m.jsonl")

    def test_half_disabled_runs_match_fully_observed_cycles(self,
                                                            tiny_machine):
        spans = []
        for kwargs in ({}, {"trace": False}, {"metrics": False}):
            with Observer(**kwargs):
                spans.append(run_loop(tiny_machine).span)
        assert spans[0] == spans[1] == spans[2]


class TestReconciliation:
    def test_exported_totals_match_loop_stats(self, tiny_machine, tmp_path):
        """Counter totals written to disk equal the LoopStats fields."""
        with Observer(trace=False) as obs:
            stats = run_loop(tiny_machine)
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(obs.registry, path)
        (frame,) = load_metrics_jsonl(path)
        assert frame.busy_cycles == stats.busy_cycles
        assert frame.atomic_operations == stats.atomic_operations
        assert frame.counters["atomic.ops{var=omp-chunk-counter}"] \
            == stats.atomic_operations
        assert frame.counters["atomic.wait_cycles{var=omp-chunk-counter}"] \
            == pytest.approx(stats.atomic_wait_cycles)
        total = sum(frame.breakdown().values())
        assert total == pytest.approx(frame.thread_budget, rel=0.01)
