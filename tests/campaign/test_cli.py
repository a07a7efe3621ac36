"""``repro campaign`` CLI: run/status/cache, warm-store determinism."""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.campaign.cli import main


SPEC = {"name": "cli-test", "experiment": "coloring",
        "graphs": ["auto"], "variants": ["OpenMP-dynamic"],
        "threads": [1, 11], "seeds": [0],
        "params": {"ordering": "natural"}}


@pytest.fixture
def spec_file(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAST", "1")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


class TestRun:
    def test_cold_then_warm_is_all_hits_and_byte_identical(
            self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store")
        args = ["run", str(spec_file), "--store", store, "--quiet",
                "--retries", "0"]
        out1, sum1 = tmp_path / "r1.json", tmp_path / "s1.json"
        out2, sum2 = tmp_path / "r2.json", tmp_path / "s2.json"

        assert main(args + ["--output", str(out1),
                            "--summary", str(sum1)]) == 0
        assert main(args + ["--output", str(out2),
                            "--summary", str(sum2)]) == 0

        s1, s2 = json.loads(sum1.read_text()), json.loads(sum2.read_text())
        assert s1["computed"] == 2 and s1["hits"] == 0
        assert s2["hits"] == s2["cells_total"] == 2
        assert s2["computed"] == 0
        assert s2["hit_rate"] == 1.0
        assert out1.read_bytes() == out2.read_bytes()

    def test_results_payload_shape(self, tmp_path, spec_file):
        out = tmp_path / "r.json"
        assert main(["run", str(spec_file), "--store",
                     str(tmp_path / "store"), "--quiet",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["campaign"] == "cli-test"
        assert payload["spec"]["experiment"] == "coloring"
        assert len(payload["results"]) == 2
        for entry in payload["results"].values():
            assert entry["cycles"] > 0
            assert "error" not in entry

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SPEC, "experiment": "nope"}))
        assert main(["run", str(bad), "--store",
                     str(tmp_path / "store")]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json"), "--store",
                     str(tmp_path / "store")]) == 2


class TestStatus:
    def test_pending_then_cached(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store")
        assert main(["status", str(spec_file), "--store", store]) == 0
        assert "2 cell(s), 0 cached, 2 pending" in capsys.readouterr().out
        main(["run", str(spec_file), "--store", store, "--quiet"])
        capsys.readouterr()
        assert main(["status", str(spec_file), "--store", store]) == 0
        assert "2 cached, 0 pending" in capsys.readouterr().out


class TestWallCounters:
    def test_summary_and_status_surface_wall_block(self, tmp_path,
                                                   spec_file, capsys):
        store = str(tmp_path / "store")
        summary = tmp_path / "s.json"
        assert main(["run", str(spec_file), "--store", store, "--quiet",
                     "--summary", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "cells/s" in out and "utilization" in out
        wall = json.loads(summary.read_text())["wall"]
        assert wall["cells_per_second"] > 0
        assert 0.0 < wall["worker_utilization"] <= 1.0
        assert wall["store_gets"] == 2
        # status reports the persisted counters of the last run
        assert main(["status", str(spec_file), "--store", store]) == 0
        status_out = capsys.readouterr().out
        assert "last run" in status_out and "cells/s" in status_out

    def test_status_without_runs_omits_wall_line(self, tmp_path, spec_file,
                                                 capsys):
        assert main(["status", str(spec_file), "--store",
                     str(tmp_path / "store")]) == 0
        assert "last run" not in capsys.readouterr().out


class TestResume:
    def test_rerun_after_kill_recomputes_no_stored_cell(self, tmp_path,
                                                         spec_file):
        """SIGKILL a run, re-run it over the same store: every object
        stored before the kill is a hit and the output is byte-identical
        to an uninterrupted run, wherever the kill landed."""
        ref = tmp_path / "ref.json"
        assert main(["run", str(spec_file), "--store",
                     str(tmp_path / "ref-store"), "--quiet",
                     "--output", str(ref)]) == 0

        store = str(tmp_path / "store")
        objects = os.path.join(store, "objects", "*", "*.json")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "campaign", "run",
             str(spec_file), "--store", store, "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 120
            while not glob.glob(objects) and proc.poll() is None \
                    and time.time() < deadline:
                time.sleep(0.02)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait()
        before = len(glob.glob(objects))
        assert before >= 1

        out, summary = tmp_path / "out.json", tmp_path / "s.json"
        assert main(["run", str(spec_file), "--store", store, "--quiet",
                     "--output", str(out), "--summary", str(summary)]) == 0
        s = json.loads(summary.read_text())
        assert s["failed"] == 0 and not s["interrupted"]
        assert s["hits"] == before
        assert s["computed"] == s["cells_total"] - s["hits"]
        assert out.read_bytes() == ref.read_bytes()


class TestCacheVerify:
    def corrupt_one(self, store_dir):
        objects = os.path.join(store_dir, "objects")
        prefix = sorted(os.listdir(objects))[0]
        subdir = os.path.join(objects, prefix)
        path = os.path.join(subdir, sorted(os.listdir(subdir))[0])
        with open(path, "a") as fh:
            fh.write("garbage")
        return path

    def test_verify_flags_corruption_then_repairs(self, tmp_path,
                                                  spec_file, capsys):
        store = str(tmp_path / "store")
        main(["run", str(spec_file), "--store", store, "--quiet"])
        capsys.readouterr()

        assert main(["cache", "verify", "--store", store]) == 0
        assert "2 ok, 0 corrupt" in capsys.readouterr().out

        self.corrupt_one(store)
        assert main(["cache", "verify", "--store", store]) == 1
        out = capsys.readouterr().out
        assert "1 ok, 1 corrupt" in out and "--repair" in out

        assert main(["cache", "verify", "--repair", "--store", store]) == 0
        assert "1 quarantined" in capsys.readouterr().out
        assert main(["cache", "verify", "--store", store]) == 0


class TestCache:
    def test_stats_ls_gc_clear(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store")
        main(["run", str(spec_file), "--store", store, "--quiet"])
        capsys.readouterr()

        assert main(["cache", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 object(s)" in out and "2 current" in out

        assert main(["cache", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "coloring/auto/OpenMP-dynamic@1" in out

        assert main(["cache", "gc", "--store", store]) == 0
        assert "removed 0 object(s), kept 2" in capsys.readouterr().out

        assert main(["cache", "clear", "--store", store]) == 0
        assert "removed 2 object(s)" in capsys.readouterr().out
