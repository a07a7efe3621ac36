"""Durability protocol of ``repro._util.atomic_write_text``.

The call order is the contract: the tmp file's bytes are fsynced before
the rename publishes them, and the parent directory is fsynced after
the rename so the new directory entry survives a power failure.
"""

import os

import pytest

from repro._util import atomic_write_text


def test_fsync_file_then_replace_then_fsync_dir(tmp_path, durability_calls):
    path = tmp_path / "out.json"
    atomic_write_text(path, "hello\n")
    # The tmp name carries the PID, so concurrent writers never share it.
    assert durability_calls == [
        "fsync file", f"replace {path}.{os.getpid()}.tmp -> {path}",
        "fsync dir"]
    assert path.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_relative_path_fsyncs_the_working_directory(tmp_path, monkeypatch,
                                                    durability_calls):
    monkeypatch.chdir(tmp_path)
    atomic_write_text("rel.txt", "y")
    assert durability_calls[-1] == "fsync dir"
    assert (tmp_path / "rel.txt").read_text() == "y"


@pytest.mark.parametrize("step", ["replace", "fsync"])
def test_failed_step_keeps_old_file_and_no_tmp(tmp_path, monkeypatch, step):
    """Crash point: the rename or the tmp file's fsync fails.  The error
    propagates, the previous contents stay whole and no tmp is left."""
    path = tmp_path / "out.json"
    atomic_write_text(path, "old\n")

    def fail(*args):
        raise OSError(f"injected: {step} failed")

    monkeypatch.setattr(os, step, fail)
    with pytest.raises(OSError, match="injected"):
        atomic_write_text(path, "new\n")
    monkeypatch.undo()
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
