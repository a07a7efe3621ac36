"""Durability protocol of ``repro._util.atomic_write_text``.

The call order is the contract: the tmp file's bytes are fsynced before
the rename publishes them, and the parent directory is fsynced after
the rename so the new directory entry survives a power failure.
"""

import os
import stat

import pytest

from repro import _util
from repro._util import atomic_write_text


@pytest.fixture
def calls(monkeypatch):
    """Record every fsync (file or directory) and replace, in order."""
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        log.append(f"fsync {kind}")
        real_fsync(fd)

    def replace(src, dst):
        log.append(f"replace {src} -> {dst}")
        real_replace(src, dst)

    monkeypatch.setattr(_util.os, "fsync", fsync)
    monkeypatch.setattr(_util.os, "replace", replace)
    return log


def test_fsync_file_then_replace_then_fsync_dir(tmp_path, calls):
    path = tmp_path / "out.json"
    atomic_write_text(path, "hello\n")
    # The tmp name carries the PID, so concurrent writers never share it.
    assert calls == ["fsync file",
                     f"replace {path}.{os.getpid()}.tmp -> {path}",
                     "fsync dir"]
    assert path.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_relative_path_fsyncs_the_working_directory(tmp_path, monkeypatch,
                                                    calls):
    monkeypatch.chdir(tmp_path)
    atomic_write_text("rel.txt", "y")
    assert calls[-1] == "fsync dir"
    assert (tmp_path / "rel.txt").read_text() == "y"
