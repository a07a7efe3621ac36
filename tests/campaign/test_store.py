"""Content-addressed result store: keys, invalidation, maintenance."""

import os

import pytest

from repro.campaign.store import ResultStore, code_fingerprint


SPEC = {"experiment": "coloring", "graph": "auto",
        "variant": "OpenMP-dynamic", "threads": 11}


class TestPutGet:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(SPEC) is None
        store.put(SPEC, 123.5)
        assert store.get(SPEC) == 123.5
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_different_specs_do_not_collide(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, 1.0)
        store.put({**SPEC, "threads": 31}, 2.0)
        assert store.get(SPEC) == 1.0
        assert store.get({**SPEC, "threads": 31}) == 2.0

    def test_key_is_stable_and_fanned_out(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, 1.0)
        assert key == store.key(SPEC)
        assert os.path.exists(os.path.join(
            store.root, "objects", key[:2], f"{key[2:]}.json"))

    def test_contains_does_not_touch_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.contains(SPEC)
        store.put(SPEC, 1.0)
        assert store.contains(SPEC)
        assert store.stats.hits == 0 and store.stats.misses == 0

    def test_nan_is_never_stored(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put(SPEC, float("nan")) is None
        assert store.put(SPEC, float("inf")) is None
        assert store.get(SPEC) is None
        assert store.stats.skipped_nonfinite == 2
        assert len(store) == 0

    def test_no_tmp_files_left(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, 1.0)
        files = [f for _, _, fns in os.walk(store.root) for f in fns]
        assert all(f.endswith(".json") for f in files)

    def test_corrupt_object_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, 1.0)
        path = os.path.join(store.root, "objects", key[:2],
                            f"{key[2:]}.json")
        with open(path, "w") as fh:
            fh.write("{trunc")
        assert store.get(SPEC) is None
        assert store.stats.corrupt == 1


class TestFingerprint:
    def test_fingerprint_memoised_and_short(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_code_change_invalidates(self, tmp_path):
        old = ResultStore(tmp_path, fingerprint="aaaa")
        old.put(SPEC, 1.0)
        new = ResultStore(tmp_path, fingerprint="bbbb")
        assert new.get(SPEC) is None  # different key space
        assert new.key(SPEC) != old.key(SPEC)

    def test_gc_removes_stale_keeps_current(self, tmp_path):
        old = ResultStore(tmp_path, fingerprint="aaaa")
        old.put(SPEC, 1.0)
        new = ResultStore(tmp_path, fingerprint="bbbb")
        new.put(SPEC, 2.0)
        removed, kept = new.gc()
        assert (removed, kept) == (1, 1)
        assert new.get(SPEC) == 2.0


class TestMaintenance:
    def test_entries_surface(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, 7.0)
        (entry,) = store.entries()
        assert entry.spec == SPEC
        assert entry.value == 7.0
        assert entry.current
        assert entry.size_bytes > 0

    def test_gc_max_age(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, 1.0)
        path = os.path.join(store.root, "objects", key[:2],
                            f"{key[2:]}.json")
        week_ago = os.stat(path).st_mtime - 7 * 86400
        os.utime(path, (week_ago, week_ago))
        assert store.gc(max_age_days=30) == (0, 1)
        assert store.gc(max_age_days=3) == (1, 0)

    def test_gc_stale_only_ignores_age(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, 1.0)
        path = os.path.join(store.root, "objects", key[:2],
                            f"{key[2:]}.json")
        os.utime(path, (0, 0))
        assert store.gc(max_age_days=1, stale_only=True) == (0, 1)

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, 1.0)
        store.put({**SPEC, "threads": 31}, 2.0)
        assert store.clear() == 2
        assert len(store) == 0
        assert os.path.isdir(store.root)

    @staticmethod
    def _populate_side_trees(root):
        """Drop files into quarantine/ and into the journals/ tree that
        stores written by older versions still hold."""
        quarantine = os.path.join(root, "quarantine")
        journals = os.path.join(root, "journals", "serve")
        os.makedirs(quarantine, exist_ok=True)
        os.makedirs(journals, exist_ok=True)
        q_file = os.path.join(quarantine, "deadbeef.json")
        j_file = os.path.join(journals, "journal.jsonl")
        with open(q_file, "w", encoding="utf-8") as fh:
            fh.write("{corrupt but preserved}")
        with open(j_file, "w", encoding="utf-8") as fh:
            fh.write('{"type": "job", "job": "cafe0123-1"}\n')
        return q_file, j_file

    def test_gc_never_touches_quarantine_or_journals(self, tmp_path):
        # Regression guard: gc must only ever delete under objects/ —
        # quarantined evidence and an older version's journals survive
        # even the most aggressive gc settings.
        old = ResultStore(tmp_path, fingerprint="aaaa")
        old.put(SPEC, 1.0)
        store = ResultStore(tmp_path, fingerprint="bbbb")
        key = store.put(SPEC, 2.0)
        q_file, j_file = self._populate_side_trees(store.root)
        path = os.path.join(store.root, "objects", key[:2],
                            f"{key[2:]}.json")
        os.utime(path, (0, 0))
        removed, kept = store.gc(max_age_days=0.0)
        assert (removed, kept) == (2, 0)
        assert os.path.isfile(q_file)
        assert os.path.isfile(j_file)
        with open(j_file, encoding="utf-8") as fh:
            assert "cafe0123-1" in fh.read()

    def test_clear_never_touches_quarantine_or_journals(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, 1.0)
        q_file, j_file = self._populate_side_trees(store.root)
        assert store.clear() == 1
        assert os.path.isfile(q_file)
        assert os.path.isfile(j_file)

    def test_remove_object_refuses_paths_outside_objects(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, 1.0)
        q_file, j_file = self._populate_side_trees(store.root)
        for outside in (q_file, j_file):
            with pytest.raises(ValueError, match="refusing to delete"):
                store._remove_object(outside)
            assert os.path.isfile(outside)


class TestRootResolution:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        store = ResultStore()
        assert store.root == str(tmp_path / "envstore")

    def test_explicit_root_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        store = ResultStore(tmp_path / "explicit")
        assert store.root == str(tmp_path / "explicit")

    def test_tilde_expanded(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert "~" not in ResultStore().root


class TestIntegrity:
    def object_path(self, store, key):
        return os.path.join(store.root, "objects", key[:2],
                            f"{key[2:]}.json")

    def test_bit_flip_is_caught_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, 123.5)
        path = self.object_path(store, key)
        with open(path) as fh:
            text = fh.read()
        # Valid JSON, wrong payload: only the checksum can catch this.
        with open(path, "w") as fh:
            fh.write(text.replace("123.5", "999.5"))
        assert store.get(SPEC) is None
        assert store.stats.corrupt == 1
        assert store.stats.quarantined == 1
        assert not os.path.exists(path)
        quarantine = os.path.join(store.root, "quarantine")
        assert len(os.listdir(quarantine)) == 1

    def test_recompute_after_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, 1.0)
        with open(self.object_path(store, key), "a") as fh:
            fh.write("garbage")
        assert store.get(SPEC) is None     # quarantined, miss
        store.put(SPEC, 1.0)               # recomputed by the caller
        assert store.get(SPEC) == 1.0      # healthy again

    def test_verify_reports_without_touching(self, tmp_path):
        store = ResultStore(tmp_path)
        good = store.put(SPEC, 1.0)
        bad = store.put({**SPEC, "threads": 31}, 2.0)
        bad_path = self.object_path(store, bad)
        with open(bad_path, "w") as fh:
            fh.write("{trunc")
        report = store.verify()
        assert report.checked == 2 and report.ok == 1
        assert report.corrupt == [bad_path]
        assert not report.clean
        assert os.path.exists(bad_path)  # report-only: file untouched
        assert store.get(SPEC) == 1.0
        assert good != bad

    def test_verify_repair_quarantines_then_clean(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, 1.0)
        path = self.object_path(store, key)
        with open(path, "w") as fh:
            fh.write("{trunc")
        report = store.verify(repair=True)
        assert report.quarantined == [path]
        assert not os.path.exists(path)
        assert store.verify().clean


class TestFailedQuarantine:
    """The move into ``quarantine/`` fails (``os.replace`` raises): the
    corrupt object stays where it is, reads as a miss, is reported as
    corrupt, and a later ``put`` replaces it."""

    @staticmethod
    def corrupt_object(store):
        key = store.put(SPEC, 1.0)
        path = os.path.join(store.root, "objects", key[:2],
                            f"{key[2:]}.json")
        with open(path, "a") as fh:
            fh.write("garbage")
        return path

    @staticmethod
    def fail_replace(monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("injected failure of the quarantine move")
        monkeypatch.setattr(os, "replace", boom)

    def test_get_is_a_miss_and_leaves_the_file(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        path = self.corrupt_object(store)
        with monkeypatch.context() as m:
            self.fail_replace(m)
            assert store.get(SPEC) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 1
        assert store.stats.quarantined == 0
        assert os.path.exists(path)

        store.put(SPEC, 2.0)
        assert store.get(SPEC) == 2.0
        assert store.verify().clean

    def test_verify_repair_reports_corrupt(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        path = self.corrupt_object(store)
        with monkeypatch.context() as m:
            self.fail_replace(m)
            report = store.verify(repair=True)
        assert report.corrupt == [path]
        assert report.quarantined == []
        assert not report.clean
        assert store.stats.quarantined == 0
        assert os.path.exists(path)


class _CrashAfterWrite:
    """File wrapper whose ``write`` lands its bytes, then crashes."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text)
        raise OSError("injected crash after the tmp write")


class TestCrashPoints:
    """``put`` crashes at each step of ``atomic_write_text``: the failed
    write removes its ``.tmp`` file, a fresh store on the same root sees
    the old object or a miss, never a torn one, and the ``.tmp`` file a
    killed writer leaves behind is invisible."""

    OTHER = {**SPEC, "threads": 31}

    @staticmethod
    def inject(monkeypatch, step):
        from repro import _util

        def boom(*args, **kwargs):
            raise OSError(f"injected crash at {step}")

        if step == "tmp-write":
            real_open = open
            monkeypatch.setattr(
                _util, "open", lambda *a, **k: _CrashAfterWrite(
                    real_open(*a, **k)), raising=False)
        else:
            monkeypatch.setattr(_util.os, step, boom)

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new-key", "existing-key"])
    @pytest.mark.parametrize("step", ["tmp-write", "fsync", "replace"])
    def test_crash_leaves_old_value_or_miss(self, tmp_path, monkeypatch,
                                            step, existing):
        store = ResultStore(tmp_path)
        store.put(self.OTHER, 7.0)
        if existing:
            key = store.put(SPEC, 1.0)
        else:
            key = store.key(SPEC)
        path = os.path.join(store.root, "objects", key[:2],
                            f"{key[2:]}.json")
        before = len(store)

        with monkeypatch.context() as m:
            self.inject(m, step)
            with pytest.raises(OSError, match="injected crash"):
                store.put(SPEC, 2.0)
        tmp = f"{path}.{os.getpid()}.tmp"
        assert not os.path.exists(tmp)
        # A SIGKILL between the steps runs no cleanup: leave a torn tmp.
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write('{"spec": ')

        fresh = ResultStore(tmp_path)
        assert fresh.get(SPEC) == (1.0 if existing else None)
        assert fresh.get(self.OTHER) == 7.0
        assert fresh.stats.corrupt == 0
        report = fresh.verify()
        assert report.clean and report.checked == before
        assert len(fresh) == before

        fresh.put(SPEC, 3.0)
        assert ResultStore(tmp_path).get(SPEC) == 3.0
        assert not os.path.exists(tmp)
        assert fresh.verify().clean


class TestFingerprintBytes:
    def test_non_utf8_source_does_not_crash(self, tmp_path, monkeypatch):
        """The fingerprint hashes raw bytes: a Latin-1 or binary-ish
        source file must not abort the whole store."""
        import repro
        from repro.campaign import store as store_module

        pkg = tmp_path / "fakepkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("x = 1\n")
        (pkg / "latin1.py").write_bytes(b"# caf\xe9 \xff\xfe\n")
        monkeypatch.setattr(store_module, "_FINGERPRINT", None)
        monkeypatch.setattr(repro, "__file__", str(pkg / "__init__.py"))
        fp = code_fingerprint()
        assert len(fp) == 16
        # And it is stable for the same bytes.
        monkeypatch.setattr(store_module, "_FINGERPRINT", None)
        assert code_fingerprint() == fp


@pytest.mark.parametrize("value", [0.5, 1e12])
def test_value_roundtrips_exactly(tmp_path, value):
    store = ResultStore(tmp_path)
    store.put(SPEC, value)
    assert store.get(SPEC) == value
