"""Crash-safe journal: WAL roundtrip, corruption handling, run IDs."""

import os

import pytest

from repro.campaign.journal import (JOURNAL_FILENAME, Journal, JournalError,
                                    journal_dir, list_runs, new_run_id)


SPEC = {"name": "j-test", "experiment": "coloring", "graphs": ["auto"],
        "variants": ["OpenMP-dynamic"], "threads": [1], "seeds": [0]}


def make(tmp_path, run_id="abcd1234-1"):
    return Journal.create(tmp_path / run_id, run_id=run_id,
                          campaign="j-test", spec=SPEC, fingerprint="f" * 16)


class TestRoundtrip:
    def test_full_lifecycle_replays(self, tmp_path):
        with make(tmp_path) as journal:
            journal.submitted("cell-a")
            journal.submitted("cell-b")
            journal.completed("cell-a", 123.5)
            journal.failed("cell-b", "RuntimeError: boom")
            journal.end(interrupted=False)
        state = Journal.open(tmp_path / "abcd1234-1").replay()
        assert state.run_id == "abcd1234-1"
        assert state.campaign == "j-test"
        assert state.spec == SPEC
        assert state.fingerprint == "f" * 16
        assert state.completed == {"cell-a": 123.5}
        assert state.failed == {"cell-b": "RuntimeError: boom"}
        assert state.submitted == ["cell-a", "cell-b"]
        assert state.ended
        assert not state.dropped_tail and state.corrupt_at is None

    def test_completed_overrides_earlier_failure(self, tmp_path):
        with make(tmp_path) as journal:
            journal.failed("cell-a", "transient")
            journal.completed("cell-a", 7.0)
        state = Journal.open(tmp_path / "abcd1234-1").replay()
        assert state.completed == {"cell-a": 7.0}
        assert state.failed == {}

    def test_values_roundtrip_exactly(self, tmp_path):
        value = 1234.5678901234567  # full float64 precision
        with make(tmp_path) as journal:
            journal.completed("cell-a", value)
        state = Journal.open(tmp_path / "abcd1234-1").replay()
        assert state.completed["cell-a"] == value


class TestCorruption:
    def path(self, tmp_path):
        return tmp_path / "abcd1234-1" / JOURNAL_FILENAME

    def test_truncated_final_line_is_dropped(self, tmp_path):
        with make(tmp_path) as journal:
            journal.completed("cell-a", 1.0)
            journal.completed("cell-b", 2.0)
        # Simulate a kill -9 mid-append: a partial line with no newline.
        with open(self.path(tmp_path), "a", encoding="utf-8") as fh:
            fh.write('{"type": "completed", "cell": "cell-c", "va')
        state = Journal.open(tmp_path / "abcd1234-1").replay()
        assert state.dropped_tail
        assert state.corrupt_at is None
        assert state.completed == {"cell-a": 1.0, "cell-b": 2.0}

    def test_midfile_corruption_stops_replay(self, tmp_path):
        with make(tmp_path) as journal:
            journal.completed("cell-a", 1.0)
            journal.completed("cell-b", 2.0)
            journal.end()
        lines = self.path(tmp_path).read_text().splitlines()
        lines[2] = lines[2].replace('"cell-b"', '"cell-X"')  # breaks crc
        self.path(tmp_path).write_text("\n".join(lines) + "\n")
        state = Journal.open(tmp_path / "abcd1234-1").replay()
        assert state.corrupt_at == 3
        # Everything after the bad record is conservatively dropped.
        assert state.completed == {"cell-a": 1.0}
        assert not state.ended

    def test_checksum_catches_value_tamper(self, tmp_path):
        with make(tmp_path) as journal:
            journal.completed("cell-a", 1.0)
            journal.end()
        text = self.path(tmp_path).read_text()
        assert "1.0" in text
        self.path(tmp_path).write_text(text.replace("1.0", "9.0"))
        state = Journal.open(tmp_path / "abcd1234-1").replay()
        assert state.corrupt_at == 2
        assert state.completed == {}

    def test_no_begin_record_raises(self, tmp_path):
        os.makedirs(tmp_path / "abcd1234-1")
        self.path(tmp_path).write_text("garbage\n")
        with pytest.raises(JournalError, match="begin"):
            Journal.open(tmp_path / "abcd1234-1").replay()

    def test_unterminated_final_line_is_a_torn_tail(self, tmp_path):
        # Even when the bytes verify, a line without its newline is an
        # append that was never known to finish — trusting it would let
        # the next append land mid-line.
        with make(tmp_path) as journal:
            journal.completed("cell-a", 1.0)
            journal.completed("cell-b", 2.0)
        raw = self.path(tmp_path).read_bytes()
        assert raw.endswith(b"\n")
        self.path(tmp_path).write_bytes(raw[:-1])
        state = Journal.open(tmp_path / "abcd1234-1").replay()
        assert state.dropped_tail
        assert state.completed == {"cell-a": 1.0}


class TestRepair:
    def path(self, tmp_path):
        return tmp_path / "abcd1234-1" / JOURNAL_FILENAME

    def test_repair_is_noop_on_clean_journal(self, tmp_path):
        with make(tmp_path) as journal:
            journal.completed("cell-a", 1.0)
        journal = Journal.open(tmp_path / "abcd1234-1")
        state = journal.replay()
        assert state.valid_bytes == os.path.getsize(self.path(tmp_path))
        assert journal.repair(state) is False

    def test_append_after_torn_tail_survives_next_replay(self, tmp_path):
        # The kill -9 double-restart scenario: a torn tail, then an
        # append, then another replay.  Without repair the append merges
        # with the partial bytes into one mid-file corrupt line and
        # every later record is discarded.
        with make(tmp_path) as journal:
            journal.completed("cell-a", 1.0)
        with open(self.path(tmp_path), "a", encoding="utf-8") as fh:
            fh.write('{"type": "completed", "cell": "cell-b", "va')
        journal = Journal.open(tmp_path / "abcd1234-1")
        state = journal.replay()
        assert state.dropped_tail
        assert journal.repair(state) is True
        with journal:
            journal.completed("cell-c", 3.0)
            journal.end()
        fresh = Journal.open(tmp_path / "abcd1234-1").replay()
        assert fresh.completed == {"cell-a": 1.0, "cell-c": 3.0}
        assert fresh.ended
        assert not fresh.dropped_tail and fresh.corrupt_at is None

    def test_repair_truncates_past_midfile_corruption(self, tmp_path):
        # Records behind a mid-file corruption are already ignored by
        # replay; repair makes the file agree so appends are replayable.
        with make(tmp_path) as journal:
            journal.completed("cell-a", 1.0)
            journal.completed("cell-b", 2.0)
        lines = self.path(tmp_path).read_text().splitlines()
        lines[1] = lines[1].replace('"cell-a"', '"cell-X"')  # breaks crc
        self.path(tmp_path).write_text("\n".join(lines) + "\n")
        journal = Journal.open(tmp_path / "abcd1234-1")
        state = journal.replay()
        assert state.corrupt_at == 2
        assert journal.repair(state) is True
        with journal:
            journal.completed("cell-d", 4.0)
        fresh = Journal.open(tmp_path / "abcd1234-1").replay()
        assert fresh.completed == {"cell-d": 4.0}
        assert fresh.corrupt_at is None

    def test_repair_refuses_after_append(self, tmp_path):
        journal = make(tmp_path)
        with journal:
            journal.completed("cell-a", 1.0)
            with pytest.raises(JournalError, match="before the first"):
                journal.repair()


class TestConstruction:
    def test_create_refuses_existing(self, tmp_path):
        make(tmp_path).close()
        with pytest.raises(JournalError, match="already exists"):
            make(tmp_path)

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            Journal.open(tmp_path / "nope-1")


class TestRunIds:
    def test_deterministic_prefix_and_sequence(self, tmp_path):
        root = str(tmp_path)
        first = new_run_id(root, SPEC)
        prefix, seq = first.split("-")
        assert len(prefix) == 8 and seq == "1"
        assert new_run_id(root, SPEC) == first  # nothing allocated yet
        Journal.create(journal_dir(root, first), run_id=first,
                       campaign="j-test", spec=SPEC,
                       fingerprint="f" * 16).close()
        assert new_run_id(root, SPEC) == f"{prefix}-2"

    def test_sequence_is_global_across_specs(self, tmp_path):
        root = str(tmp_path)
        first = new_run_id(root, SPEC)
        Journal.create(journal_dir(root, first), run_id=first,
                       campaign="j-test", spec=SPEC,
                       fingerprint="f" * 16).close()
        other = new_run_id(root, {**SPEC, "name": "other"})
        assert other.split("-") != first.split("-")
        assert other.endswith("-2")

    def test_list_runs_only_sees_real_journals(self, tmp_path):
        root = str(tmp_path)
        assert list_runs(root) == []
        run = new_run_id(root, SPEC)
        Journal.create(journal_dir(root, run), run_id=run,
                       campaign="j-test", spec=SPEC,
                       fingerprint="f" * 16).close()
        os.makedirs(journal_dir(root, "99999999-9"))  # dir, no journal
        os.makedirs(os.path.join(journal_dir(root), "not-a-run-id"))
        assert list_runs(root) == [run]


class TestLegacyJobRecords:
    """Stores written by the retired campaign service still hold
    ``job``/``job-end`` records, in run journals and in their own
    ``journals/serve/`` file; replay and run listing ignore them."""

    @staticmethod
    def _write(directory, with_jobs):
        run_id = os.path.basename(directory)
        with Journal.create(directory, run_id=run_id, campaign="j-test",
                            spec=SPEC, fingerprint="f" * 16) as journal:
            if with_jobs:
                journal.append({"type": "job", "job": "cafe0123-1",
                                "campaign": "j-test", "spec": SPEC,
                                "client": "ci", "priority": 0})
            journal.submitted("cell-a")
            journal.submitted("cell-b")
            journal.completed("cell-a", 12.5)
            if with_jobs:
                journal.append({"type": "job-end", "job": "cafe0123-1"})
            journal.failed("cell-b", "RuntimeError: boom")
        return Journal.open(directory).replay()

    def test_job_records_do_not_change_replayed_state(self, tmp_path):
        plain = self._write(tmp_path / "abcd1234-1", with_jobs=False)
        mixed = self._write(tmp_path / "abcd1234-2", with_jobs=True)
        assert mixed.completed == plain.completed == {"cell-a": 12.5}
        assert mixed.failed == plain.failed == {
            "cell-b": "RuntimeError: boom"}
        assert mixed.submitted == plain.submitted == ["cell-a", "cell-b"]
        assert not mixed.dropped_tail and mixed.corrupt_at is None

    def test_list_runs_skips_legacy_service_journal(self, tmp_path):
        root = str(tmp_path)
        run = new_run_id(root, SPEC)
        self._write(journal_dir(root, run), with_jobs=False)
        legacy = journal_dir(root, "serve")
        os.makedirs(legacy)
        with open(os.path.join(legacy, JOURNAL_FILENAME), "w",
                  encoding="utf-8") as fh:
            fh.write('{"type": "job", "job": "cafe0123-1"}\n')
        assert list_runs(root) == [run]
