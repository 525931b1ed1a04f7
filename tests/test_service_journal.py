"""The write-ahead job journal: replay, read-through, corruption matrix."""

import json

import pytest

from repro.resilience.atomic import record_crc
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    RecoveredJob,
)


@pytest.fixture
def journal(tmp_path):
    return JobJournal(tmp_path / "journal.jsonl")


REQUEST = {"instance": {"kind": "cdd"}, "method": "serial_sa"}
DOCUMENT = {"instance": "i", "method": "serial_sa", "key": "k",
            "result": {"cost": 42}}


def submit(journal, job_id, seq, **overrides):
    fields = dict(
        request=REQUEST, key=f"key-{job_id}", method="serial_sa",
        instance_name="biskup", idempotency_key=None,
    )
    fields.update(overrides)
    journal.record_submitted(job_id, seq=seq, **fields)


def reopen(journal):
    """A fresh instance over the same file — the restart's view."""
    return JobJournal(journal.path)


class TestReplay:
    def test_empty_or_missing_journal_recovers_nothing(self, journal):
        recovery = journal.replay()
        assert recovery.terminal == [] and recovery.pending == []
        assert recovery.max_seq == 0 and recovery.quarantined_lines == 0

    def test_done_job_is_terminal_with_offset(self, journal):
        submit(journal, "j000001", 1)
        journal.record_running("j000001")
        journal.record_done(
            "j000001", document=DOCUMENT, cached=False, duration_s=0.5
        )
        recovery = reopen(journal).replay()
        assert [job.job_id for job in recovery.terminal] == ["j000001"]
        job = recovery.terminal[0]
        assert job.state == "done" and job.terminal_offset is not None
        assert recovery.pending == []
        assert recovery.max_seq == 1

    def test_failed_job_is_terminal(self, journal):
        submit(journal, "j000001", 1)
        journal.record_failed(
            "j000001", error={"error": "boom", "error_type": "worker_crash"},
            duration_s=0.1,
        )
        recovery = reopen(journal).replay()
        assert recovery.terminal[0].state == "failed"

    def test_unfinished_jobs_are_pending_in_admission_order(self, journal):
        submit(journal, "j000001", 1)
        journal.record_running("j000001")
        submit(journal, "j000002", 2)
        submit(journal, "j000003", 3)
        journal.record_interrupted("j000003")
        recovery = reopen(journal).replay()
        assert [job.job_id for job in recovery.pending] == [
            "j000001", "j000002", "j000003"
        ]
        # queued / running / interrupted all degrade to re-runnable.
        assert {job.state for job in recovery.pending} == {"queued"}
        assert recovery.max_seq == 3

    def test_idempotency_keys_survive_replay(self, journal):
        submit(journal, "j000001", 1, idempotency_key="alpha")
        submit(journal, "j000002", 2)
        recovery = reopen(journal).replay()
        assert recovery.idempotency == {"alpha": "j000001"}

    def test_running_before_submitted_is_tolerated(self, journal):
        # The admission thread journals `submitted` after the enqueue
        # decision, so a racing worker can journal `running` first.
        journal.record_running("j000001")
        submit(journal, "j000001", 1)
        recovery = reopen(journal).replay()
        assert [job.job_id for job in recovery.pending] == ["j000001"]

    def test_done_before_submitted_stays_terminal(self, journal):
        journal.record_done(
            "j000001", document=DOCUMENT, cached=False, duration_s=0.2
        )
        submit(journal, "j000001", 1)
        recovery = reopen(journal).replay()
        assert [job.job_id for job in recovery.terminal] == ["j000001"]
        assert recovery.pending == []


class TestLookup:
    def test_done_lookup_returns_the_stored_document(self, journal):
        submit(journal, "j000001", 1)
        journal.record_done(
            "j000001", document=DOCUMENT, cached=True, duration_s=0.25
        )
        restarted = reopen(journal)
        restarted.replay()
        view = restarted.lookup("j000001")
        assert view["state"] == "done" and view["cached"] is True
        assert view["document"] == DOCUMENT
        assert view["duration_s"] == 0.25
        assert view["method"] == "serial_sa" and view["key"] == "key-j000001"

    def test_failed_lookup_returns_the_error(self, journal):
        error = {"error": "boom", "error_type": "worker_crash"}
        submit(journal, "j000001", 1)
        journal.record_failed("j000001", error=error, duration_s=None)
        restarted = reopen(journal)
        restarted.replay()
        view = restarted.lookup("j000001")
        assert view["state"] == "failed" and view["error"] == error
        assert "document" not in view and "duration_s" not in view

    def test_unknown_and_unfinished_jobs_lookup_none(self, journal):
        submit(journal, "j000001", 1)
        restarted = reopen(journal)
        restarted.replay()
        assert restarted.lookup("j000001") is None  # no terminal line
        assert restarted.lookup("j999999") is None

    def test_lookup_recrc_checks_degrade_to_none(self, journal):
        # Corruption landing *after* the index was built must surface as
        # not-found, never as a wrong answer: lookup re-verifies CRCs.
        submit(journal, "j000001", 1)
        journal.record_done(
            "j000001", document=DOCUMENT, cached=False, duration_s=0.1
        )
        restarted = reopen(journal)
        restarted.replay()
        raw = bytearray(journal.path.read_bytes())
        offset = restarted._terminal_offsets["j000001"]
        raw[offset + 5] ^= 0xFF
        journal.path.write_bytes(bytes(raw))
        assert restarted.lookup("j000001") is None


class TestCorruptionMatrix:
    """Bitrot, truncation, CRC mismatch and schema skew are quarantined
    verbatim; intact records keep replaying."""

    def _lines(self, journal):
        return journal.path.read_bytes().decode("utf-8").splitlines()

    def test_bitrot_quarantines_line_and_demotes_terminal(self, journal):
        submit(journal, "j000001", 1)
        journal.record_done(
            "j000001", document=DOCUMENT, cached=False, duration_s=0.1
        )
        lines = self._lines(journal)
        corrupted = lines[1][:10] + "\x00\x00" + lines[1][14:]
        journal.path.write_text(
            "\n".join([lines[0], corrupted]) + "\n", encoding="utf-8"
        )
        recovery = reopen(journal).replay()
        assert recovery.quarantined_lines == 1
        # The terminal line is gone, but the job is deterministic: it
        # degrades to pending and re-runs bit-identically.
        assert [job.job_id for job in recovery.pending] == ["j000001"]
        assert recovery.terminal == []

    def test_torn_tail_line_quarantined_prior_records_intact(self, journal):
        submit(journal, "j000001", 1)
        journal.record_done(
            "j000001", document=DOCUMENT, cached=False, duration_s=0.1
        )
        submit(journal, "j000002", 2)
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[: len(raw) - 40])  # tear the tail
        recovery = reopen(journal).replay()
        assert recovery.quarantined_lines == 1
        assert [job.job_id for job in recovery.terminal] == ["j000001"]
        assert recovery.pending == []  # j000002's submitted line was torn

    def test_crc_mismatch_is_quarantined(self, journal):
        submit(journal, "j000001", 1)
        record = {
            "event": "done", "job_id": "j000001", "cached": False,
            "duration_s": 0.1, "document": DOCUMENT,
            "schema": JOURNAL_SCHEMA, "crc": "deadbeef",
        }
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        recovery = reopen(journal).replay()
        assert recovery.quarantined_lines == 1
        assert [job.job_id for job in recovery.pending] == ["j000001"]

    def test_schema_skew_is_quarantined_not_guessed(self, journal):
        submit(journal, "j000001", 1)
        record = {
            "event": "done", "job_id": "j000001", "cached": False,
            "duration_s": 0.1, "document": DOCUMENT,
            "schema": JOURNAL_SCHEMA + 1,
        }
        record["crc"] = record_crc(record)  # valid CRC, future schema
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        recovery = reopen(journal).replay()
        assert recovery.quarantined_lines == 1
        assert [job.job_id for job in recovery.pending] == ["j000001"]

    def test_corrupt_submitted_line_drops_the_job(self, journal):
        submit(journal, "j000001", 1)
        journal.record_running("j000001")
        lines = self._lines(journal)
        journal.path.write_text(
            "\n".join(["{garbage", lines[1]]) + "\n", encoding="utf-8"
        )
        recovery = reopen(journal).replay()
        assert recovery.quarantined_lines == 1
        # Without the submitted line there is no request to re-run.
        assert recovery.pending == [] and recovery.terminal == []

    def test_rejected_lines_preserved_verbatim(self, journal):
        submit(journal, "j000001", 1)
        lines = self._lines(journal)
        garbage = '{"event": "done", "job_id": "j000001", "schema": 1}'
        journal.path.write_text(
            "\n".join([lines[0], garbage]) + "\n", encoding="utf-8"
        )
        restarted = reopen(journal)
        restarted.replay()
        quarantined = restarted.quarantine_path.read_text(encoding="utf-8")
        assert garbage in quarantined


class TestAppendDurability:
    def test_appends_counted_and_file_is_jsonl_with_crcs(self, journal):
        submit(journal, "j000001", 1)
        journal.record_running("j000001")
        assert journal.appends == 2
        for line in journal.path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert record["schema"] == JOURNAL_SCHEMA
            assert record["crc"] == record_crc(record)

    def test_recovered_job_defaults(self):
        job = RecoveredJob(job_id="j000001", seq=1)
        assert job.state == "queued" and job.request is None
