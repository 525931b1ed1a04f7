"""The write-ahead job journal: durable service state, replayed at boot.

PR 8's registry was purely in-memory — a crash or restart silently lost
every submitted job, and clients kept polling ids that could never
resolve.  The journal closes that hole: every job state transition is
appended to one JSONL file *before* the transition becomes observable,
each line written by the CRC record codec of :mod:`repro.resilience.atomic`
and flushed-and-fsync'd through its ``append_text`` / ``fsync_path`` pair
(write serialized under the journal lock, sync outside it).  Because the
repo's solvers are deterministic pure functions of the cache key, the
journal does not need to persist partial compute: re-running an
interrupted job is *bit-identical* to the run that was lost, so replay
only has to remember what was asked for and what finished.

Event vocabulary (one JSON object per line)::

    submitted    job admitted: original request body, cache key,
                 idempotency key, admission sequence
    running      a worker picked the job up
    done         terminal: the full result document (also in the cache)
    failed       terminal: the structured error payload
    interrupted  drain marked the job for re-enqueue at next boot

On restart, :meth:`JobJournal.replay` reads the file once: lines the
codec rejects (bitrot, a torn tail from a crash mid-append, schema skew)
are quarantined **verbatim** to a ``.quarantine`` sidecar, intact jobs
are reconstructed — terminal jobs with a
byte offset for seek-based read-through of their stored documents,
non-terminal jobs (``queued`` / ``running`` / ``interrupted``) in their
original admission order for idempotent re-execution through the
content-addressed cache.
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path
from typing import Any

from repro.resilience.atomic import (
    append_text,
    decode_record,
    encode_record,
    fsync_path,
    read_records,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "JOURNAL_EVENTS",
    "TERMINAL_EVENTS",
    "JobJournal",
    "JournalRecovery",
    "RecoveredJob",
]

#: Bump when the line format changes; replay treats other schemas as
#: corrupt (quarantined, job re-run) rather than guessing.
JOURNAL_SCHEMA = 1

JOURNAL_EVENTS = ("submitted", "running", "done", "failed", "interrupted")
TERMINAL_EVENTS = ("done", "failed")


@dataclasses.dataclass
class RecoveredJob:
    """One job reconstructed from the journal at replay time.

    ``request`` is the original submission body (only present once a
    ``submitted`` line survived — a job whose submitted line was lost to
    corruption cannot be re-run and is dropped from recovery).  For
    terminal jobs ``terminal_offset`` points at the byte where the
    ``done``/``failed`` line starts, so documents are read through on
    demand instead of being held in memory.
    """

    job_id: str
    seq: int
    state: str = "queued"
    request: dict[str, Any] | None = None
    idempotency_key: str | None = None
    key: str = ""
    method: str = ""
    instance_name: str = ""
    terminal_offset: int | None = None
    cached: bool = False


@dataclasses.dataclass
class JournalRecovery:
    """What :meth:`JobJournal.replay` reconstructs.

    ``pending`` preserves original admission order — recovery re-enqueues
    exactly that order so deterministic fault plans and client
    expectations survive the restart.  ``max_seq`` lets the registry
    resume its id sequence past every journaled job.
    """

    terminal: list[RecoveredJob] = dataclasses.field(default_factory=list)
    pending: list[RecoveredJob] = dataclasses.field(default_factory=list)
    idempotency: dict[str, str] = dataclasses.field(default_factory=dict)
    max_seq: int = 0
    quarantined_lines: int = 0


class JobJournal:
    """Append-only, CRC-guarded, fsync'd journal of job state transitions.

    Thread-safe: the append *write* serializes under one lock so lines
    never interleave and offsets are exact, while the fsync runs after
    release (a later sync covers every earlier write, so each record is
    still durable before its append returns) — the lock is never held
    across disk latency.  The offset index is only mutated under the
    same lock.  Reads for
    read-through seek directly to an indexed offset and re-verify the
    line's CRC, so even an index pointing into a corrupted region
    degrades to "not found", never to a wrong answer.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        #: Rejected lines, preserved verbatim (evidence, not data).
        self.quarantine_path = self.path.with_name(
            self.path.name + ".quarantine"
        )
        self._lock = threading.Lock()
        #: job id -> byte offset of its terminal (done/failed) line.
        self._terminal_offsets: dict[str, int] = {}
        #: job id -> byte offset of its submitted line (status fields).
        self._submitted_offsets: dict[str, int] = {}
        self.appends = 0

    # -- appends --------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> int:
        line = encode_record(record, JOURNAL_SCHEMA) + "\n"
        # Only the write is serialized under the lock (line ordering and
        # offset correctness need that); the fsync happens *after*
        # release, because fsync flushes the whole file — every append
        # that landed before this sync point is covered by it — so each
        # caller still returns only once its own bytes are durable,
        # while concurrent appenders no longer queue behind the disk
        # (lint rule RPL013: no blocking call under a lock).
        with self._lock:
            offset = append_text(self.path, line)
            self.appends += 1
        fsync_path(self.path)
        return offset

    def record_submitted(
        self,
        job_id: str,
        seq: int,
        request: dict[str, Any],
        key: str,
        method: str,
        instance_name: str,
        idempotency_key: str | None = None,
    ) -> None:
        offset = self._append({
            "event": "submitted",
            "job_id": job_id,
            "seq": seq,
            "request": request,
            "key": key,
            "method": method,
            "instance": instance_name,
            "idempotency_key": idempotency_key,
        })
        with self._lock:
            self._submitted_offsets[job_id] = offset

    def record_running(self, job_id: str) -> None:
        self._append({"event": "running", "job_id": job_id})

    def record_done(
        self,
        job_id: str,
        document: dict[str, Any],
        cached: bool,
        duration_s: float | None,
    ) -> None:
        offset = self._append({
            "event": "done",
            "job_id": job_id,
            "cached": cached,
            "duration_s": duration_s,
            "document": document,
        })
        with self._lock:
            self._terminal_offsets[job_id] = offset

    def record_failed(
        self,
        job_id: str,
        error: dict[str, Any],
        duration_s: float | None,
    ) -> None:
        offset = self._append({
            "event": "failed",
            "job_id": job_id,
            "duration_s": duration_s,
            "error": error,
        })
        with self._lock:
            self._terminal_offsets[job_id] = offset

    def record_interrupted(self, job_id: str) -> None:
        self._append({"event": "interrupted", "job_id": job_id})

    # -- replay ---------------------------------------------------------

    def replay(self) -> JournalRecovery:
        """Reconstruct job state from the journal (boot-time, one pass).

        Corrupt lines are quarantined verbatim and counted; a job whose
        *terminal* line was corrupted degrades to pending (it re-runs —
        deterministically identical), a job whose *submitted* line was
        corrupted is unrecoverable and dropped entirely.
        """
        recovery = JournalRecovery()
        if not self.path.exists():
            return recovery
        jobs: dict[str, RecoveredJob] = {}

        def apply(line_offset: int, record: dict[str, Any]) -> None:
            job_id = record["job_id"]
            job = jobs.get(job_id)
            if job is None:
                job = jobs[job_id] = RecoveredJob(job_id=job_id, seq=0)
            event = record["event"]
            if event == "submitted":
                # Fills identity fields only — never resets state: a
                # racing worker may have journaled running/done a
                # moment before the admission thread's submitted
                # line landed.
                job.seq = int(record.get("seq", 0))
                job.request = record.get("request")
                job.idempotency_key = record.get("idempotency_key")
                job.key = str(record.get("key", ""))
                job.method = str(record.get("method", ""))
                job.instance_name = str(record.get("instance", ""))
                with self._lock:
                    self._submitted_offsets[job_id] = line_offset
            elif event == "running":
                job.state = "running"
            elif event == "done":
                job.state = "done"
                job.cached = bool(record.get("cached", False))
                job.terminal_offset = line_offset
            elif event == "failed":
                job.state = "failed"
                job.terminal_offset = line_offset
            elif event == "interrupted":
                job.state = "interrupted"

        recovery.quarantined_lines = read_records(
            self.path, _journal_record, self.quarantine_path, apply
        )
        for job in jobs.values():
            recovery.max_seq = max(recovery.max_seq, job.seq)
            if job.request is None:
                # The submitted line is gone (quarantined): there is no
                # request to re-run and no status fields to serve.
                continue
            if job.idempotency_key:
                recovery.idempotency[job.idempotency_key] = job.job_id
            if job.state in TERMINAL_EVENTS and job.terminal_offset is not None:
                with self._lock:
                    self._terminal_offsets[job.job_id] = job.terminal_offset
                recovery.terminal.append(job)
            else:
                # queued / running / interrupted — or a terminal job whose
                # terminal line was corrupted: all re-run identically.
                job.state = "queued"
                recovery.pending.append(job)
        return recovery

    # -- read-through ---------------------------------------------------

    def lookup(self, job_id: str) -> dict[str, Any] | None:
        """The reconstructed terminal view of a journaled job, or ``None``.

        Serves status and result read-through for jobs evicted from the
        in-memory registry: seeks straight to the indexed ``submitted``
        and terminal lines (no scan), re-verifying each line's CRC.
        """
        with self._lock:
            submitted_offset = self._submitted_offsets.get(job_id)
            terminal_offset = self._terminal_offsets.get(job_id)
        if submitted_offset is None or terminal_offset is None:
            return None
        submitted = self._read_at(submitted_offset)
        terminal = self._read_at(terminal_offset)
        if (
            submitted is None or terminal is None
            or submitted.get("job_id") != job_id
            or terminal.get("job_id") != job_id
            or terminal.get("event") not in TERMINAL_EVENTS
        ):
            return None
        view: dict[str, Any] = {
            "job_id": job_id,
            "state": terminal["event"],
            "cached": bool(terminal.get("cached", False)),
            "method": submitted.get("method", ""),
            "instance": submitted.get("instance", ""),
            "key": submitted.get("key", ""),
        }
        if terminal.get("duration_s") is not None:
            view["duration_s"] = terminal["duration_s"]
        if terminal["event"] == "done":
            view["document"] = terminal.get("document")
        else:
            view["error"] = terminal.get("error")
        return view

    def _read_at(self, offset: int) -> dict[str, Any] | None:
        try:
            with open(self.path, "rb") as handle:
                handle.seek(offset)
                raw = handle.readline()
        except OSError:
            return None
        return _journal_record(raw.removesuffix(b"\n"))


def _journal_record(line: bytes) -> dict[str, Any] | None:
    record = decode_record(line, JOURNAL_SCHEMA)
    if (
        record is None
        or record.get("event") not in JOURNAL_EVENTS
        or not isinstance(record.get("job_id"), str)
    ):
        return None
    return record
