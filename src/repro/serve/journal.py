"""Crash-safe job journal: append-only JSONL with torn-tail tolerance.

The journal is the service's only durable truth about jobs.  One record
per lifecycle event::

    {"type": "job", "event": "submitted", "job_id": ..., "t": ...,
     "spec": {...}, "idempotency_key": ...}
    {"type": "job", "event": "started" | "interrupted" | "done" |
     "failed" | "cancelled", "job_id": ..., "t": ..., ...}

Appends, the loader's torn-tail rule and compaction's atomic rewrite
are :mod:`repro.runtime.durable`'s: a server killed mid-write leaves at
most one torn trailing line, which :func:`load_journal` drops; any
other corruption raises :class:`JournalError` with ``path:line``
context.  A failed append raises (after its rollback).

Replaying the journal reconstructs every job's last known state.  Jobs
whose trail ends at ``submitted`` / ``started`` / ``interrupted`` were
in flight when the server died and are re-enqueued on restart — their
per-job checkpoint directory still holds whatever the enumeration had
persisted, so a checkpoint-capable engine resumes instead of redoing.
``done`` records double as the idempotency store: resubmitting a spec
with a known ``idempotency_key`` returns the recorded job instead of
re-running it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import IO, Any

from repro.chaos import fs as chaos_fs
from repro.runtime import durable
from repro.serve.jobs import Job, JobSpec

__all__ = ["JobJournal", "JournalError", "load_journal"]

#: Events that mean the job still needs work after a restart.
RESUMABLE_EVENTS = frozenset({"submitted", "started", "interrupted"})


class JournalError(ValueError):
    """Raised on corrupt (non-torn-tail) journal content."""


def load_journal(path: str | os.PathLike[str]) -> dict[str, dict[str, Any]]:
    """Replay a journal into ``{job_id: last-state}``.

    Each value carries ``event`` (the job's last journaled event),
    ``spec`` (the submitted spec dict), ``idempotency_key``, and the
    final event's extra fields (``summary``, ``error``…).  Returns ``{}``
    when the file does not exist.
    """
    path = os.fspath(path)
    jobs: dict[str, dict[str, Any]] = {}
    for lineno, rec in durable.read_records(path, JournalError, "journal record"):
        if rec.get("type") != "job":
            raise JournalError(
                f"{path}:{lineno}: journal record is not a job event object"
            )
        event = rec.get("event")
        job_id = rec.get("job_id")
        if not isinstance(event, str) or not isinstance(job_id, str):
            raise JournalError(
                f"{path}:{lineno}: job event missing 'event'/'job_id'"
            )
        entry = jobs.setdefault(job_id, {"job_id": job_id})
        if event == "submitted":
            if not isinstance(rec.get("spec"), dict):
                raise JournalError(
                    f"{path}:{lineno}: submitted record missing 'spec'"
                )
            entry["spec"] = rec["spec"]
            entry["idempotency_key"] = rec.get("idempotency_key")
            entry.setdefault("t0", rec.get("t"))
        entry["event"] = event
        entry["t"] = rec.get("t")
        for key in ("summary", "error"):
            if key in rec:
                entry[key] = rec[key]
    return jobs


class JobJournal:
    """Append-only writer plus the recovery view over one journal file.

    Growth is bounded by **compaction**: when the file exceeds
    ``compact_max_bytes`` (or a client calls :meth:`compact`), the live
    per-job state is rewritten to a fresh file — one ``submitted`` record
    plus one last-event record per job — and atomically swapped in with
    ``os.replace``.  Compaction is contract-preserving by construction:

    * **restart-resume** — every non-terminal job keeps its ``spec`` and
      last event, so :meth:`resumable_jobs` is unchanged;
    * **idempotency** — every job with an ``idempotency_key`` survives,
      so :meth:`idempotency_index` is unchanged (``max_terminal`` only
      ever expires *keyless* terminal jobs, oldest first);
    * **crash during compaction** — the rewrite goes to a ``.compact.tmp``
      sibling first, so a kill at any point leaves either the old or the
      new file fully intact; a stale tmp from such a crash is removed on
      the next open and never read.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        compact_max_bytes: int | None = None,
        max_terminal: int | None = None,
        compact_max_age: float | None = None,
    ):
        self.path = os.fspath(path)
        self.compact_max_bytes = compact_max_bytes
        self.max_terminal = max_terminal
        self.compact_max_age = compact_max_age
        # a compaction the previous life never finished: the original
        # file is still the truth, the partial rewrite is garbage
        tmp = self.path + ".compact.tmp"
        if os.path.exists(tmp):
            os.remove(tmp)
        #: replayed state from a previous server life (before this open)
        self.recovered = load_journal(self.path)
        durable.repair_tail(self.path)
        self._lock = threading.Lock()
        self._handle: IO[str] | None = chaos_fs.open(
            self.path, "a", encoding="utf-8"
        )
        self.compactions = 0
        #: appends that failed with OSError (disk full, I/O error)
        self.write_errors = 0
        #: compaction passes abandoned on OSError (old file kept)
        self.compact_failures = 0
        if self._due_for_compaction():
            self.compact()

    def _due_for_compaction(self) -> bool:
        """Size/age triggers for an automatic compaction pass."""
        if self.compact_max_bytes is not None:
            try:
                if os.path.getsize(self.path) > self.compact_max_bytes:
                    return True
            except OSError:  # pragma: no cover - racing an external rm
                return False
        if self.compact_max_age is not None:
            oldest = min(
                (
                    e.get("t0") or e.get("t") or time.time()
                    for e in self.recovered.values()
                ),
                default=None,
            )
            if oldest is not None and time.time() - oldest > self.compact_max_age:
                return True
        return False

    def _append(self, record: dict[str, Any]) -> None:
        with self._lock:
            assert self._handle is not None, "journal is closed"
            try:
                durable.append(self._handle, durable.encode(record))
            except OSError:
                self.write_errors += 1
                raise
            due = (
                self.compact_max_bytes is not None
                and self._handle.tell() > self.compact_max_bytes
            )
        if due:
            self.compact()

    def record_event(self, job: Job, event: str, **extra: Any) -> None:
        """Append one lifecycle event for ``job``."""
        record: dict[str, Any] = {
            "type": "job",
            "event": event,
            "job_id": job.job_id,
            "t": round(time.time(), 3),
        }
        if event == "submitted":
            record["spec"] = job.spec.as_dict()
            record["idempotency_key"] = job.spec.idempotency_key
        record.update(extra)
        self._append(record)

    def resumable_jobs(self) -> list[Job]:
        """Jobs a restarted server must re-enqueue, oldest first."""
        out: list[Job] = []
        for job_id, entry in self.recovered.items():
            if entry.get("event") not in RESUMABLE_EVENTS:
                continue
            spec_dict = entry.get("spec")
            if spec_dict is None:
                # started/interrupted without a surviving submitted
                # record can only mean a pre-crash torn submit: skip
                continue
            spec = JobSpec.from_dict(spec_dict)
            out.append(
                Job(job_id=job_id, spec=spec, state="queued", recovered=True)
            )
        return out

    def idempotency_index(self) -> dict[str, str]:
        """``{idempotency_key: job_id}`` over every journaled submit."""
        return {
            entry["idempotency_key"]: job_id
            for job_id, entry in self.recovered.items()
            if entry.get("idempotency_key")
        }

    def compact(self) -> int:
        """Rewrite the journal to its live state; returns jobs kept.

        Each surviving job collapses to at most two records (its
        ``submitted`` record and its last event).  Jobs are expired only
        when they are terminal *and* keyless: beyond ``max_terminal`` of
        them (newest kept), or older than ``compact_max_age`` seconds.
        The swap is atomic (temp file + ``os.replace``), so a crash at
        any instant leaves a valid journal.  A pass that fails with
        ``OSError`` (disk full, I/O error) is abandoned and reported as
        ``-1`` — the original file stays authoritative and appendable.
        """
        with self._lock:
            assert self._handle is not None, "journal is closed"
            self._handle.flush()
            state = load_journal(self.path)
            now = time.time()
            expirable: list[str] = [
                job_id
                for job_id, e in state.items()
                if e.get("event") not in RESUMABLE_EVENTS
                and not e.get("idempotency_key")
            ]
            drop: set[str] = set()
            if self.compact_max_age is not None:
                drop.update(
                    job_id
                    for job_id in expirable
                    if now - (state[job_id].get("t")
                              or state[job_id].get("t0") or now)
                    > self.compact_max_age
                )
            if self.max_terminal is not None:
                alive = [j for j in expirable if j not in drop]
                if len(alive) > self.max_terminal:
                    # dict order is append order: oldest submits first
                    drop.update(
                        alive[: len(alive) - self.max_terminal]
                    )
            lines: list[str] = []
            kept = 0
            for job_id, e in state.items():
                if job_id in drop or not isinstance(e.get("spec"), dict):
                    continue  # expired, or a torn pre-crash submit
                kept += 1
                lines.append(durable.encode({
                    "type": "job", "event": "submitted", "job_id": job_id,
                    "t": e.get("t0") or e.get("t"), "spec": e["spec"],
                    "idempotency_key": e.get("idempotency_key"),
                }))
                if e.get("event") != "submitted":
                    last: dict[str, Any] = {
                        "type": "job", "event": e["event"],
                        "job_id": job_id, "t": e.get("t"),
                    }
                    for key in ("summary", "error"):
                        if key in e:
                            last[key] = e[key]
                    lines.append(durable.encode(last))
            try:
                durable.atomic_rewrite(
                    self.path, self.path + ".compact.tmp", lines
                )
            except OSError:
                # abandon the pass: the original file is still the truth
                self.compact_failures += 1
                return -1
            self._handle.close()
            self._handle = chaos_fs.open(self.path, "a", encoding="utf-8")
            self.compactions += 1
            return kept

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
