"""Coordinator-side journal: the durable truth of a federated job.

Appends and the loader's torn-tail rule are
:mod:`repro.runtime.durable`'s: a coordinator killed mid-write leaves
at most one torn trailing line, which the loader drops; any other
damage raises :class:`ClusterJournalError` with ``path:line`` context.
A failed append is rolled back, counted in ``write_errors`` and
swallowed.

Record shapes::

    {"type": "cluster", "event": "planned", "fingerprint": ...,
     "n_roots": N, "slices": [SliceSpec.as_dict(), ...], "t": ...}
    {"type": "slice", "event": "dispatched" | "completed" | "lost" |
     "failed" | "resplit" | "discarded", "slice_id": ..., "t": ..., ...}
    {"type": "slice", "event": "completed", "slice_id": ..., "lo": ...,
     "hi": ..., "count": N, "bytes": B, "spool": path, ...}
    {"type": "cluster", "event": "done" | "interrupted" | "failed",
     "count": ..., "t": ...}

Replay order matters: a restarted coordinator re-applies ``completed``
events through the same :class:`~repro.cluster.slices.RangeCoverage`
arbiter that accepted them live, so the resumed merge state is exactly
the pre-crash one (duplicates discarded then stay discarded now).  A
``completed`` record is written only after its spool (the slice's
result-file lines, ``count`` lines in ``bytes`` bytes) is flushed, and
replay trusts it only when the spool still has that size and line
count; otherwise the slice runs again.
"""

from __future__ import annotations

import os
import threading
import time
from typing import IO, Any

from repro.chaos import fs as chaos_fs
from repro.runtime import durable

__all__ = ["ClusterJournal", "ClusterJournalError", "load_cluster_journal"]


class ClusterJournalError(ValueError):
    """Raised on corrupt (non-torn-tail) coordinator journal content."""


def load_cluster_journal(
    path: str | os.PathLike[str],
) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
    """Replay a coordinator journal into ``(plan, events)``.

    ``plan`` is the ``planned`` record (or None for a virgin journal);
    ``events`` is every slice/terminal record after it, in append order.
    """
    path = os.fspath(path)
    plan: dict[str, Any] | None = None
    events: list[dict[str, Any]] = []
    for lineno, rec in durable.read_records(
        path, ClusterJournalError, "journal record"
    ):
        if rec.get("type") not in ("cluster", "slice"):
            raise ClusterJournalError(
                f"{path}:{lineno}: record is not a cluster/slice event"
            )
        if rec.get("type") == "cluster" and rec.get("event") == "planned":
            if plan is not None:
                raise ClusterJournalError(
                    f"{path}:{lineno}: second 'planned' record"
                )
            if not isinstance(rec.get("slices"), list):
                raise ClusterJournalError(
                    f"{path}:{lineno}: planned record missing 'slices'"
                )
            plan = rec
        else:
            events.append(rec)
    return plan, events


class ClusterJournal:
    """Append-only writer plus the recovery view over one journal file."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        #: replayed (plan, events) from a previous coordinator life
        self.recovered_plan, self.recovered_events = load_cluster_journal(
            self.path
        )
        durable.repair_tail(self.path)
        self._lock = threading.Lock()
        self._handle: IO[str] | None = chaos_fs.open(
            self.path, "a", encoding="utf-8"
        )
        #: appends lost to OSError (disk full, I/O error).  The journal
        #: is an optimisation for *restart* — live correctness never
        #: depends on it (replay re-runs any slice whose records are
        #: missing or whose spool fails its count check), so a failed
        #: append is repaired, counted, and swallowed rather than
        #: allowed to kill a healthy run.
        self.write_errors = 0

    def _append(self, record: dict[str, Any]) -> None:
        with self._lock:
            assert self._handle is not None, "journal is closed"
            try:
                durable.append(self._handle, durable.encode(record))
            except OSError:
                self.write_errors += 1

    def record_plan(
        self,
        fingerprint: str,
        n_roots: int,
        slices: list[dict[str, Any]],
    ) -> None:
        self._append({
            "type": "cluster", "event": "planned",
            "t": round(time.time(), 3),
            "fingerprint": fingerprint, "n_roots": n_roots,
            "slices": slices,
        })

    def record_slice(self, event: str, slice_id: str, **extra: Any) -> None:
        record: dict[str, Any] = {
            "type": "slice", "event": event, "slice_id": slice_id,
            "t": round(time.time(), 3),
        }
        record.update(extra)
        self._append(record)

    def record_terminal(self, event: str, **extra: Any) -> None:
        record: dict[str, Any] = {
            "type": "cluster", "event": event, "t": round(time.time(), 3),
        }
        record.update(extra)
        self._append(record)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
