"""Coordinator-side journal: the durable truth of a federated job.

Same append-only, flushed-per-record, torn-tail-tolerant JSONL contract
as :mod:`repro.serve.journal` — a coordinator killed mid-write leaves at
most one torn trailing line, which the loader drops; any other damage
raises :class:`ClusterJournalError` with ``path:line`` context.

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

import json
import os
import threading
import time
from typing import IO, Any

from repro.chaos import fs as chaos_fs

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
    if not os.path.exists(path):
        return None, []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    stripped = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    plan: dict[str, Any] | None = None
    events: list[dict[str, Any]] = []
    for pos, (lineno, line) in enumerate(stripped):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            if pos == len(stripped) - 1:
                break  # torn final write from a killed coordinator
            raise ClusterJournalError(
                f"{path}:{lineno}: malformed journal record mid-file "
                f"(not valid JSON: {exc.msg})"
            ) from exc
        if not isinstance(rec, dict) or rec.get("type") not in (
            "cluster", "slice",
        ):
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


def _repair_tail(path: str) -> None:
    """Truncate a torn trailing record so the next append starts clean."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return
    with open(path, "rb+") as handle:
        data = handle.read()
        if data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1
        try:
            json.loads(data[cut:])
        except json.JSONDecodeError:
            handle.truncate(cut)
        else:
            handle.write(b"\n")


class ClusterJournal:
    """Append-only writer plus the recovery view over one journal file."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        #: replayed (plan, events) from a previous coordinator life
        self.recovered_plan, self.recovered_events = load_cluster_journal(
            self.path
        )
        _repair_tail(self.path)
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
            pos = self._handle.tell()
            try:
                self._handle.write(
                    json.dumps(record, separators=(",", ":")) + "\n"
                )
                self._handle.flush()
            except OSError:
                # truncate the torn half-record so later appends stay
                # parseable (the loader only forgives a torn FINAL line)
                self.write_errors += 1
                try:
                    self._handle.flush()
                except OSError:
                    pass
                try:
                    self._handle.truncate(pos)
                except OSError:  # pragma: no cover - disk beyond repair
                    pass

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
