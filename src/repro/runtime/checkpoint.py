"""JSONL checkpointing for restartable parallel enumeration.

First-level subproblems are independent (:mod:`repro.core.decompose`), so
a parallel run's progress is exactly the set of finished tasks.  The
checkpoint is an append-only JSONL file:

* line 1 — a ``header`` record carrying a fingerprint of the run
  (graph sizes, ordering, seed, split bounds, worker count, collect
  flag).  Resuming against a file whose fingerprint does not match the
  new run raises :class:`CheckpointError` rather than silently merging
  incompatible results.
* one ``task`` record per *completed* task — its key ``"v:part:n_parts"``,
  result count, stats counters, and (when collecting) the bicliques in
  work-graph coordinates.  Tasks cut short by a budget are never
  recorded, so a resumed run redoes them in full.

Appends, creation's atomic rewrite and the loader's torn-tail rule are
:mod:`repro.runtime.durable`'s: a run killed mid-write leaves at most
one torn trailing line, which the loader drops.  Any *other* damage —
invalid JSON mid-file, a record that is not a JSON object, a task
record with missing or mistyped fields — raises :class:`CheckpointError`
with ``path:line`` context instead of silently dropping data or
surfacing an opaque ``json.JSONDecodeError`` / ``KeyError`` deep inside
resume.  A failed task record is rolled back, counted in
``write_errors`` and swallowed.

Resume reconciliation (:func:`reconcile_tasks`) is root-aware: a root
``v`` may have been recorded either as the whole-subtree task ``(v,0,1)``
or as ``k`` root slices ``(v,j,k)`` (the driver re-splits oversized tasks
on retry).  Recorded slices are skipped and only the missing slices of
the same ``k`` are re-scheduled, so no biclique is ever lost or counted
twice across a kill/resume cycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import IO, Any

from repro.chaos import fs as chaos_fs
from repro.runtime import durable

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointWriter",
    "load_checkpoint",
    "reconcile_tasks",
    "task_key",
]

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Raised on unreadable, corrupt, or mismatched checkpoint files."""


def task_key(task: tuple[int, int, int]) -> str:
    """Stable string key for a root-slice task ``(v, part, n_parts)``."""
    v, part, n_parts = task
    return f"{v}:{part}:{n_parts}"


@dataclass
class Checkpoint:
    """Parsed checkpoint: run fingerprint plus completed-task records."""

    header: dict[str, Any]
    records: dict[str, dict[str, Any]] = field(default_factory=dict)

    def matches(self, fingerprint: dict[str, Any]) -> bool:
        """True when the stored fingerprint equals the new run's."""
        return {k: v for k, v in self.header.items() if k != "type"} == fingerprint

    def require_match(self, fingerprint: dict[str, Any], path: str) -> None:
        """Raise :class:`CheckpointError` unless fingerprints agree."""
        stored = {k: v for k, v in self.header.items() if k != "type"}
        if stored != fingerprint:
            diffs = sorted(
                k
                for k in set(stored) | set(fingerprint)
                if stored.get(k) != fingerprint.get(k)
            )
            raise CheckpointError(
                f"{path}: checkpoint belongs to a different run "
                f"(mismatched fields: {', '.join(diffs)})"
            )


def load_checkpoint(path: str | os.PathLike[str]) -> Checkpoint | None:
    """Load a checkpoint file; None when the file does not exist.

    A torn trailing line (run killed mid-write) is dropped; any other
    malformed content raises :class:`CheckpointError`.
    """
    path = os.fspath(path)
    try:
        records = list(
            durable.read_records(path, CheckpointError, "checkpoint record")
        )
    except CheckpointError as exc:
        raise CheckpointError(
            f"{exc}; the file cannot be trusted — delete it to restart "
            f"from scratch"
        ) from exc
    if not records:
        return None
    header = records[0][1]
    if header.get("type") != "header":
        raise CheckpointError(f"{path}: first line is not a checkpoint header")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {header.get('version')!r}"
        )
    ckpt = Checkpoint(header={k: v for k, v in header.items() if k != "version"})
    for lineno, rec in records[1:]:
        _validate_task_record(rec, path, lineno)
        ckpt.records[rec["key"]] = rec
    return ckpt


def _validate_task_record(rec: dict[str, Any], path: str, lineno: int) -> None:
    """Raise :class:`CheckpointError` with file:line context on any field
    a resume would later trip over with an opaque KeyError/TypeError."""

    def bad(detail: str) -> "CheckpointError":
        return CheckpointError(
            f"{path}:{lineno}: malformed task record ({detail})"
        )

    if rec.get("type") != "task":
        raise bad(f"type is {rec.get('type')!r}, expected 'task'")
    if not isinstance(rec.get("key"), str):
        raise bad("missing or non-string 'key'")
    task = rec.get("task")
    if (
        not isinstance(task, list)
        or len(task) != 3
        or not all(isinstance(x, int) for x in task)
    ):
        raise bad("'task' is not a [v, part, n_parts] integer triple")
    if not isinstance(rec.get("count"), int) or rec["count"] < 0:
        raise bad("missing or invalid 'count'")
    if not isinstance(rec.get("stats"), dict):
        raise bad("missing or invalid 'stats'")
    bicliques = rec.get("bicliques")
    if bicliques is not None:
        if not isinstance(bicliques, list) or not all(
            isinstance(b, list) and len(b) == 2 for b in bicliques
        ):
            raise bad("'bicliques' is not a list of [left, right] pairs")


class CheckpointWriter:
    """One flushed JSONL record per completed task.

    Creation atomically rewrites the file (header plus any carried-over
    ``resume_records``) via a temp-file replace, which compacts away torn
    tails from a previous kill; after that every record is an append.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        fingerprint: dict[str, Any],
        resume_records: list[dict[str, Any]] | None = None,
    ):
        self.path = os.fspath(path)
        header = dict(fingerprint, type="header", version=FORMAT_VERSION)
        # header/resume failures raise: without them the file is useless
        durable.atomic_rewrite(
            self.path, self.path + ".tmp",
            [durable.encode(rec) for rec in [header, *(resume_records or ())]],
        )
        self._handle: IO[str] | None = chaos_fs.open(
            self.path, "a", encoding="utf-8"
        )
        #: task records lost to OSError (disk full, I/O error)
        self.write_errors = 0

    def record(
        self,
        task: tuple[int, int, int],
        count: int,
        stats: dict[str, int],
        bicliques: list | None,
    ) -> None:
        """Persist one completed task's outcome.

        The checkpoint accelerates *resume*; the run in progress never
        depends on it.  A record that fails with ``OSError`` is rolled
        back and counted in ``write_errors``, and the run continues:
        losing a record merely means a future resume redoes that task.
        """
        assert self._handle is not None
        line = durable.encode({
            "type": "task",
            "key": task_key(task),
            "task": list(task),
            "count": count,
            "stats": {k: v for k, v in stats.items() if v},
            "bicliques": (
                [[list(b.left), list(b.right)] for b in bicliques]
                if bicliques is not None
                else None
            ),
        })
        try:
            durable.append(self._handle, line)
        except OSError:
            self.write_errors += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def reconcile_tasks(
    tasks: list[tuple[int, int, int]], checkpoint: Checkpoint, path: str
) -> tuple[list[tuple[int, int, int]], list[dict[str, Any]]]:
    """Split a task list into (still-to-run, already-done records).

    Root-aware: for each root vertex the checkpoint may hold the whole
    subtree or a consistent set of root slices; mixed slice counts for one
    root mean the file is corrupt.
    """
    by_root: dict[int, dict[str, dict[str, Any]]] = {}
    for key, rec in checkpoint.records.items():
        v = int(rec["task"][0])
        by_root.setdefault(v, {})[key] = rec

    remaining: list[tuple[int, int, int]] = []
    done: list[dict[str, Any]] = []
    seen_roots: set[int] = set()
    for task in tasks:
        v = task[0]
        recs = by_root.get(v)
        if not recs:
            remaining.append(task)
            continue
        if v in seen_roots:
            continue  # this root already reconciled via its first task
        seen_roots.add(v)
        n_parts_seen = {int(rec["task"][2]) for rec in recs.values()}
        if 1 in n_parts_seen and len(recs) == 1:
            done.append(next(iter(recs.values())))
            continue
        if len(n_parts_seen) != 1 or 1 in n_parts_seen:
            raise CheckpointError(
                f"{path}: inconsistent slice counts recorded for root {v}"
            )
        k = n_parts_seen.pop()
        done.extend(recs.values())
        for part in range(k):
            if task_key((v, part, k)) not in recs:
                remaining.append((v, part, k))
    return remaining, done
