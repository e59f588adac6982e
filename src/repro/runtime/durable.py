"""Durable append-only JSONL: the one copy of the on-disk mechanics.

The serve journal, the coordinator journal, the checkpoint and the
result spool keep the same promise on disk, and they keep it through
this module:

* **append** — one line is written and flushed, with no per-append
  ``fsync``.  A write that fails with ``OSError`` is truncated back to
  the offset before it and re-raised, so a failed append never leaves a
  torn half-record *between* two good ones;
* **read** — :func:`read_records` numbers a file's lines as the file
  does (blank lines are skipped, not renumbered), drops an unparseable
  *final* line (the torn write of a killed process), and raises the
  caller's error class with ``path:line`` on invalid JSON anywhere else
  and on any record that is not a JSON object, even at the tail (a torn
  prefix of an object never parses as a scalar or an array);
* **repair** — :func:`repair_tail` makes a file appendable again after
  a kill left it ending mid-line;
* **rewrite** — :func:`atomic_rewrite` writes a temp file, flushes it,
  ``fsync``\\ s it and ``replace``\\ s it into place; a failure removes the
  temp file, so a crash at any instant leaves the old or the new file
  whole.

Records carry no checksum: a silent bit flip that still parses is not
detected here (artifact entries carry one, see :mod:`repro.artifacts`).
Every write goes through :mod:`repro.chaos.fs`, so fault schedules see
one ``write`` per record and one ``fsync`` and ``replace`` per rewrite.
Each consumer keeps its own schema, replay fold and failure policy.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Iterable, Iterator

from repro.chaos import fs as chaos_fs

__all__ = [
    "append",
    "atomic_rewrite",
    "encode",
    "read_records",
    "repair_tail",
]


def encode(record: dict[str, Any]) -> str:
    """One compact JSONL line for ``record``."""
    return json.dumps(record, separators=(",", ":")) + "\n"


def read_records(
    path: str, error: type[ValueError], noun: str = "record"
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(file line number, record)``; nothing for a missing file.

    ``error`` is raised (as ``path:line: ...``) on invalid JSON before
    the final line and on a non-object record anywhere; ``noun`` names
    the record in that message.
    """
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    numbered = [(i, ln) for i, ln in enumerate(lines, start=1) if ln.strip()]
    last = numbered[-1][0] if numbered else 0
    for lineno, line in numbered:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == last:
                return  # torn final write from a killed process
            raise error(
                f"{path}:{lineno}: malformed {noun} mid-file "
                f"(not valid JSON: {exc.msg})"
            ) from exc
        if not isinstance(record, dict):
            raise error(
                f"{path}:{lineno}: {noun} is not a JSON object "
                f"(got {type(record).__name__})"
            )
        yield lineno, record


def repair_tail(path: str) -> None:
    """Make a log appendable again after a mid-write kill.

    A file ending mid-line either holds a torn (unparseable) record —
    truncated away, matching what :func:`read_records` already drops —
    or a complete record missing only its newline, which gets one so the
    next append does not fuse two records.
    """
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


def append(handle: IO[str], line: str) -> None:
    """Write and flush one line; on ``OSError`` roll it back and re-raise.

    The rollback truncates to the offset before the write: a torn
    half-record would poison every later append, since readers forgive
    only a torn *final* line.
    """
    pos = handle.tell()
    try:
        handle.write(line)
        handle.flush()
    except OSError:
        try:
            handle.flush()
        except OSError:
            pass
        try:
            handle.truncate(pos)
        except OSError:  # pragma: no cover - disk beyond repair
            pass
        raise


def atomic_rewrite(
    path: str,
    tmp: str,
    chunks: Iterable[str] | Iterable[bytes],
    binary: bool = False,
) -> None:
    """Replace ``path`` by ``chunks`` (one ``write`` each) via ``tmp``.

    The temp file is flushed and ``fsync``\\ ed before the ``replace``.
    On any failure it is closed and removed, and the error re-raised;
    ``path`` is then untouched.
    """
    try:
        with chaos_fs.open(
            tmp, "wb" if binary else "w",
            encoding=None if binary else "utf-8",
        ) as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            chaos_fs.fsync(handle.fileno(), tmp)
        chaos_fs.replace(tmp, path)
    except BaseException:
        # a failed (or interrupted) rewrite never half-lands
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
