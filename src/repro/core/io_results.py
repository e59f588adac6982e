"""Serialization of biclique collections.

Format: one biclique per line, left ids comma-separated, a tab, right ids
comma-separated — the same format ``repro-mbe run -o`` writes, so saved
results round-trip through :func:`read_bicliques` and can be audited later
with ``repro-mbe verify``.  The same bytes are a federated slice's result:
a worker serves them (``GET /jobs/<id>/result`` with ``{"format": "tsv"}``)
and the coordinator spools them unchanged.

:func:`biclique_line` is the one encoder and :func:`parse_bicliques` the
one parser; every writer and reader below goes through them.

:class:`BicliqueWriter` is the streaming face of the same format: one
line per :meth:`~BicliqueWriter.write`, appended through
:func:`repro.runtime.durable.append` (flushed, rolled back and re-raised
on ``OSError``), so a process killed mid-run leaves at most one torn
trailing line (which :func:`read_bicliques` can be told to tolerate).
The serving layer's memory watchdog spools through it when a job
outgrows RAM.
"""

from __future__ import annotations

import os
from typing import IO, Iterable, Sequence

from repro.chaos import fs as chaos_fs
from repro.core.base import Biclique
from repro.runtime import durable


def biclique_line(left: Sequence[int], right: Sequence[int]) -> str:
    """One result line, ``u1,u2<TAB>v1,v2\\n`` (the format's encoder)."""
    return ",".join(map(str, left)) + "\t" + ",".join(map(str, right)) + "\n"


def parse_bicliques(
    text: str, source: str = "<bytes>", tolerate_torn_tail: bool = False
) -> list[Biclique]:
    """Parse result lines into canonical bicliques (the format's parser).

    Blank lines and ``#`` comments are skipped; any other malformed line
    raises ``ValueError`` with ``source:line`` context.
    ``tolerate_torn_tail=True`` drops a malformed *final* line instead —
    the signature a kill mid-:meth:`BicliqueWriter.write` leaves behind.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    last_lineno = len(lines)
    out: list[Biclique] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{source}:{lineno}: expected 'left<TAB>right', "
                    f"got {line!r}"
                )
            try:
                left = [int(x) for x in parts[0].split(",") if x]
                right = [int(x) for x in parts[1].split(",") if x]
            except ValueError as exc:
                raise ValueError(
                    f"{source}:{lineno}: non-integer vertex id"
                ) from exc
            if not left or not right:
                raise ValueError(f"{source}:{lineno}: empty biclique side")
        except ValueError:
            if tolerate_torn_tail and lineno == last_lineno:
                break
            raise
        out.append(Biclique.make(left, right))
    return out


class BicliqueWriter:
    """Stream bicliques to a file, one flushed line per result.

    Tracks ``count`` and ``bytes_written`` so callers (the serve memory
    watchdog) can bound spool growth without stat-ing the file.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self._handle: IO[str] | None = chaos_fs.open(
            self.path, "w", encoding="utf-8"
        )
        self.count = 0
        self.bytes_written = 0

    def write(self, b: Biclique) -> None:
        assert self._handle is not None, "writer is closed"
        line = biclique_line(b.left, b.right)
        durable.append(self._handle, line)
        self.count += 1
        self.bytes_written += len(line)

    def write_all(self, bicliques: Iterable[Biclique]) -> int:
        for b in bicliques:
            self.write(b)
        return self.count

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "BicliqueWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_bicliques(
    bicliques: Iterable[Biclique], path: str | os.PathLike[str]
) -> int:
    """Write bicliques as ``u1,u2<TAB>v1,v2`` lines; returns count written."""
    count = 0
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        for b in bicliques:
            handle.write(biclique_line(b.left, b.right))
            count += 1
    return count


def read_bicliques(
    path: str | os.PathLike[str], tolerate_torn_tail: bool = False
) -> list[Biclique]:
    """Read a biclique file written by :func:`write_bicliques`.

    See :func:`parse_bicliques` for what is skipped, what raises, and
    ``tolerate_torn_tail``.
    """
    path = os.fspath(path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse_bicliques(text, path, tolerate_torn_tail)
