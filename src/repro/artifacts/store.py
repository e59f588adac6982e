"""The content-addressed artifact store: crash-safe, bounded, shared.

One :class:`ArtifactStore` owns a directory of **entries**, each a small
JSON document addressed by ``(graph_key, kind, fingerprint)``:

* ``graph_key`` — the SHA-256 of the graph's canonical bytes
  (:func:`repro.artifacts.kinds.graph_key`), so two files holding the
  same graph in different formats share every derived artifact;
* ``kind`` — what the payload is (parsed CSR graph, vertex ordering,
  stats, components, completed enumeration result, source index);
* ``fingerprint`` — the kind-specific parameters (ordering strategy and
  seed, engine + options hash, …); ``"-"`` when the kind has none.

Durability contract (the failure matrix in ``docs/artifacts.md``):

* **Writes are atomic.**  Entries are written to a unique temp sibling,
  fsynced, then ``os.replace``d into place — a writer killed at any
  instant leaves either the old entry or the new one, never a torn file.
  Stale temp files from killed writers are swept by :meth:`gc`.
* **Reads are verified.**  Every entry carries a SHA-256 checksum of its
  canonical payload bytes.  An entry that fails to parse, fails its
  checksum, or misdescribes its own address is **quarantined** (moved
  aside, never deleted silently) and reported as a miss, so the caller
  transparently rebuilds it from source.
* **Size is bounded.**  With ``max_bytes`` set, the store keeps a byte
  ledger of ``objects/``, so a write costs the same at any store size.
  Only when the ledger exceeds the budget does the store walk the
  directory and evict least-recently-used entries (access updates
  mtime) until it fits.  Entries **pinned** by an in-flight computation
  are never evicted.
* **Cross-process writers serialise** on a ``flock``-based file lock;
  readers need no lock because replaces are atomic.  Every change to
  ``objects/`` advances a generation number kept beside the lock file;
  a store that finds a generation it did not write, or an unreadable
  one, rebuilds its ledger from a walk.

Payload semantics make the in-memory memo safe: every entry is a pure
function of its address (content hash + parameters), so a memoised
payload can never be *wrong*, only redundant.
"""

from __future__ import annotations

import json
import hashlib
import os
import sys
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.runtime import durable

try:  # POSIX; the only platform this repo targets, but degrade politely
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.obs.metrics import MetricRegistry

__all__ = ["ArtifactStore", "ArtifactEntry", "FileLock", "DEFAULT_MAX_BYTES"]

#: Store format version, embedded in every entry.
FORMAT = 1

#: Default size budget (256 MiB) — large enough for thousands of graph
#: CSRs at zoo scale, small enough never to surprise a laptop.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Payloads above this many serialized bytes skip the in-RAM memo.
_MEMO_MAX_PAYLOAD_BYTES = 4 * 1024 * 1024


def _canonical(payload: Any) -> bytes:
    """Canonical JSON bytes of a payload (checksum input)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _checksum(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _entry_bytes(header: dict[str, Any], blob: bytes) -> bytes:
    """One entry document: ``header`` plus the canonical payload ``blob``.

    ``payload`` sorts after every header key, so splicing the blob in as
    the last member keeps the key order a sorted dump would give, and
    the payload is encoded once, not once more for the document.
    """
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return head[:-1] + b', "payload": ' + blob + b"}"


class FileLock:
    """Cross-process exclusive lock on one lock file, re-entrant in-process.

    ``flock`` locks are held per file description, so a naive re-acquire
    from the same process would deadlock against itself; an internal
    :class:`threading.RLock` plus a depth counter makes nested ``with``
    blocks (e.g. ``put`` inside ``gc``) safe.  Where :mod:`fcntl` is
    unavailable the lock degrades to in-process-only.
    """

    def __init__(self, path: str):
        self.path = path
        self._rlock = threading.RLock()
        self._depth = 0
        self._handle = None

    def __enter__(self) -> "FileLock":
        self._rlock.acquire()
        self._depth += 1
        if self._depth == 1 and fcntl is not None:
            self._handle = open(self.path, "a+")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if self._depth == 0 and self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None
        self._rlock.release()


@dataclass(frozen=True)
class ArtifactEntry:
    """One stored artifact as listed by :meth:`ArtifactStore.entries`."""

    graph_key: str
    kind: str
    fingerprint: str
    path: str
    size: int
    mtime: float
    created: float


def _safe_token(token: str) -> str:
    """Make an address component filesystem-safe (defensive; keys are hex)."""
    return "".join(
        c if c.isalnum() or c in "._-" else "_" for c in token
    ) or "-"


class ArtifactStore:
    """Content-addressed preprocess-once cache (see module docstring)."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        registry: MetricRegistry | None = None,
        memo_slots: int = 32,
    ):
        self.root = os.fspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        self.max_bytes = max_bytes
        self.registry = registry if registry is not None else MetricRegistry()
        self.lock = FileLock(os.path.join(self.root, "lock"))
        self._generation_path = os.path.join(self.root, "generation")
        # bytes under objects/ and the generation this store last wrote;
        # None means "unknown, walk before trusting" (both under the lock)
        self._ledger: int | None = None
        self._generation: int | None = None
        self._mutex = threading.RLock()
        self._pins: dict[str, int] = {}
        self._memo: OrderedDict[str, Any] = OrderedDict()
        self._memo_slots = memo_slots

    # -- addressing --------------------------------------------------------

    def entry_path(self, graph_key: str, kind: str,
                   fingerprint: str = "-") -> str:
        gk = _safe_token(graph_key)
        name = f"{_safe_token(kind)}__{_safe_token(fingerprint)}.json"
        return os.path.join(self.objects_dir, gk[:2] or "-", gk, name)

    # -- metrics -----------------------------------------------------------

    def _count(self, name: str, kind: str | None = None,
               amount: int = 1) -> None:
        labels = {"kind": kind} if kind is not None else None
        self.registry.counter(
            f"artifacts_{name}_total", f"artifact store {name}",
            labels=labels,
        ).inc(amount)

    # -- memo --------------------------------------------------------------

    def _memo_get(self, path: str) -> Any:
        with self._mutex:
            if path in self._memo:
                self._memo.move_to_end(path)
                return self._memo[path]
        return None

    def _memo_put(self, path: str, payload: Any, size: int) -> None:
        if size > _MEMO_MAX_PAYLOAD_BYTES:
            return
        with self._mutex:
            self._memo[path] = payload
            self._memo.move_to_end(path)
            while len(self._memo) > self._memo_slots:
                self._memo.popitem(last=False)

    def _memo_drop(self, path: str | None = None) -> None:
        with self._mutex:
            if path is None:
                self._memo.clear()
            else:
                self._memo.pop(path, None)

    # -- pinning -----------------------------------------------------------

    @contextmanager
    def pin(self, graph_key: str, kind: str,
            fingerprint: str = "-") -> Iterator[None]:
        """Hold an entry out of eviction for the duration of the block.

        Pins are in-process (eviction runs in the process that writes),
        counted, and re-entrant: an entry stays pinned until every pin
        on it is released.
        """
        path = self.entry_path(graph_key, kind, fingerprint)
        with self._mutex:
            self._pins[path] = self._pins.get(path, 0) + 1
        try:
            yield
        finally:
            with self._mutex:
                left = self._pins.get(path, 1) - 1
                if left <= 0:
                    self._pins.pop(path, None)
                else:
                    self._pins[path] = left

    def _pinned(self, path: str) -> bool:
        with self._mutex:
            return self._pins.get(path, 0) > 0

    # -- read path ---------------------------------------------------------

    def get(self, graph_key: str, kind: str,
            fingerprint: str = "-") -> Any:
        """Return the entry's payload, or None on miss/corruption.

        A verified hit refreshes the entry's LRU clock (mtime) and is
        memoised in RAM.  Corruption of any flavour — unparseable JSON,
        checksum mismatch, address mismatch — quarantines the file and
        reports a miss so the caller rebuilds.
        """
        path = self.entry_path(graph_key, kind, fingerprint)
        memo = self._memo_get(path)
        if memo is not None:
            try:
                os.utime(path, None)  # keep hot entries hot for the LRU
            except OSError:
                pass
            self._count("hits", kind)
            return memo
        t0 = time.perf_counter()
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self._count("misses", kind)
            return None
        except OSError:
            self._count("misses", kind)
            return None
        payload = self._verify_raw(raw, path, graph_key, kind, fingerprint)
        if payload is None:
            self._count("misses", kind)
            return None
        self.registry.histogram(
            "artifacts_hydrate_seconds",
            "time to load and verify one artifact on a hit",
            labels={"kind": kind},
        ).observe(time.perf_counter() - t0)
        try:
            os.utime(path, None)  # LRU touch
        except OSError:  # pragma: no cover - racing an eviction
            pass
        self._count("hits", kind)
        self._memo_put(path, payload, len(raw))
        return payload

    def _verify_raw(self, raw: bytes, path: str, graph_key: str,
                    kind: str, fingerprint: str) -> Any:
        """Parse + verify one entry's bytes; quarantine on any defect."""
        why = None
        payload = None
        try:
            doc = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            why = "unparseable"
            doc = None
        if doc is not None:
            if not isinstance(doc, dict) or "payload" not in doc:
                why = "malformed"
            elif (
                doc.get("graph_key") != graph_key
                or doc.get("kind") != kind
                or doc.get("fingerprint") != fingerprint
            ):
                why = "address_mismatch"
            elif doc.get("checksum") != _checksum(_canonical(doc["payload"])):
                why = "checksum_mismatch"
            else:
                payload = doc["payload"]
        if why is not None:
            self._quarantine(path, why)
            return None
        return payload

    def _verify_entry_file(self, raw: bytes, path: str) -> bool:
        """Scan-time check: the entry is sound *and* lives at the path its
        own address maps to (fingerprints are sanitised in filenames, so
        the address cannot be reconstructed from the path — it is read
        from the document and checked the other way around)."""
        why = None
        try:
            doc = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            why = "unparseable"
            doc = None
        if doc is not None:
            if not isinstance(doc, dict) or "payload" not in doc:
                why = "malformed"
            elif self.entry_path(
                str(doc.get("graph_key", "")),
                str(doc.get("kind", "")),
                str(doc.get("fingerprint", "-")),
            ) != path:
                why = "address_mismatch"
            elif doc.get("checksum") != _checksum(_canonical(doc["payload"])):
                why = "checksum_mismatch"
        if why is not None:
            self._quarantine(path, why)
            return False
        return True

    def _quarantine(self, path: str, why: str) -> None:
        """Move a defective entry aside (never served, never lost)."""
        self._memo_drop(path)
        dest = os.path.join(
            self.quarantine_dir,
            f"{int(time.time() * 1000)}__{why}__{os.path.basename(path)}",
        )
        with self.lock:
            self._invalidate_ledger()
            try:
                os.replace(path, dest)
            except OSError:  # pragma: no cover - raced by another process
                return
        self._count("corrupt")

    # -- byte ledger -------------------------------------------------------

    def _advance_generation(self) -> None:
        """Bump the shared generation before a change to ``objects/``.

        Caller holds the file lock.  The ledger is dropped unless the
        generation on disk is the one this store last wrote, i.e. no
        other store has changed ``objects/`` since.  A missing, torn or
        non-numeric file reads as "changed"; so does a writer killed
        after this bump, because the bump lands before the change does.
        Nothing here is fsynced: a lost bump costs a walk, never a wrong
        total.
        """
        try:
            with open(self._generation_path, "rb") as handle:
                text = handle.read()
        except OSError:
            text = b""
        seen = None
        if text[-1:] == b"\n" and text[:-1].isdigit():
            seen = int(text)
        if seen is None or seen != self._generation:
            self._ledger = None
        # a fresh count starts at a random number, so no store still
        # holding a number from before the reset can mistake it for its own
        new = seen + 1 if seen is not None else int.from_bytes(
            os.urandom(6), "big"
        )
        try:
            with open(self._generation_path, "wb") as handle:
                handle.write(b"%d\n" % new)
            self._generation = new
        except OSError:
            self._generation = None

    def _invalidate_ledger(self) -> None:
        """Forget the ledger here and in every other store (lock held)."""
        self._advance_generation()
        self._ledger = None

    # -- write path --------------------------------------------------------

    def put(self, graph_key: str, kind: str, payload: Any,
            fingerprint: str = "-") -> str:
        """Atomically write one entry; returns its path.

        Temp-file + fsync + ``os.replace`` under the cross-process file
        lock.  With a budget, the byte ledger takes the new entry's size
        less the one it replaced, and only a ledger over budget walks
        the store to evict.

        A write that fails with ``OSError`` (disk full, I/O error)
        **degrades instead of raising**: the half-written temp file is
        removed, ``artifacts_write_errors_total`` counts the loss, and
        the caller proceeds uncached — a cache that cannot write is a
        cache that misses, never a failed job.
        """
        path = self.entry_path(graph_key, kind, fingerprint)
        blob = _canonical(payload)
        data = _entry_bytes({
            "format": FORMAT,
            "graph_key": graph_key,
            "kind": kind,
            "fingerprint": fingerprint,
            "created": round(time.time(), 3),
            "checksum": _checksum(blob),
        }, blob)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with self.lock:
            self._advance_generation()
            try:
                replaced = os.stat(path).st_size
            except OSError:
                replaced = 0
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                durable.atomic_rewrite(path, tmp, [data], binary=True)
            except OSError as exc:
                self._ledger = None
                self._count("write_errors", kind)
                print(
                    f"artifacts: cache write failed for "
                    f"{kind}/{fingerprint} ({exc}); continuing uncached",
                    file=sys.stderr, flush=True,
                )
                return path
            finally:
                self._memo_drop(path)
            self._count("writes", kind)
            if self.max_bytes is not None:
                if self._ledger is not None:
                    self._ledger += len(data) - replaced
                if self._ledger is None or self._ledger > self.max_bytes:
                    self._enforce_budget(self.max_bytes)
        return path

    def get_or_build(
        self,
        graph_key: str,
        kind: str,
        build: Callable[[], Any],
        fingerprint: str = "-",
    ) -> Any:
        """Return the cached payload, building + storing it on a miss.

        The freshly written entry is pinned while ``build`` results are
        persisted, so the eviction pass triggered by a concurrent write
        cannot remove an artifact its own job is about to read back.
        """
        cached = self.get(graph_key, kind, fingerprint)
        if cached is not None:
            return cached
        with self.pin(graph_key, kind, fingerprint):
            payload = build()
            self.put(graph_key, kind, payload, fingerprint)
        return payload

    def delete(self, graph_key: str, kind: str,
               fingerprint: str = "-") -> bool:
        path = self.entry_path(graph_key, kind, fingerprint)
        with self.lock:
            self._invalidate_ledger()
            self._memo_drop(path)
            try:
                os.remove(path)
                return True
            except FileNotFoundError:
                return False

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[ArtifactEntry]:
        """List every entry (unverified — see :meth:`verify`)."""
        out: list[ArtifactEntry] = []
        for dirpath, _dirs, files in os.walk(self.objects_dir):
            for name in files:
                path = os.path.join(dirpath, name)
                if ".tmp." in name or not name.endswith(".json"):
                    continue
                try:
                    st = os.stat(path)
                    with open(path, "rb") as handle:
                        doc = json.loads(handle.read())
                    out.append(ArtifactEntry(
                        graph_key=str(doc.get("graph_key", "?")),
                        kind=str(doc.get("kind", "?")),
                        fingerprint=str(doc.get("fingerprint", "-")),
                        path=path,
                        size=st.st_size,
                        mtime=st.st_mtime,
                        created=float(doc.get("created") or st.st_mtime),
                    ))
                except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                        AttributeError):
                    out.append(ArtifactEntry(
                        graph_key="?", kind="?", fingerprint="?",
                        path=path, size=0, mtime=0.0, created=0.0,
                    ))
        out.sort(key=lambda e: (e.graph_key, e.kind, e.fingerprint))
        return out

    def verify(self) -> dict[str, Any]:
        """Integrity-scan every entry; quarantine defects; report.

        Returns ``{"ok": n, "quarantined": [paths], "tmp_removed": n}``.
        """
        ok = 0
        quarantined: list[str] = []
        tmp_removed = 0
        with self.lock:
            self._invalidate_ledger()  # stale temp files leave the total
            for dirpath, _dirs, files in os.walk(self.objects_dir):
                for name in files:
                    path = os.path.join(dirpath, name)
                    if ".tmp." in name:
                        os.remove(path)
                        tmp_removed += 1
                        continue
                    try:
                        with open(path, "rb") as handle:
                            raw = handle.read()
                    except OSError:
                        continue
                    if self._verify_entry_file(raw, path):
                        ok += 1
                    else:
                        quarantined.append(path)
        return {"ok": ok, "quarantined": quarantined,
                "tmp_removed": tmp_removed}

    def _sweep_tmp(self) -> int:
        removed = 0
        for dirpath, _dirs, files in os.walk(self.objects_dir):
            for name in files:
                if ".tmp." in name:
                    try:
                        os.remove(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:  # pragma: no cover
                        pass
        return removed

    def _enforce_budget(self, max_bytes: int) -> int:
        """Evict LRU unpinned entries until the store fits; returns count.

        Walks ``objects/`` and sets the byte ledger from what the walk
        finds.  Caller holds the file lock and has advanced the
        generation.
        """
        listing: list[tuple[float, int, str]] = []
        total = 0
        for dirpath, _dirs, files in os.walk(self.objects_dir):
            for name in files:
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                total += st.st_size
                listing.append((st.st_mtime, st.st_size, path))
        self._ledger = total
        if total <= max_bytes:
            return 0
        listing.sort()
        evicted = 0
        for _mtime, size, path in listing:
            if total <= max_bytes:
                break
            if self._pinned(path):
                continue
            try:
                os.remove(path)
            except OSError:  # pragma: no cover
                continue
            self._memo_drop(path)
            total -= size
            evicted += 1
        self._ledger = total
        if evicted:
            self._count("evictions", amount=evicted)
        return evicted

    def gc(self, max_bytes: int | None = None) -> dict[str, int]:
        """Sweep stale temp files and enforce the size budget now."""
        budget = max_bytes if max_bytes is not None else self.max_bytes
        with self.lock:
            self._invalidate_ledger()
            tmp_removed = self._sweep_tmp()
            evicted = (
                self._enforce_budget(budget) if budget is not None else 0
            )
        return {"tmp_removed": tmp_removed, "evicted": evicted}

    def clear(self) -> int:
        """Remove every entry (quarantine included); returns entries removed."""
        removed = 0
        with self.lock:
            self._invalidate_ledger()
            self._memo_drop()
            for base in (self.objects_dir, self.quarantine_dir):
                for dirpath, _dirs, files in os.walk(base, topdown=False):
                    for name in files:
                        try:
                            os.remove(os.path.join(dirpath, name))
                            removed += 1
                        except OSError:  # pragma: no cover
                            pass
                    if dirpath not in (base,):
                        try:
                            os.rmdir(dirpath)
                        except OSError:  # pragma: no cover
                            pass
        return removed

    def stats_summary(self) -> dict[str, Any]:
        """Shape of the store: entry/byte totals, per-kind counts, counters."""
        by_kind: dict[str, int] = {}
        total_bytes = 0
        count = 0
        for entry in self.entries():
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
            total_bytes += entry.size
            count += 1
        quarantined = sum(
            len(files) for _d, _s, files in os.walk(self.quarantine_dir)
        )
        counters = {
            m.name: m.value
            for m in self.registry
            if m.kind == "counter" and m.name.startswith("artifacts_")
            and not m.labels
        }
        return {
            "root": self.root,
            "entries": count,
            "bytes": total_bytes,
            "by_kind": dict(sorted(by_kind.items())),
            "quarantined": quarantined,
            "max_bytes": self.max_bytes,
            "counters": counters,
        }
