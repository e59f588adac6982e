"""Reference counts from an engine outside the MBET family, cached.

Usage (internal): python perfbench/reference.py JOBS.json

Every generated input's maximal-biclique count is computed once by a
registered baseline (``pmbe`` / ``oombea``), in subprocesses so their
memory never shows in the benchmark's own peak RSS, and cached under
``perfbench/.refcache`` keyed by recipe, seed and the sha256 of the
edge-list file the program reads, so a changed generator never meets a
stale count.  The cache entry also records the graph's Qmax, the size
regime the workload claims.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import BENCH_DIR, ROOT, child_env, ensure_program  # noqa: E402

CACHE_DIR = BENCH_DIR / ".refcache"
#: reference subprocesses run side by side (one per core of a 2-core host)
REFERENCE_PROCS = 2


def _entry_path(key: str) -> pathlib.Path:
    return CACHE_DIR / (key.replace(":", "_") + ".json")


def lookup(key: str) -> dict | None:
    """Cached ``{"count", "qmax", "engine"}`` for ``key``, or None."""
    try:
        return json.loads(_entry_path(key).read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def ensure(jobs: list[tuple[str, str, str]]) -> dict[str, dict]:
    """References for ``(key, graph_path, engine)`` jobs, computing the
    missing ones in up to ``REFERENCE_PROCS`` subprocesses."""
    missing = [job for job in jobs if lookup(job[0]) is None]
    if missing:
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        specs, procs = [], []
        try:
            # before any timing starts, so both cores may work on it
            for part in range(min(REFERENCE_PROCS, len(missing))):
                spec = CACHE_DIR / f"jobs-{os.getpid()}-{part}.json"
                spec.write_text(json.dumps(missing[part::REFERENCE_PROCS]))
                specs.append(spec)
                procs.append(subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "reference.py"),
                     str(spec)],
                    cwd=ROOT, env=child_env(),
                ))
            codes = [proc.wait(timeout=600) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            for spec in specs:
                spec.unlink(missing_ok=True)
        if any(codes):
            raise RuntimeError(f"reference computation failed: {codes}")
    out = {}
    for key, _path, _engine in jobs:
        entry = lookup(key)
        if entry is None:
            raise RuntimeError(f"no reference computed for {key}")
        out[key] = entry
    return out


def _compute(jobs: list[list[str]]) -> None:
    ensure_program()
    from repro import read_edge_list, run_mbe

    from graphs import qmax

    for key, path, engine in jobs:
        graph = read_edge_list(path)
        result = run_mbe(graph, engine, collect=False)
        if not result.complete:
            raise RuntimeError(f"reference run for {key} incomplete")
        entry = {"count": result.count, "qmax": qmax(graph),
                 "engine": engine}
        target = _entry_path(key)
        tmp = target.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(entry))
        os.replace(tmp, target)


if __name__ == "__main__":
    _compute(json.loads(pathlib.Path(sys.argv[1]).read_text()))
