"""Capture a dated benchmark snapshot as ``BENCH_<date>.json``.

Usage: python tools/bench_snapshot.py [--out DIR] [--date YYYY-MM-DD]
           [--datasets a,b,...] [--algorithms x,y,...] [--time-limit S]

Runs a small fixed suite (default: the quick zoo datasets against the
headline algorithms) through :func:`repro.bench.runner.run_timed` with an
:class:`repro.obs.Instrumentation` attached, so every row carries the
run's metric-registry snapshot next to its timing.  The output file is a
single JSON document::

    {"date": "...", "python": "...", "records": [RunRecord.as_dict(), ...]}

Snapshots are meant to be committed occasionally so performance drift is
visible in history; the metrics block makes regressions attributable
(e.g. "same count, 3x more intersections") rather than just observable.
The document also carries :func:`repro.setops.kernel_meta` (the numpy
version), so a timing shift across a library upgrade is visible in the
snapshot diff.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import datasets, run_mbe  # noqa: E402
from repro.bench.runner import run_timed  # noqa: E402
from repro.obs import Instrumentation  # noqa: E402
from repro.plan import PLANNER_ENGINES  # noqa: E402
from repro.setops import kernel_meta  # noqa: E402

DEFAULT_DATASETS = ("mti", "wa", "tm")
DEFAULT_ALGORITHMS = ("mbet", "imbea")
DEFAULT_CLUSTER_DATASET = "so"
#: serial planner candidates — the crossover matrix is the planner's
#: calibration ground truth, so it measures exactly the engines the
#: planner ranks (``parallel`` is predicted relative to these)
DEFAULT_CROSSOVER_ENGINES = tuple(e for e in PLANNER_ENGINES if e != "parallel")
CROSSOVER_ORDER = "degree"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".",
                        help="directory to write BENCH_<date>.json into")
    parser.add_argument("--date", default=None,
                        help="override the snapshot date (YYYY-MM-DD); "
                             "defaults to today")
    parser.add_argument("--datasets",
                        default=",".join(DEFAULT_DATASETS),
                        help="comma-separated zoo dataset keys")
    parser.add_argument("--algorithms",
                        default=",".join(DEFAULT_ALGORITHMS),
                        help="comma-separated algorithm names")
    parser.add_argument("--time-limit", type=float, default=30.0,
                        help="per-run budget in seconds (default 30)")
    parser.add_argument("--cluster-dataset", default=DEFAULT_CLUSTER_DATASET,
                        help="dataset for the single-node vs federated "
                             "comparison (empty string skips it)")
    parser.add_argument("--cluster-workers", type=int, default=2,
                        help="serve workers to federate over (default 2)")
    parser.add_argument("--cache-dataset", default="mti",
                        help="dataset for the cold-vs-warm artifact-cache "
                             "comparison (empty string skips it)")
    parser.add_argument("--crossover-datasets",
                        default=",".join(datasets.names()),
                        help="zoo keys for the planner crossover matrix "
                             "(empty string skips it; default: full zoo)")
    parser.add_argument("--crossover-engines",
                        default=",".join(DEFAULT_CROSSOVER_ENGINES),
                        help="engines measured in the crossover matrix")
    parser.add_argument("--crossover-time-limit", type=float, default=15.0,
                        help="per-cell budget for the crossover matrix "
                             "(default 15)")
    return parser


def crossover_snapshot(
    dataset_names: list[str],
    engines: list[str],
    time_limit: float,
) -> dict:
    """Measure the zoo × engines crossover matrix the planner trains on.

    Every cell carries the graph's :class:`repro.plan.PlanFeatures`
    signature next to the measured wall clock, which is exactly the
    record shape :func:`repro.plan.fit_coefficients` consumes.  Cells
    that hit the budget are recorded ``complete: false`` — a truncated
    elapsed is a lower bound, so calibration skips them.
    """
    from repro.plan import extract_features

    cells: list[dict] = []
    for name in dataset_names:
        graph = datasets.load(name)
        features = extract_features(graph).as_dict()
        for engine in engines:
            record = run_timed(
                graph, engine, dataset=name, time_limit=time_limit,
                order=CROSSOVER_ORDER,
            )
            cells.append({
                "dataset": name,
                "engine": engine,
                "elapsed": round(record.elapsed, 6),
                "complete": record.complete,
                "count": record.count,
                "features": features,
            })
            print(
                f"  crossover {engine:>10s} on {name}: "
                f"{record.elapsed:.3f}s ({record.status})",
                file=sys.stderr,
            )
    return {
        "order": CROSSOVER_ORDER,
        "time_limit": time_limit,
        "engines": engines,
        "datasets": dataset_names,
        "cells": cells,
    }


def cache_snapshot(dataset: str) -> dict:
    """Time ``repro run --cache`` cold vs warm on one dataset.

    Both runs are real CLI subprocesses against a fresh artifact store,
    so the warm number includes every honest overhead *except* the work
    the cache exists to skip: parsing, ordering, and enumeration.
    """
    import re

    graph = datasets.load(dataset)
    root = pathlib.Path(tempfile.mkdtemp(prefix="bench-cache-"))
    gpath = root / f"{dataset}.txt"
    from repro.bigraph.io import write_edge_list

    write_edge_list(graph, gpath)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    cmd = [sys.executable, "-m", "repro", "run", "--input", str(gpath),
           "-a", "mbet", "--cache-dir", str(root / "store")]
    timings = []
    outputs = []
    for _label in ("cold", "warm"):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )
        timings.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cache bench run failed: {proc.stderr}")
        outputs.append(proc.stdout)
    counts = [
        int(re.search(r"([\d,]+) maximal bicliques", out).group(1)
            .replace(",", ""))
        for out in outputs
    ]
    row = {
        "dataset": dataset,
        "count": counts[0],
        "cold_seconds": round(timings[0], 4),
        "warm_seconds": round(timings[1], 4),
        "warm_is_cache_hit": "cached result" in outputs[1],
        "counts_match": counts[0] == counts[1],
    }
    print(
        f"  cache on {dataset}: cold {timings[0]:.3f}s vs warm "
        f"{timings[1]:.3f}s "
        f"({'hit' if row['warm_is_cache_hit'] else 'MISS'})",
        file=sys.stderr,
    )
    return row


def _boot_worker(state_dir: pathlib.Path) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir), "--port", "0", "--workers", "2"],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    port_file = state_dir / "serve.port"
    deadline = time.monotonic() + 30
    while True:
        if proc.poll() is not None:
            raise RuntimeError("bench worker died on boot")
        if port_file.exists() and port_file.read_text().strip():
            return proc, f"http://127.0.0.1:{int(port_file.read_text())}"
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("bench worker never wrote its port file")
        time.sleep(0.05)


def cluster_snapshot(dataset: str, n_workers: int, time_limit: float) -> dict:
    """Time one dataset single-node vs federated over ``n_workers``.

    Boots real ``repro serve`` subprocesses so the federated number
    includes every honest overhead: HTTP dispatch, worker admission,
    result serialization, and the coordinator's merge.
    """
    from repro.cluster import ClusterConfig, ClusterCoordinator

    graph = datasets.load(dataset)
    t0 = time.perf_counter()
    single = run_mbe(graph, "mbet", time_limit=time_limit)
    single_seconds = time.perf_counter() - t0

    root = pathlib.Path(tempfile.mkdtemp(prefix="bench-cluster-"))
    procs, urls = [], []
    try:
        for i in range(n_workers):
            proc, url = _boot_worker(root / f"w{i}")
            procs.append(proc)
            urls.append(url)
        coord = ClusterCoordinator(ClusterConfig(
            state_dir=str(root / "coord"), workers=urls,
            poll_interval=0.02, time_limit=time_limit,
        ))
        try:
            t0 = time.perf_counter()
            result = coord.run({"dataset": dataset})
            cluster_seconds = time.perf_counter() - t0
        finally:
            coord.close()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
    exact = (result.complete
             and result.biclique_set() == single.biclique_set())
    row = {
        "dataset": dataset,
        "count": single.count,
        "workers": n_workers,
        "single_node_seconds": round(single_seconds, 4),
        "cluster_seconds": round(cluster_seconds, 4),
        "cluster_slices": result.meta.get("slices"),
        "exact_match": exact,
    }
    print(
        f"  cluster on {dataset}: single-node {single_seconds:.3f}s vs "
        f"{n_workers}-worker {cluster_seconds:.3f}s "
        f"({'exact' if exact else 'MISMATCH'})",
        file=sys.stderr,
    )
    return row


def snapshot(
    dataset_names: list[str],
    algorithms: list[str],
    time_limit: float,
) -> list[dict]:
    """Run the suite; one ``RunRecord.as_dict()`` per (dataset, algorithm)."""
    records: list[dict] = []
    for name in dataset_names:
        graph = datasets.load(name)
        for algorithm in algorithms:
            # fresh registry per run so each row's metrics stand alone
            instr = Instrumentation()
            record = run_timed(
                graph, algorithm, dataset=name,
                time_limit=time_limit, instrumentation=instr,
            )
            records.append(record.as_dict())
            print(
                f"  {algorithm:>10s} on {name}: {record.count:,} bicliques "
                f"in {record.elapsed:.3f}s ({record.status})",
                file=sys.stderr,
            )
    return records


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    date = args.date or datetime.date.today().isoformat()
    dataset_names = [d for d in args.datasets.split(",") if d]
    algorithms = [a for a in args.algorithms.split(",") if a]
    records = snapshot(dataset_names, algorithms, args.time_limit)
    doc = {
        "date": date,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernels": kernel_meta(),
        "datasets": dataset_names,
        "algorithms": algorithms,
        "time_limit": args.time_limit,
        "records": records,
    }
    if args.cluster_dataset:
        doc["cluster"] = cluster_snapshot(
            args.cluster_dataset, args.cluster_workers, args.time_limit)
    if args.cache_dataset:
        doc["cache"] = cache_snapshot(args.cache_dataset)
    if args.crossover_datasets:
        doc["crossover"] = crossover_snapshot(
            [d for d in args.crossover_datasets.split(",") if d],
            [e for e in args.crossover_engines.split(",") if e],
            args.crossover_time_limit,
        )
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"BENCH_{date}.json"
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
