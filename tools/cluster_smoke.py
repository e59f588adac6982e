#!/usr/bin/env python
"""Smoke-test federated enumeration end to end, with a worker kill.

Boots two ``repro serve`` workers on ephemeral ports, runs a
``ClusterCoordinator`` against them with slow-fault injection (so
slices are reliably mid-flight), SIGKILLs one worker while it holds a
dispatched slice, and asserts, in two passes (a pinned ``n_slices=6``,
then the planner's own count, which must equal
:func:`repro.plan.recommend_slices`):

1. the coordinator declares the victim dead and reassigns its slices;
2. the run completes and the merged biclique set equals an in-process
   single-node ``run_mbe`` of the same dataset **exactly** (no
   duplicates, nothing missing);
3. the coordinator's ``cluster_*`` metrics parse back via
   :func:`repro.obs.sinks.parse_prometheus_text` and record the death,
   the reassignment, and the merge.

Exits non-zero on the first discrepancy.  Usage::

    PYTHONPATH=src python tools/cluster_smoke.py [--dataset NAME]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro import run_mbe
from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.datasets import load
from repro.obs.sinks import parse_prometheus_text
from repro.plan import recommend_slices, root_cost_estimates

REPO_ROOT = Path(__file__).resolve().parent.parent


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def boot_worker(state_dir: Path) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir), "--port", "0",
         "--workers", "1", "--allow-faults"],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    port_file = state_dir / "serve.port"
    deadline = time.monotonic() + 30
    while True:
        if proc.poll() is not None:
            fail(f"worker died on boot:\n{proc.stdout.read()}")
        if port_file.exists() and port_file.read_text().strip():
            return proc, f"http://127.0.0.1:{int(port_file.read_text())}"
        if time.monotonic() > deadline:
            proc.kill()
            fail("worker never wrote its port file")
        time.sleep(0.05)


def smoke_pass(
    dataset: str, truth: frozenset, n_slices: int | None,
    slow_seconds: float, timeout: float,
) -> None:
    """Boot two workers, SIGKILL one mid-slice, assert an exact merge."""
    label = f"n_slices={n_slices}" if n_slices else "planner's slice count"
    print(f"== pass: {label} ==")
    root = Path(tempfile.mkdtemp(prefix="cluster-smoke-"))
    procs, urls = [], []
    print("[1/4] booting 2 serve workers on ephemeral ports ...")
    for i in range(2):
        proc, url = boot_worker(root / f"w{i}")
        procs.append(proc)
        urls.append(url)
        print(f"      worker {i} up at {url}")

    config = ClusterConfig(
        state_dir=str(root / "coord"),
        workers=urls,
        n_slices=n_slices,
        heartbeat_interval=0.15,
        heartbeat_timeout=1.0,
        poll_interval=0.02,
        time_limit=timeout,
        # every root task sleeps briefly, so the victim reliably holds
        # a mid-flight slice when the SIGKILL lands
        faults={"slow_rate": 1.0, "slow_seconds": slow_seconds},
    )
    coord = ClusterCoordinator(config)
    victim, victim_url = procs[0], urls[0]
    journal_path = coord.journal.path

    def assassin() -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                text = open(journal_path, encoding="utf-8").read()
            except FileNotFoundError:
                text = ""
            if (f'"worker":"{victim_url}"' in text
                    and '"event":"dispatched"' in text):
                break
            time.sleep(0.02)
        time.sleep(0.4)
        print(f"[2/4] SIGKILL worker 0 ({victim_url}) mid-slice ...")
        victim.kill()

    killer = threading.Thread(target=assassin, daemon=True)
    killer.start()
    try:
        result = coord.run({"dataset": dataset})
        metrics_text = coord.metrics_text()
    finally:
        coord.close()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
    killer.join(timeout=10)

    print("[3/4] asserting the merged result is exact ...")
    if victim.poll() is None:
        fail("the victim worker survived its SIGKILL")
    if not result.complete:
        fail(f"federated run incomplete: {result.meta}")
    if n_slices is None:
        want = recommend_slices(2, root_cost_estimates(load(dataset)),
                                config.poll_interval)
        if result.meta["slices"] != want:
            fail(f"planned {result.meta['slices']} slices, the planner "
                 f"recommends {want}")
    got = result.biclique_set()
    if len(result.bicliques) != len(got):
        fail(f"merge produced duplicates: "
             f"{len(result.bicliques)} rows, {len(got)} distinct")
    if got != truth:
        fail(f"federated result differs from single-node run_mbe: "
             f"{len(got)} vs {len(truth)} bicliques")
    if result.meta["workers"][victim_url] != "dead":
        fail(f"victim not recorded dead: {result.meta['workers']}")
    print(f"      complete, exact match: {len(got)} bicliques in "
          f"{result.meta['slices']} slices, worker 0 recorded dead")

    print("[4/4] cluster_* metrics parse-back ...")
    samples = parse_prometheus_text(metrics_text)
    for name, floor in [
        ("cluster_worker_deaths_total", 1),
        ("cluster_reassignments_total", 1),
        ('cluster_slices_total{event="completed"}', 1),
    ]:
        if samples.get(name, 0.0) < floor:
            fail(f"{name} missing or below {floor}: {samples.get(name)}")
    merged = samples.get("cluster_merge_bicliques_total", 0.0)
    if int(merged) != len(truth):
        fail(f"cluster_merge_bicliques_total is {merged}, "
             f"expected {len(truth)}")
    print(f"      deaths={int(samples['cluster_worker_deaths_total'])} "
          f"reassignments={int(samples['cluster_reassignments_total'])} "
          f"merged={int(merged)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="yg")
    parser.add_argument("--timeout", type=float, default=180.0)
    args = parser.parse_args(argv)

    truth = run_mbe(load(args.dataset), "mbet").biclique_set()
    print(f"dataset {args.dataset}: {len(truth)} maximal bicliques expected")
    # a pinned count, then the planner's own (one slice per worker on a
    # small job: the slow fault is shorter so each pass's slices hold a
    # similar few seconds of sleep)
    smoke_pass(args.dataset, truth, 6, 0.25, args.timeout)
    smoke_pass(args.dataset, truth, None, 0.05, args.timeout)
    print("OK: cluster smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
