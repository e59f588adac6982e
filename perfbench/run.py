"""The repo benchmark: one command, four workloads, checked results.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):

``batch_zoo``  closed loop, one in-process client: ``repro run`` ops on
               scaled zoo graphs (Qmax < 2k).
``serve_mix``  open loop at a fixed rate against one ``repro serve``:
               fresh graphs plus repeats answered from the result cache.
``federated``  closed loop of federated jobs, each on a distinct graph,
               over two ``repro serve --workers 1`` processes.
``large_d2``   the batch op on hub-heavy power-law graphs (Qmax >= 2k);
               runnable, but not in ``BENCHMARK.json``: its timings track
               the host's drift too closely to gate on.

Each run derives its inputs from ``--seed``, checks every op's count
against a reference from an engine outside the MBET family, verifies one
sampled op's bicliques, and prints as its last stdout line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The full record, environment included, is written under
``perfbench/results/``.  Exit status is non-zero when any check fails.

The op lists are fixed: ``--seconds`` sets how many whole passes (or, for
``serve_mix``, how many scheduled requests) a run holds, from each
workload's nominal cost, so every run of a workload has the same op mix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import queue
import random
import shutil
import subprocess
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR, BENCHMARK_JSON, RESULTS_DIR, ROOT, WORK_DIR, Server,
    child_env, mean, p50, p90,
)

#: serve_mix and federated play their op list in this many chunks; one
#: set-up sample precedes the measured phase and one follows every chunk
#: (batch: every pass), so ``setup_s``, their median, spans the run
SETUP_CHUNKS = 6
#: nominal seconds of one batch pass / one federated op, which turn
#: ``--seconds`` into a fixed op count
NOMINAL_PASS_S = {"batch_zoo": 3.6, "large_d2": 2.6}
NOMINAL_FED_OP_S = 0.75
#: distinct large-D2 graphs per run
LARGE_D2_GRAPHS = 3
#: serve_mix: fixed arrival rate (requests/s, evenly spaced), client
#: status-poll interval, share of requests that repeat a cached spec
SERVE_RATE = 5.0
SERVE_POLL_S = 0.002
SERVE_REPEAT_SHARE = 0.3
SERVE_PIECES, SERVE_PIECES_PER_GRAPH, SERVE_WARMUP_JOBS = 16, 2, 4
FED_PIECES, FED_PIECES_PER_GRAPH = 16, 3
#: latency limit per op, seconds (an op over it misses the SLO)
SLO_S = {"batch_zoo": 5.0, "large_d2": 10.0, "serve_mix": 1.0,
         "federated": 10.0}
#: the planner's engines, one plan.engine.<name> count each
PLAN_ENGINES = ("mbet_vec", "mbet", "mbet_iter", "mbetm", "imbea", "mbea",
                "pmbe", "oombea", "parallel")
CORE_COUNTERS = ("nodes", "checks", "intersections", "trie_pruned",
                 "trie_peak_nodes", "non_maximal", "merged_candidates")


class Run:
    """State of one benchmark run: arguments, scratch dir, outcome."""

    def __init__(self, args: argparse.Namespace):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tiny = args.size == "tiny"
        self.repeat_share = args.repeat_share
        self.dir = WORK_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
        self.ops: list[dict] = []  # measured ops: latency, ok, count, ...
        self.setups: list[float] = []
        self.wall = 0.0
        self.peak_rss_mb = 0.0
        self.errors: list[str] = []
        self.layers: dict[str, float] = {}
        self.info: dict = {}

    def write_graph(self, graph, name: str) -> str:
        from repro import write_edge_list

        path = self.dir / "graphs" / f"{name}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_edge_list(graph, path)
        return str(path)

    def references(self, inputs) -> tuple[list, list[str], list[dict]]:
        """Build and write ``inputs``; return graphs, paths, references.

        A reference is cached under the input's recipe and seed plus the
        sha256 of the file written, so a change to a generator that
        alters the graph computes a new one.
        """
        import reference

        built = [inp.build() for inp in inputs]
        paths = [self.write_graph(g, f"in{i}") for i, g in enumerate(built)]
        keys = [f"{inp.key}:{file_digest(path)[:16]}" for inp, path in
                zip(inputs, paths)]
        refs = reference.ensure(
            [(key, path, inp.engine)
             for key, inp, path in zip(keys, inputs, paths)]
        )
        return built, paths, [refs[key] for key in keys]

    def fail(self, why: str) -> None:
        self.errors.append(why)


def file_digest(path: str) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


# -- batch workloads -------------------------------------------------------

def run_batch(run: Run) -> None:
    import graphs

    if run.workload == "batch_zoo":
        inputs = graphs.zoo_inputs(run.seed, run.tiny)
    else:
        inputs = graphs.large_d2_inputs(
            run.seed, run.tiny, 1 if run.tiny else LARGE_D2_GRAPHS)
    _built, paths, refs = run.references(inputs)
    run.info["qmax"] = [r["qmax"] for r in refs]
    run.info["inputs"] = [inp.key for inp in inputs]
    passes = 2 if run.tiny else max(
        2, round(run.seconds / NOMINAL_PASS_S[run.workload]))
    warmup = graphs.piece_inputs("batch", run.seed, True, 1)[0].build()
    spec = {
        "graphs": paths, "passes": passes, "trace": run.trace,
        "warmup": run.write_graph(warmup, "warmup"),
        "verify_graph": run.seed % len(paths),
        "out": str(run.dir / "child.json"),
    }
    spec_path = run.dir / "child-spec.json"
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, str(BENCH_DIR / "batch_child.py"), str(spec_path)]

    def start() -> subprocess.Popen:
        """One set-up sample: start the batch process until ``ready``."""
        t0 = time.perf_counter()
        child = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if child.stdout.readline().strip() != "ready":
            stop(child)
            raise RuntimeError("batch child failed during set-up")
        run.setups.append(time.perf_counter() - t0)
        return child

    def stop(child: subprocess.Popen, line: str = "exit") -> None:
        try:
            child.stdin.write(line + "\n")
            child.stdin.close()
        except OSError:
            pass
        try:
            child.wait(timeout=170)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0:
            raise RuntimeError(f"batch child exited {child.returncode}")

    # set-up samples: the measured process's own, one after each pass but
    # the last (the measured process waits), and one after it has ended
    child = start()
    try:
        for p in range(passes):
            child.stdin.write("go\n")
            child.stdin.flush()
            if child.stdout.readline().strip() != "pass":
                raise RuntimeError(f"batch child failed in pass {p}")
            if p < passes - 1:
                stop(start())
        stop(child, "done")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    stop(start())
    out = json.loads(pathlib.Path(spec["out"]).read_text())
    run.wall = out["wall"]
    run.peak_rss_mb = out["peak_rss_mb"]
    for op in out["ops"]:
        want = refs[op["graph"]]["count"]
        op["ok"] = op["complete"] and op["count"] == want
        if not op["ok"]:
            run.fail(f"pass {op['pass']} graph {op['graph']}: count "
                     f"{op['count']} != reference {want}")
    run.ops = out["ops"]
    want = refs[spec["verify_graph"]]["count"]
    if out["verified"] != want:
        run.fail(f"verify_result on the sampled op: "
                 f"{out['verify_error'] or out['verified']} (want {want})")
    run.info["engines"] = engine_counts(
        [op["engine"] for op in run.ops if op["pass"] == 0])
    if run.trace:
        batch_layers(run, out["spans"])


def engine_counts(engines: list[str]) -> dict[str, int]:
    return {e: engines.count(e) for e in sorted(set(engines))}


def core_layers(layers: dict, spans: list, per: int) -> dict[str, float]:
    """core.* / plan.* / bigraph.* metrics from program spans."""
    from spans import ATTRS, NAME, self_time_by_layer

    selfs = self_time_by_layer(spans)
    out = {
        "bigraph.parse_s": selfs.get("bigraph.parse", 0.0) / per,
        "bigraph.order_s": selfs.get("bigraph.order", 0.0) / per,
        "plan.build_s": selfs.get("plan.build", 0.0) / per,
        "core.decompose_s": selfs.get("core.decompose", 0.0) / per,
        "core.search_s": selfs.get("core.run", 0.0) / per,
    }
    runs = [s[ATTRS] for s in spans if s[NAME] == "core.run" and s[ATTRS]]
    for name in CORE_COUNTERS:
        out[f"core.{name}"] = sum(r["stats"][name] for r in runs) / per
    layers.update(out)
    return selfs


def batch_layers(run: Run, spans: list) -> None:
    from spans import END, NAME, START, TRACE, self_times

    traced = [op for op in run.ops if op["traced"]]
    layers = run.layers
    core_layers(layers, spans, len(traced))
    layers.update({e: 0.0 for e in plan_engine_names()})
    for engine, n in run.info["engines"].items():
        layers[f"plan.engine.{engine}"] = float(n)
    layers["plan.predicted_over_actual"] = p50(
        [op["predicted"] / op["elapsed"] for op in traced])
    # blocking-path check: the layers' self times summed per traced op
    selfs = self_times(spans)
    layer_sum = {
        s[TRACE]: (s[END] - s[START]) - selfs[i]
        for i, s in enumerate(spans) if s[NAME] == "op" and s[TRACE]
    }
    # traced and untraced ops of the same graph interleave, so each
    # graph pairs its traced figures with its own untraced p50
    sums, overheads = [], []
    for g in {op["graph"] for op in run.ops}:
        plain = p50([op["latency"] for op in run.ops
                     if op["graph"] == g and not op["traced"]])
        mine = [op for op in traced if op["graph"] == g]
        sums.append(p50([layer_sum[op["trace"]] for op in mine]) / plain)
        overheads.append(p50([op["latency"] for op in mine]) / plain)
    layers["bench.layer_sum_over_p50"] = p50(sums)
    layers["bench.trace_overhead_ratio"] = p50(overheads)


def plan_engine_names() -> list[str]:
    return [f"plan.engine.{e}" for e in PLAN_ENGINES]


# -- serve_mix -------------------------------------------------------------

def submit_and_wait(url: str, path: str, timeout: float = 120.0) -> dict:
    """Submit one job and poll it to completion (set-up only)."""
    status, body = common.http_json(url + "/jobs",
                                    {"graph_path": path, "collect": True})
    if status not in (200, 202):
        raise RuntimeError(f"warm-up submit refused: {status} {body}")
    deadline = time.monotonic() + timeout
    while body.get("state") not in ("done", "failed", "cancelled"):
        if time.monotonic() > deadline:
            raise RuntimeError("warm-up job did not finish")
        time.sleep(SERVE_POLL_S)
        status, body = common.http_json(f"{url}/jobs/{body['job_id']}")
    if body["state"] != "done":
        raise RuntimeError(f"warm-up job {body['state']}: {body}")
    return body


class OpenLoopClient:
    """Fixed-schedule sender plus one poller: two threads, one
    connection each."""

    def __init__(self, url: str, schedule: list[tuple[float, str]],
                 refs: dict[str, int], traced: bool):
        self.url = url
        self.schedule = schedule  # (offset seconds, graph path)
        self.refs = refs
        self.records = [dict(path=p, offset=t, traced=traced)
                        for t, p in schedule]
        self.inbox: queue.Queue = queue.Queue()
        self.polls = 0

    def run(self, timeout: float) -> float:
        """Play the schedule; returns the measured wall time."""
        self.t0 = time.perf_counter() + 0.05
        sender = threading.Thread(target=self._send, daemon=True)
        sender.start()
        self._poll(self.t0 + self.schedule[-1][0] + timeout)
        sender.join(timeout=timeout)
        done = [r["done_at"] for r in self.records if "done_at" in r]
        self.wall = (max(done) if done else time.perf_counter()) - self.t0
        return self.wall

    def _send(self) -> None:
        for rec in self.records:
            due = self.t0 + rec["offset"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            rec["lag"] = sent - due
            try:
                status, body = common.http_json(
                    self.url + "/jobs",
                    {"graph_path": rec["path"], "collect": True})
            except OSError as exc:
                status, body = 0, {"error": repr(exc)}
            rec["submit_s"] = time.perf_counter() - sent
            rec["status"] = status
            if status in (200, 202):
                rec["job_id"] = body["job_id"]
                self.inbox.put(rec)
            else:
                rec["error"] = f"submit refused: {status} {body}"
        self.inbox.put(None)

    def _poll(self, deadline: float) -> None:
        pending: list[dict] = []
        sending = True
        while (sending or pending) and time.perf_counter() < deadline:
            while True:
                try:
                    rec = self.inbox.get_nowait()
                except queue.Empty:
                    break
                if rec is None:
                    sending = False
                else:
                    pending.append(rec)
            for rec in list(pending):
                try:
                    _status, body = common.http_json(
                        f"{self.url}/jobs/{rec['job_id']}")
                except OSError:
                    continue  # retried next tick, failed at the deadline
                self.polls += 1
                if body.get("state") not in ("done", "failed", "cancelled"):
                    continue
                pending.remove(rec)
                self._fetch(rec)
            time.sleep(SERVE_POLL_S)
        for rec in pending:
            rec["error"] = "no result before the deadline"

    def _fetch(self, rec: dict) -> None:
        t = time.perf_counter()
        try:
            status, body = common.http_json(
                f"{self.url}/jobs/{rec['job_id']}/result")
        except OSError as exc:
            status, body = 0, {"error": repr(exc)}
        rec["done_at"] = time.perf_counter()
        rec["fetch_s"] = rec["done_at"] - t
        rec["latency"] = rec["done_at"] - (self.t0 + rec["offset"])
        summary = body.get("summary") or {}
        rec["cache_hit"] = bool(summary.get("cache_hit"))
        rec["run_s"] = summary.get("elapsed", 0.0)
        rec["engine"] = summary.get("engine")
        rec["predicted"] = summary.get("predicted_seconds")
        want = self.refs[rec["path"]]
        bicliques = body.get("bicliques")
        rec["count"] = len(bicliques) if bicliques is not None else -1
        rec["ok"] = (status == 200 and body.get("state") == "done"
                     and summary.get("complete") is True
                     and summary.get("count") == want
                     and rec["count"] == want)
        if not rec["ok"]:
            rec["error"] = (f"{body.get('state')}: count "
                            f"{summary.get('count')} / {rec['count']} "
                            f"!= reference {want}")
        rec["bicliques"] = bicliques


def composite_inputs(run: Run, n_pieces: int, per_graph: int,
                     n: int) -> tuple[list[str], dict[str, int]]:
    """``n`` distinct composite graph files and their reference counts."""
    import graphs

    pieces = graphs.piece_inputs(run.workload, run.seed, run.tiny, n_pieces)
    built, _paths, refs = run.references(pieces)
    run.info["qmax"] = [r["qmax"] for r in refs]
    rng = random.Random(common.derive_seed(run.seed, run.workload, "mix"))
    paths, counts, digests = [], {}, set()
    # one composite in memory at a time
    for i, (graph, count) in enumerate(graphs.composites(
            built, [r["count"] for r in refs], n, per_graph, rng)):
        path = run.write_graph(graph, f"c{i}")
        del graph
        digest = file_digest(path)
        if digest in digests:
            raise RuntimeError("composite generator repeated a graph")
        digests.add(digest)
        paths.append(path)
        counts[path] = count
    return paths, counts


def run_serve(run: Run) -> None:
    from repro.core.base import Biclique
    from repro.core.verify import verify_result

    n_requests = 12 if run.tiny else round(SERVE_RATE * run.seconds)
    n_repeat = round(n_requests * run.repeat_share)
    n_fresh = n_requests - n_repeat
    made, refs = composite_inputs(
        run, 4 if run.tiny else SERVE_PIECES, SERVE_PIECES_PER_GRAPH,
        n_fresh + SERVE_WARMUP_JOBS)
    fresh, warm = made[:n_fresh], made[n_fresh:]
    rng = random.Random(common.derive_seed(run.seed, "serve-order"))
    paths = fresh + [rng.choice(warm) for _ in range(n_repeat)]
    rng.shuffle(paths)
    # the schedule plays in chunks, each drained before the next; a set-up
    # sample follows every chunk (traced runs alternate untraced and
    # traced chunks: the overhead ratio's two sides)
    chunks = 2 if run.tiny else SETUP_CHUNKS
    q = len(paths) / chunks
    segments = [paths[round(i * q):round((i + 1) * q)] for i in range(chunks)]

    def boot(name: str, trace_out: pathlib.Path | None) -> Server:
        """One set-up sample: start ``repro serve``, run the warm-up jobs."""
        t0 = time.perf_counter()
        server = Server(run.dir / name, None, trace_out)
        try:
            server.wait_ready()
            for path in warm:
                submit_and_wait(server.url, path)
        except BaseException:
            server.stop()
            raise
        run.setups.append(time.perf_counter() - t0)
        return server

    server = boot("serve", run.dir / "serve.spans.json" if run.trace else None)
    try:
        clients = []
        for k, segment in enumerate(segments):
            traced = run.trace and k % 2 == 1
            if run.trace:
                server.set_tracing(traced)
            schedule = [(i / SERVE_RATE, p) for i, p in enumerate(segment)]
            client = OpenLoopClient(server.url, schedule, refs, traced)
            run.wall += client.run(timeout=60.0)
            clients.append(client)
            boot(f"spare{k}", None).stop()
        run.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    records = [rec for c in clients for rec in c.records]
    for rec in records:
        rec.setdefault("ok", False)
        if not rec["ok"]:
            run.fail(f"{rec['path']}: {rec.get('error')}")
    sampled = next((r for r in records if r["ok"] and not r["cache_hit"]),
                   None)
    if sampled is None:
        run.fail("no fresh request completed to verify")
    else:
        from repro import read_edge_list

        try:
            verify_result(read_edge_list(sampled["path"]),
                          [Biclique.make(*b) for b in sampled["bicliques"]])
        except AssertionError as exc:
            run.fail(f"verify_result on a sampled request: {exc}")
    for rec in records:
        rec.pop("bicliques", None)
    run.ops = records
    run.info["engines"] = engine_counts(
        [r["engine"] for r in records if r.get("engine")])
    if run.trace:
        serve_layers(run, clients[1::2])


def load_spans(path: pathlib.Path) -> list:
    return json.loads(path.read_text()) if path.exists() else []


def serve_layers(run: Run, traced: list[OpenLoopClient]) -> None:
    from spans import ATTRS, NAME

    spans = load_spans(run.dir / "serve.spans.json")
    recs = [rec for rec in run.ops if rec["traced"]]
    n = len(recs)
    layers = run.layers
    selfs = core_layers(layers, spans, n)
    plans = [s[ATTRS]["engine"] for s in spans
             if s[NAME] == "plan.build" and s[ATTRS]]
    layers.update({e: 0.0 for e in plan_engine_names()})
    for engine, count in engine_counts(plans).items():
        layers[f"plan.engine.{engine}"] = float(count)
    gets = [s[ATTRS]["hit"] for s in spans
            if s[NAME] == "artifacts.get" and s[ATTRS]]
    waits = [s[ATTRS]["queue_wait"] for s in spans
             if s[NAME] == "serve.execute" and s[ATTRS]]
    fresh = [r for r in recs if r.get("ok") and not r["cache_hit"]]
    journal = run.dir / "serve" / "journal.jsonl"
    admitted = SERVE_WARMUP_JOBS + len(run.ops)
    lags = [r["lag"] for r in recs if "lag" in r]
    layers.update({
        "serve.submit_s": mean([r["submit_s"] for r in recs
                                if "submit_s" in r]),
        "serve.queue_wait_s": mean(waits),
        "serve.run_s": mean([r["run_s"] for r in fresh]),
        "serve.journal_append_s": selfs.get("serve.journal_append", 0.0) / n,
        "serve.journal_bytes_per_job": journal.stat().st_size / admitted,
        "serve.result_fetch_s": mean([r["fetch_s"] for r in recs
                                      if "fetch_s" in r]),
        "serve.cache_hit_ratio": (
            sum(1 for r in recs if r.get("cache_hit")) / n),
        "artifacts.get_s": selfs.get("artifacts.get", 0.0) / n,
        "artifacts.put_s": selfs.get("artifacts.put", 0.0) / n,
        "artifacts.hit_ratio": (sum(gets) / len(gets)) if gets else 0.0,
        "plan.predicted_over_actual": p50(
            [r["predicted"] / r["run_s"] for r in fresh
             if r.get("predicted") and r["run_s"] > 0] or [0.0]),
        "bench.generator_lag_s": p90(lags) if lags else 0.0,
        "bench.poll_rps": sum(c.polls for c in traced) / sum(
            c.wall for c in traced),
    })
    layers["bench.trace_overhead_ratio"] = p50(
        [r["latency"] for r in recs if r["ok"]]) / p50(
        [r["latency"] for r in run.ops if r["ok"] and not r["traced"]])


# -- federated -------------------------------------------------------------

def run_federated(run: Run) -> None:
    from repro.cluster import ClusterConfig, ClusterCoordinator
    from repro.core.verify import verify_result

    from spans import Tracer, install_coordinator

    n_ops = 2 if run.tiny else max(2, round(run.seconds / NOMINAL_FED_OP_S))
    chunks = 2 if run.tiny else SETUP_CHUNKS
    n_pieces = 4 if run.tiny else FED_PIECES
    made, refs = composite_inputs(
        run, n_pieces, FED_PIECES_PER_GRAPH, n_ops + chunks + 1)
    op_paths, warm_paths = made[:n_ops], made[n_ops:]
    tracer = Tracer(enabled=False)
    if run.trace:
        install_coordinator(tracer)
    coord_ids: dict[str, int] = {}

    def federated_op(servers: list[Server], path: str,
                     state: str) -> tuple[float, object, str]:
        coord = ClusterCoordinator(ClusterConfig(
            state_dir=str(run.dir / state), workers=[s.url for s in servers]))
        try:
            t0 = time.perf_counter()
            result = coord.run({"graph_path": path})
            return time.perf_counter() - t0, result, coord.coordinator_id
        finally:
            coord.close()

    def boot(name: str, traced: bool) -> list[Server]:
        """One set-up sample: start both workers, run one warm-up job."""
        sample = len(run.setups)
        t0 = time.perf_counter()
        servers = []
        try:
            for i in range(2):
                servers.append(Server(
                    run.dir / f"{name}-{i}", 1,
                    run.dir / f"{name}-{i}.spans.json" if traced else None))
            for server in servers:
                server.wait_ready()
            _lat, result, _cid = federated_op(servers, warm_paths[sample],
                                              f"warm{sample}")
            if not result.complete or \
                    result.count != refs[warm_paths[sample]]:
                raise RuntimeError("federated warm-up op returned a wrong "
                                   "count")
        except BaseException:
            for server in servers:
                server.stop()
            raise
        run.setups.append(time.perf_counter() - t0)
        return servers

    servers = boot("w", run.trace)
    try:
        # the coordinator's peak RSS counts from here: input generation
        # before it is the benchmark's, not the program's
        common.reset_peak_rss()
        verify_at = run.seed % n_ops
        ends = {round((k + 1) * n_ops / chunks) for k in range(chunks)}
        t_chunk = time.perf_counter()
        for i, path in enumerate(op_paths):
            traced = run.trace and i % 2 == 1
            if run.trace:
                # untimed switch: traced and untraced ops alternate
                for server in servers:
                    server.set_tracing(traced)
                tracer.enabled = traced
            with tracer.span("op", f"op{i}"):
                latency, result, cid = federated_op(servers, path, f"op{i}")
            coord_ids[cid] = i
            want = refs[path]
            op = {"path": path, "latency": latency, "count": result.count,
                  "slices": result.meta.get("slices", 0), "traced": traced,
                  "ok": result.complete and result.count == want}
            if not op["ok"]:
                run.fail(f"op {i}: count {result.count} (complete="
                         f"{result.complete}) != reference {want}")
            if i == verify_at:
                from repro import read_edge_list

                try:
                    verify_result(read_edge_list(path), result.bicliques)
                except AssertionError as exc:
                    run.fail(f"verify_result on op {i}: {exc}")
            run.ops.append(op)
            del result
            if i + 1 in ends:
                run.wall += time.perf_counter() - t_chunk
                tracer.enabled = False
                for spare in boot(f"spare{len(run.setups)}", False):
                    spare.stop()
                t_chunk = time.perf_counter()
        listed = []
        for server in servers:
            _status, body = common.http_json(server.url + "/slices")
            listed.extend(body.get("slices", []))
        run.peak_rss_mb = common.self_peak_rss_mb() + sum(
            s.peak_rss_mb() for s in servers)
    finally:
        for server in servers:
            server.stop()
    measured = [s for s in listed if s.get("coordinator") in coord_ids]
    deduped = [s for s in measured if s.get("deduplicated")]
    for s in deduped:
        i = coord_ids[s["coordinator"]]
        run.ops[i]["ok"] = False
        run.fail(f"op {i}: slice {s['slice_id']} answered by dedupe")
    run.info["dedup_ratio"] = len(deduped) / max(1, len(measured))
    run.info["engines"] = {"parallel": len(run.ops)}
    if run.trace:
        federated_layers(run, tracer.spans, servers)


def federated_layers(run: Run, coord_spans: list,
                     servers: list[Server]) -> None:
    from spans import ATTRS, END, NAME, START, TRACE, self_time_by_layer

    traced = [op for op in run.ops if op["traced"]]
    plain = [op for op in run.ops if not op["traced"]]
    n = len(traced)
    worker_spans = [load_spans(s.trace_out) for s in servers]
    layers = run.layers
    # program layers inside the workers (slices run the parallel engine)
    core: dict[str, float] = {}
    finished = {}  # worker job id -> when its execution span ended
    checkpoint = busy = 0.0
    for spans in worker_spans:
        part: dict[str, float] = {}
        selfs = core_layers(part, spans, n)
        for key, value in part.items():
            core[key] = core.get(key, 0.0) + value
        checkpoint += selfs.get("runtime.checkpoint_record", 0.0)
        for s in spans:
            if s[NAME] == "serve.execute" and s[END]:
                finished[s[TRACE]] = s[END]
            if s[NAME] == "core.run" and s[END]:
                busy += s[END] - s[START]
    layers.update(core)
    coord = self_time_by_layer(coord_spans)
    layers["bigraph.parse_s"] += coord.get("bigraph.parse", 0.0) / n
    layers["bigraph.order_s"] += coord.get("bigraph.order", 0.0) / n
    layers.update({e: 0.0 for e in plan_engine_names()})
    lags = []
    seen = set()
    for s in coord_spans:
        attrs = s[ATTRS] or {}
        if s[NAME] == "cluster.poll" and attrs.get("state") == "done":
            job = attrs["job_id"]
            if job in finished and job not in seen:
                seen.add(job)
                lags.append(max(0.0, s[END] - finished[job]))
    layers.update({
        "cluster.plan_s": coord.get("cluster.plan", 0.0) / n,
        "cluster.dispatch_s": coord.get("cluster.dispatch", 0.0) / n,
        "cluster.poll_lag_s": mean(lags),
        "cluster.result_fetch_s": coord.get("cluster.result_fetch", 0.0) / n,
        "cluster.journal_append_s": (
            coord.get("cluster.journal_append", 0.0) / n),
        "cluster.worker_busy_ratio": busy / (
            2 * sum(op["latency"] for op in traced)),
        "cluster.slices": mean([op["slices"] for op in traced]),
        "cluster.resplits": sum(
            1 for s in coord_spans if s[NAME] == "cluster.resplit") / n,
        "cluster.dedup_ratio": run.info["dedup_ratio"],
        "runtime.checkpoint_record_s": checkpoint / n,
        "bench.trace_overhead_ratio": p50(
            [op["latency"] for op in traced]) / p50(
            [op["latency"] for op in plain]),
    })


# -- metrics and the command -------------------------------------------------

WORKLOADS = {"batch_zoo": run_batch, "large_d2": run_batch,
             "serve_mix": run_serve, "federated": run_federated}


def benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def end_to_end(run: Run) -> dict[str, float]:
    good = [op for op in run.ops if op.get("ok")]
    latencies = [op["latency"] for op in good]
    if run.workload in NOMINAL_PASS_S:
        # a batch pass repeats every graph: each graph counts once, by its
        # median op, so the percentiles describe the input mix and a
        # transient host stall during one op moves none of them
        by_graph: dict[int, list[float]] = {}
        for op in good:
            by_graph.setdefault(op["graph"], []).append(op["latency"])
        latencies = [p50(v) for v in by_graph.values()]
    latencies = latencies or [float("inf")]
    slo = SLO_S[run.workload]
    met = [op for op in good if op["latency"] <= slo]
    if run.workload == "serve_mix":
        # the open loop's wall time is set by the arrival schedule, so the
        # server's own pace is taken from its fresh jobs' engine time
        fresh = [op for op in good if not op["cache_hit"]]
        busy = sum(op["run_s"] for op in fresh)
        bicliques_per_s = (sum(op["count"] for op in fresh) / busy
                           if busy else 0.0)
    else:
        bicliques_per_s = sum(op["count"] for op in good) / run.wall
    return {
        "latency_p50_s": p50(latencies),
        "latency_p90_s": p90(latencies),
        "bicliques_per_s": bicliques_per_s,
        "goodput_ops_per_s": len(met) / run.wall,
        "slo_met_ratio": len(met) / len(run.ops),
        "ok_ratio": len(good) / len(run.ops),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": p50(run.setups),
    }


def per_layer(run: Run, names: list[str]) -> dict[str, float]:
    """Every per-layer metric; layers a workload never reaches read 0."""
    out = {name: 0.0 for name in names}
    out.update({k: v for k, v in run.layers.items() if k in out})
    out["bench.qmax"] = float(max(run.info.get("qmax", [0])))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs, for the benchmark's tests")
    parser.add_argument("--repeat-share", type=float,
                        default=SERVE_REPEAT_SHARE,
                        help="serve_mix: share of requests that repeat a "
                        "cached spec (to study the mix; the benchmark's "
                        "runs keep the default)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.repeat_share < 1.0:
        parser.error("--repeat-share must be in [0, 1)")
    common.ensure_program()
    spec = benchmark_spec()
    # the program's modules load before any timing: their import cost is
    # the benchmark's, not a set-up the program pays per run
    import repro.cluster  # noqa: F401
    import repro.plan  # noqa: F401
    import repro.serve  # noqa: F401

    run = Run(args)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    attempted = len(run.ops)
    failed = sum(1 for op in run.ops if not op.get("ok"))
    correct = not run.errors and attempted > 0 and failed == 0
    group = "per_layer" if run.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    values = (per_layer(run, list(units)) if run.trace else end_to_end(run))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": args.trace, "size": args.size,
        "repeat_share": args.repeat_share,
        "run_wall_s": time.perf_counter() - t0,
        "environment": common.environment(),
        "plan_engines": run.info.get("engines", {}),
        "info": run.info, "errors": run.errors, "setups": run.setups,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "ops": [{k: v for k, v in op.items() if k != "path"}
                for op in run.ops],
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{run.workload}-s{run.seed}-t{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    for why in run.errors[:20]:
        print(f"perfbench: FAILED {why}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{run.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
