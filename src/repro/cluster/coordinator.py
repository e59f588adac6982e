"""The cluster coordinator: shard, dispatch, survive, merge exactly.

One :class:`ClusterCoordinator` drives one federated enumeration job:

1. **Plan** — load the graph, compute the per-root costs over the
   canonical addressable-root list (:func:`repro.plan.root_cost_estimates`),
   size the slice count by the job's total cost
   (:func:`repro.plan.recommend_slices`), cut the list into
   cost-balanced ranges (:func:`repro.core.parallel.plan_root_ranges`),
   journal the plan.
2. **Dispatch** — send each slice to a healthy peer ``repro serve``
   worker over the HTTP job API (``POST /slices``).  Dispatch is
   *at-least-once*: a slice may be re-sent after a worker dies, after a
   failure, or re-split when it straggles.
3. **Survive** — heartbeats mark workers dead (timeout or connection
   refused); their in-flight slices are journaled ``lost`` and
   reassigned with exponential backoff plus jitter, capped by the run
   deadline and ``max_slice_retries``.  Every transition is journaled
   first, so a ``kill -9``'d coordinator restarts into the same state:
   completed slices reload from their result spools, in-flight ones
   re-attach to the worker job they were last dispatched to (worker-side
   idempotency makes the re-attach free), and nothing finished is ever
   re-run.
4. **Merge exactly once** — results are accepted per root range through
   a :class:`~repro.cluster.slices.RangeCoverage` arbiter; duplicate
   deliveries (reassigned slices whose first owner was merely slow,
   parents racing their re-split children) are discarded.  The merged
   set over a complete coverage equals single-node enumeration exactly.
   A slice result travels as the result-file bytes its worker wrote
   (:mod:`repro.core.io_results`): the coordinator checks their line
   count against the worker's summary, spools them with one write, and
   parses them once, at the end, only when ``collect`` is set.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import threading
import time
import uuid
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.io import read_edge_list
from repro.chaos import fs as chaos_fs
from repro.core.base import Biclique
from repro.core.io_results import parse_bicliques
from repro.cluster.client import WorkerClient, WorkerUnreachable
from repro.plan import (
    recommend_slices,
    recommend_straggler_factor,
    root_cost_estimates,
)
from repro.cluster.journal import ClusterJournal
from repro.cluster.slices import RangeCoverage, SliceSpec, plan_slices
from repro.obs.metrics import MetricRegistry
from repro.obs.sinks import prometheus_text

__all__ = ["ClusterConfig", "ClusterCoordinator", "ClusterResult"]

#: Worker job states that still mean "keep polling".
_IN_FLIGHT_STATES = frozenset({"queued", "running", "interrupted"})


@dataclass
class ClusterConfig:
    """Tunables of one coordinator (defaults sized for small clusters)."""

    state_dir: str
    workers: list[str] = field(default_factory=list)
    #: slice count; None asks the planner
    #: (:func:`repro.plan.recommend_slices`): one per worker for a job
    #: under the fine-slicing work threshold, else ``2 × workers`` plus
    #: more on graphs whose per-root costs are heavy-tailed
    n_slices: int | None = None
    order: str = "degree"
    seed: int = 0
    min_left: int = 1
    min_right: int = 1
    #: whole-job wall-clock budget; also caps per-slice worker budgets
    time_limit: float | None = None
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 2.0
    poll_interval: float = 0.05
    #: re-dispatches of one slice before it is declared failed
    max_slice_retries: int = 4
    retry_backoff: float = 0.25
    retry_jitter: float = 0.25
    #: re-split an in-flight slice once it runs longer than
    #: ``straggler_factor ×`` the median completed-slice duration;
    #: ``"auto"`` (default) derives the factor from the planner's
    #: per-root cost skew (a slice holding the heaviest root
    #: legitimately runs ``skew ×`` the typical one, so skewed graphs
    #: get a laxer threshold); None disables straggler mitigation
    straggler_factor: float | str | None = "auto"
    straggler_min_completed: int = 3
    #: concurrent slices per worker (the parallel engine serialises
    #: per-process, so more than 1 mostly queues)
    max_inflight_per_worker: int = 1
    #: give up when every worker has been dead this long
    all_dead_timeout: float = 15.0
    request_timeout: float = 10.0
    #: keep merged bicliques in RAM (False = counts and spools only)
    collect: bool = True
    engine_options: dict = field(default_factory=dict)
    #: chaos-only fault injection forwarded to worker jobs
    faults: dict | None = None


@dataclass
class ClusterResult:
    """Outcome of one federated job (mirrors ``MBEResult``'s shape)."""

    count: int
    complete: bool
    elapsed: float
    bicliques: list[Biclique] | None
    meta: dict[str, Any] = field(default_factory=dict)

    def biclique_set(self) -> frozenset[Biclique]:
        """Results as a set (requires ``collect=True``), as ``MBEResult``."""
        if self.bicliques is None:
            raise ValueError("cluster run was executed with collect=False")
        return frozenset(self.bicliques)


@dataclass
class _SliceState:
    spec: SliceSpec
    #: pending | inflight | completed | discarded | superseded | failed
    status: str = "pending"
    worker: str | None = None
    job_id: str | None = None
    attempts: int = 0
    not_before: float = 0.0
    dispatched_at: float = 0.0
    resplit: bool = False
    why: str | None = None


@dataclass
class _WorkerState:
    url: str
    client: WorkerClient
    alive: bool = True
    last_ok: float = 0.0
    dead_since: float | None = None
    inflight: set[str] = field(default_factory=set)


def _whole_lines(data: bytes, count: Any) -> bool:
    """True when ``data`` is exactly ``count`` newline-terminated lines."""
    return data.count(b"\n") == count and (
        not data or data.endswith(b"\n")
    )


class ClusterError(RuntimeError):
    """Unrecoverable coordinator-side condition (bad plan, bad resume)."""


class ClusterCoordinator:
    """Drives one sharded enumeration job across peer serve workers."""

    def __init__(self, config: ClusterConfig):
        if not config.workers:
            raise ValueError("at least one worker URL is required")
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.slices_dir = os.path.join(config.state_dir, "slices")
        os.makedirs(self.slices_dir, exist_ok=True)
        self.coordinator_id = self._stable_id()
        self.registry = MetricRegistry()
        self.journal = ClusterJournal(
            os.path.join(config.state_dir, "journal.jsonl")
        )
        self._rng = random.Random(config.seed)
        self._cancel = threading.Event()
        self._slices: dict[str, _SliceState] = {}
        self._workers: dict[str, _WorkerState] = {
            url: _WorkerState(
                url=url,
                client=WorkerClient(url, timeout=config.request_timeout),
            )
            for url in config.workers
        }
        self._coverage: RangeCoverage | None = None
        #: accepted slice results as result-file bytes (``collect`` only)
        self._chunks: list[bytes] = []
        self._count = 0
        self._durations: list[float] = []
        #: straggler threshold resolved at plan time ("auto" → derived
        #: from the per-root cost skew; None = mitigation disabled)
        self._straggler_factor: float | None = None

    # -- identity / observability -----------------------------------------

    def _stable_id(self) -> str:
        """Coordinator id, persisted so restarts keep their identity."""
        path = os.path.join(self.config.state_dir, "coordinator.id")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return text
        cid = "c-" + uuid.uuid4().hex[:12]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cid + "\n")
        return cid

    def _slice_event(self, event: str) -> None:
        self.registry.counter(
            "cluster_slices_total", "slice lifecycle events",
            labels={"event": event},
        ).inc()

    def metrics_text(self) -> str:
        """Render the coordinator registry as Prometheus text."""
        self.registry.gauge(
            "cluster_slices_in_flight", "slices currently dispatched"
        ).set(sum(1 for s in self._slices.values() if s.status == "inflight"))
        self.registry.gauge(
            "cluster_workers_alive", "workers passing heartbeats"
        ).set(sum(1 for w in self._workers.values() if w.alive))
        return prometheus_text(self.registry)

    def cancel(self) -> None:
        """Request a graceful drain (see :meth:`run`'s interrupted path)."""
        self._cancel.set()

    # -- planning / resume -------------------------------------------------

    def _load_graph(self, source: dict[str, Any]) -> BipartiteGraph:
        if source.get("dataset") is not None:
            from repro import datasets

            return datasets.load(source["dataset"])
        if source.get("graph_path") is not None:
            return read_edge_list(
                source["graph_path"], fmt=source.get("fmt", "auto")
            )
        edges = source.get("edges")
        if not edges:
            raise ClusterError(
                "source must name one of dataset / graph_path / edges"
            )
        return BipartiteGraph([tuple(e) for e in edges])

    def _job_fingerprint(self, source: dict, n_roots: int) -> str:
        cfg = self.config
        ident = {
            "source": {
                k: source.get(k)
                for k in ("dataset", "graph_path", "edges", "fmt")
            },
            "order": cfg.order,
            "seed": cfg.seed,
            "min_left": cfg.min_left,
            "min_right": cfg.min_right,
            "n_roots": n_roots,
        }
        blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def _plan(self, graph: BipartiteGraph, source: dict) -> tuple[str, int]:
        cfg = self.config
        # the per-root costs, computed once, drive every plan knob: how
        # many slices to cut, where to cut them, and how long an in-flight
        # slice may run before it counts as a straggler
        costs = root_cost_estimates(graph, cfg.order, seed=cfg.seed)
        n_roots = len(costs)
        if cfg.straggler_factor == "auto":
            self._straggler_factor = recommend_straggler_factor(costs)
        elif cfg.straggler_factor is not None:
            self._straggler_factor = float(cfg.straggler_factor)
        fingerprint = self._job_fingerprint(source, n_roots)
        plan = self.journal.recovered_plan
        if plan is not None:
            if plan.get("fingerprint") != fingerprint:
                raise ClusterError(
                    f"{self.journal.path}: journal belongs to a different "
                    f"job (fingerprint {plan.get('fingerprint')!r} != "
                    f"{fingerprint!r}); use a fresh --state-dir"
                )
            specs = [SliceSpec.from_dict(d) for d in plan["slices"]]
        else:
            n_slices = cfg.n_slices or recommend_slices(
                len(cfg.workers), costs, cfg.poll_interval
            )
            source_fields = {
                k: source.get(k)
                for k in ("dataset", "graph_path", "edges")
                if source.get(k) is not None
            }
            from repro.artifacts import graph_key as _graph_key

            specs = plan_slices(
                graph,
                n_slices,
                source_fields,
                order=cfg.order,
                seed=cfg.seed,
                fmt=source.get("fmt", "auto"),
                min_left=cfg.min_left,
                min_right=cfg.min_right,
                costs=costs,
                engine_options=dict(cfg.engine_options),
                faults=cfg.faults,
                graph_key=_graph_key(graph),
            )
            self.journal.record_plan(
                fingerprint, n_roots, [s.as_dict() for s in specs]
            )
        for spec in specs:
            self._slices[spec.slice_id] = _SliceState(spec=spec)
            self._slice_event("planned")
        self._coverage = RangeCoverage(n_roots)
        if plan is not None:
            self._replay_events()
        return fingerprint, n_roots

    def _spool_path(self, slice_id: str) -> str:
        return os.path.join(self.slices_dir, f"{slice_id}.tsv")

    def _replay_events(self) -> None:
        """Re-apply journaled slice events after a coordinator restart."""
        resumed = 0
        for ev in self.journal.recovered_events:
            if ev.get("type") != "slice":
                continue
            slice_id = ev.get("slice_id")
            event = ev.get("event")
            if event == "resplit":
                parent = self._slices.get(slice_id)
                for child_dict in ev.get("children") or ():
                    child = SliceSpec.from_dict(child_dict)
                    self._slices.setdefault(
                        child.slice_id, _SliceState(spec=child)
                    )
                if parent is not None:
                    # a parent that was in-flight at crash time keeps
                    # racing its children (at-least-once), but must not
                    # be re-split a second time
                    parent.resplit = True
                    if parent.status == "pending":
                        parent.status = "superseded"
                continue
            state = self._slices.get(slice_id)
            if state is None:
                continue
            if event == "dispatched":
                state.attempts += 1
                state.worker = ev.get("worker")
                state.job_id = ev.get("job_id")
                if state.status == "pending":
                    state.status = "inflight"
            elif event == "completed":
                spool = ev.get("spool") or self._spool_path(slice_id)
                data = self._read_spool(
                    spool, ev.get("count", 0), ev.get("bytes")
                )
                if data is None:
                    state.status = "pending"  # spool gone or damaged
                    continue
                accepted = self._accept_result(
                    state, data, ev.get("count", 0), journaled=True
                )
                if accepted:
                    resumed += 1
            elif event in ("lost", "failed"):
                if state.status == "inflight":
                    state.status = "pending"
            elif event == "slice_exhausted":
                # the budget verdict is durable: a restart must not hand
                # the slice a fresh set of lives
                state.status = "failed"
                state.why = (
                    f"retry budget exhausted after "
                    f"{ev.get('attempts')} attempts: {ev.get('why')}"
                )
            elif event == "discarded":
                if state.status not in ("completed",):
                    state.status = "discarded"
        # re-attach: inflight slices poll their last known worker job,
        # and must be registered in that worker's inflight set so
        # `_mark_dead` reclaims them if the owner never comes back (and
        # so `max_inflight_per_worker` accounting stays honest).
        # Anything unresolved goes back to pending immediately.
        for state in self._slices.values():
            if state.status != "inflight":
                continue
            if state.worker is None or state.job_id is None:
                state.status = "pending"
                continue
            worker = self._workers.get(state.worker)
            if worker is None:
                # last owner is no longer a configured worker: nothing
                # will ever poll that job, so re-dispatch elsewhere
                state.status = "pending"
                state.worker = None
                state.job_id = None
                continue
            worker.inflight.add(state.spec.slice_id)
        if resumed:
            self.registry.counter(
                "cluster_slices_resumed_total",
                "completed slices restored from the journal on restart",
            ).inc(resumed)
            print(
                f"cluster: resumed {resumed} completed slice(s) from "
                f"{self.journal.path}",
                flush=True,
            )

    @staticmethod
    def _read_spool(
        spool: str, count: int, nbytes: int | None
    ) -> bytes | None:
        """A journaled slice's spooled bytes, or None when the spool is
        missing, not ``nbytes`` long, or not ``count`` whole lines."""
        try:
            if nbytes is not None and os.path.getsize(spool) != nbytes:
                return None
            with open(spool, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        return data if _whole_lines(data, count) else None

    def _accept_result(
        self,
        state: _SliceState,
        data: bytes,
        count: int,
        journaled: bool = False,
        elapsed: float | None = None,
    ) -> bool:
        """Run one slice result through the exactly-once merge.

        ``data`` is the slice's result-file bytes, ``count`` whole
        lines: fetched live from the worker, or read back from the spool
        a journaled ``completed`` record names (``journaled=True``).
        Returns True when the range was accepted.
        """
        assert self._coverage is not None
        spec = state.spec
        if not self._coverage.add(spec.lo, spec.hi):
            state.status = "discarded"
            self._slice_event("discarded")
            self.registry.counter(
                "cluster_merge_duplicates_total",
                "slice results discarded by the exactly-once merge",
            ).inc()
            if not journaled:
                self.journal.record_slice(
                    "discarded", spec.slice_id, lo=spec.lo, hi=spec.hi
                )
            return False
        state.status = "completed"
        self._count += count
        if self.config.collect:
            self._chunks.append(data)
        if elapsed is not None:
            self._durations.append(elapsed)
        self._slice_event("completed")
        self.registry.counter(
            "cluster_merge_bicliques_total", "bicliques accepted into the merge"
        ).inc(count)
        if not journaled:
            spool = self._spool_path(spec.slice_id)
            try:
                # one write, one flush: a torn spool is shorter than the
                # byte length journaled below, which replay checks
                with chaos_fs.open(spool, "wb") as handle:
                    handle.write(data)
                    handle.flush()
            except OSError as exc:
                # the merge (RAM) already holds the result, so this run
                # stays correct; but a partial spool must not back a
                # ``completed`` journal record — drop both, and a
                # restarted coordinator simply re-runs the slice
                self._discard_spool(spool)
                self.registry.counter(
                    "cluster_spool_write_errors_total",
                    "slice result spools that failed to persist",
                ).inc()
                print(
                    f"cluster: could not persist spool for slice "
                    f"{spec.slice_id} ({exc}); result held in RAM only",
                    flush=True,
                )
                return True
            self.journal.record_slice(
                "completed", spec.slice_id,
                lo=spec.lo, hi=spec.hi, count=count, bytes=len(data),
                spool=spool, worker=state.worker,
                elapsed=round(elapsed or 0.0, 6),
            )
        return True

    @staticmethod
    def _discard_spool(spool: str) -> None:
        try:
            os.remove(spool)
        except OSError:
            pass

    # -- worker liveness ---------------------------------------------------

    def _mark_dead(self, worker: _WorkerState, why: str) -> None:
        if worker.alive:
            worker.alive = False
            worker.dead_since = time.monotonic()
            self.registry.counter(
                "cluster_worker_deaths_total",
                "workers declared dead by heartbeating",
            ).inc()
            print(f"cluster: worker {worker.url} declared dead ({why})",
                  flush=True)
        for slice_id in sorted(worker.inflight):
            state = self._slices.get(slice_id)
            if state is None or state.status != "inflight":
                continue
            if state.attempts > self.config.max_slice_retries:
                # a flapping worker must not grant a slice infinite
                # lives: losses spend the same budget as failures
                self._exhaust_slice(state, f"worker lost: {why}")
                continue
            state.status = "pending"
            state.why = f"worker lost: {why}"
            state.not_before = self._backoff_gate(state.attempts)
            self._slice_event("lost")
            self.journal.record_slice(
                "lost", slice_id, worker=worker.url, why=why
            )
        worker.inflight.clear()

    def _exhaust_slice(self, state: _SliceState, why: str) -> None:
        """Retire a slice that has spent its per-slice retry budget.

        Journaled as a structured ``slice_exhausted`` record (attempt
        count included) so a restarted coordinator — and anyone reading
        the journal — sees *why* the range is missing instead of
        watching it retry forever against a flapping worker.
        """
        state.status = "failed"
        state.why = (
            f"retry budget exhausted after {state.attempts} attempts: {why}"
        )
        self._slice_event("exhausted")
        self.registry.counter(
            "cluster_slices_exhausted_total",
            "slices retired after spending their retry budget",
        ).inc()
        self.journal.record_slice(
            "slice_exhausted", state.spec.slice_id,
            attempts=state.attempts, why=why,
        )
        print(
            f"cluster: slice {state.spec.slice_id} "
            f"[{state.spec.lo},{state.spec.hi}) exhausted its retry "
            f"budget ({state.attempts} attempts): {why}",
            flush=True,
        )

    def _heartbeat(self, now: float) -> None:
        for worker in self._workers.values():
            try:
                ok = worker.client.healthy()
            except WorkerUnreachable as exc:
                self.registry.counter(
                    "cluster_heartbeat_failures_total",
                    "failed worker heartbeat probes",
                ).inc()
                if exc.refused or now - worker.last_ok > \
                        self.config.heartbeat_timeout:
                    self._mark_dead(worker, exc.why)
                continue
            if ok:
                if not worker.alive:
                    print(f"cluster: worker {worker.url} is back",
                          flush=True)
                worker.alive = True
                worker.dead_since = None
                worker.last_ok = now
            elif now - worker.last_ok > self.config.heartbeat_timeout:
                self._mark_dead(worker, "unhealthy heartbeat")

    def _backoff_gate(self, attempts: int) -> float:
        cfg = self.config
        delay = cfg.retry_backoff * (2 ** max(0, attempts - 1))
        delay += self._rng.uniform(0, cfg.retry_jitter)
        return time.monotonic() + delay

    # -- dispatch / polling ------------------------------------------------

    def _pick_worker(self, state: _SliceState) -> _WorkerState | None:
        cfg = self.config
        candidates = [
            w for w in self._workers.values()
            if w.alive and len(w.inflight) < cfg.max_inflight_per_worker
        ]
        if not candidates:
            return None
        # after a failure, steer away from the worker that just failed us
        if state.why is not None and len(candidates) > 1:
            steered = [w for w in candidates if w.url != state.worker]
            if steered:
                candidates = steered
        elif state.worker is not None:
            # re-attach preference: worker-side idempotency makes
            # redelivery to the previous owner free
            for w in candidates:
                if w.url == state.worker:
                    return w
        return min(candidates, key=lambda w: (len(w.inflight), w.url))

    def _remaining(self, deadline: float | None) -> float | None:
        if deadline is None:
            return None
        return max(0.1, deadline - time.monotonic())

    def _dispatch(self, state: _SliceState, worker: _WorkerState,
                  deadline: float | None) -> None:
        spec = state.spec
        payload = spec.to_job_payload()
        payload["idempotency_key"] = (
            f"slice:{spec.fingerprint()}:a{state.attempts}"
        )
        remaining = self._remaining(deadline)
        if remaining is not None and (
            spec.time_limit is None or remaining < spec.time_limit
        ):
            payload["time_limit"] = round(remaining, 3)
        reassignment = state.attempts > 0
        overrides: dict[str, Any] = {
            "idempotency_key": payload["idempotency_key"],
        }
        if payload.get("time_limit") is not None:
            overrides["time_limit"] = payload["time_limit"]
        try:
            status, body = worker.client.request(
                "POST", "/slices",
                {
                    "slice": spec.as_dict(),
                    "coordinator": self.coordinator_id,
                    "job_overrides": overrides,
                },
            )
        except WorkerUnreachable as exc:
            if exc.refused:
                self._mark_dead(worker, exc.why)
            state.not_before = self._backoff_gate(state.attempts)
            return
        if status in (429, 503):
            retry_after = body.get("retry_after") or 1.0
            state.not_before = time.monotonic() + float(retry_after)
            return
        if status not in (200, 202):
            # permanent rejection (bad spec, cost gate, root mismatch)
            state.status = "failed"
            state.why = f"worker {worker.url} rejected slice: {status} {body}"
            self._slice_event("failed")
            self.journal.record_slice(
                "failed", spec.slice_id, worker=worker.url, why=state.why
            )
            return
        state.status = "inflight"
        state.worker = worker.url
        state.job_id = body["job_id"]
        state.attempts += 1
        state.dispatched_at = time.monotonic()
        state.why = None
        worker.inflight.add(spec.slice_id)
        self._slice_event("dispatched")
        if reassignment:
            self.registry.counter(
                "cluster_reassignments_total",
                "slices re-dispatched after loss or failure",
            ).inc()
        self.journal.record_slice(
            "dispatched", spec.slice_id,
            worker=worker.url, job_id=state.job_id, attempt=state.attempts,
        )

    def _slice_failed(self, state: _SliceState, why: str) -> None:
        """Retry / re-split / give up after one failed slice execution."""
        worker = self._workers.get(state.worker or "")
        if worker is not None:
            worker.inflight.discard(state.spec.slice_id)
        state.why = why
        self.journal.record_slice(
            "failed", state.spec.slice_id, worker=state.worker, why=why
        )
        self._slice_event("failed")
        if state.attempts > self.config.max_slice_retries:
            self._exhaust_slice(state, why)
            return
        # the executor's on-retry re-split, federated: a slice that
        # failed twice (budget, crashes) is halved before trying again
        if state.attempts >= 2 and not state.resplit:
            if self._resplit(state, reason=f"retry after: {why}"):
                # the worker job already failed terminally, so unlike a
                # straggler re-split there is no live parent racing the
                # children — retire it instead of re-dispatching it
                state.status = "superseded"
                return
        state.status = "pending"
        state.not_before = self._backoff_gate(state.attempts)

    def _resplit(self, state: _SliceState, reason: str) -> bool:
        children = state.spec.split()
        if not children:
            return False
        state.resplit = True
        state.status = (
            "superseded" if state.status != "inflight" else state.status
        )
        for child in children:
            # split() is deterministic, so a child may already exist
            # from a journal replay — never clobber its progress
            if child.slice_id not in self._slices:
                self._slices[child.slice_id] = _SliceState(spec=child)
                self._slice_event("planned")
        self._slice_event("resplit")
        self.journal.record_slice(
            "resplit", state.spec.slice_id,
            children=[c.as_dict() for c in children], why=reason,
        )
        print(
            f"cluster: re-split slice {state.spec.slice_id} "
            f"[{state.spec.lo},{state.spec.hi}) ({reason})",
            flush=True,
        )
        return True

    def _poll_inflight(self) -> None:
        for state in list(self._slices.values()):
            if state.status == "inflight":
                self._poll_slice(state)

    def _await_inflight(self, timeout: float) -> None:
        """Block up to ``timeout`` on one in-flight slice's worker job.

        The worker holds the status reply until that job ends, so a
        finished slice is merged at once instead of after a poll sleep.
        Sleeps out the rest of ``timeout`` when nothing ended (no slice
        in flight, a transport error, a worker that answers at once), so
        no iteration of :meth:`run`'s loop spins.
        """
        t0 = time.monotonic()
        inflight = [
            s for s in self._slices.values() if s.status == "inflight"
        ]
        if inflight and self._poll_slice(
            min(inflight, key=lambda s: s.dispatched_at), wait=timeout
        ):
            return
        rest = timeout - (time.monotonic() - t0)
        if rest > 0:
            time.sleep(rest)

    def _poll_slice(self, state: _SliceState, wait: float = 0.0) -> bool:
        """Poll one in-flight slice's worker job, merging it when done.

        Returns True when the slice left the in-flight state.
        """
        worker = self._workers.get(state.worker or "")
        if worker is None:
            state.status = "pending"
            return True
        try:
            status, body = worker.client.job_status(state.job_id, wait)
        except WorkerUnreachable as exc:
            if exc.refused:
                self._mark_dead(worker, exc.why)
            return False  # silent worker: heartbeats arbitrate
        worker.last_ok = time.monotonic()
        if status == 404:
            # worker lost its state (wiped state dir): redo the slice
            worker.inflight.discard(state.spec.slice_id)
            if state.attempts > self.config.max_slice_retries:
                self._exhaust_slice(state, "job vanished on worker")
                return True
            state.status = "pending"
            state.not_before = self._backoff_gate(state.attempts)
            self._slice_event("lost")
            self.journal.record_slice(
                "lost", state.spec.slice_id, worker=worker.url,
                why="job vanished on worker",
            )
            return True
        if status != 200:
            return False
        job_state = body.get("state")
        if job_state in _IN_FLIGHT_STATES:
            return False
        if job_state != "done":
            self._slice_failed(
                state,
                f"worker job {job_state}: {body.get('error') or ''}",
            )
            return True
        summary = body.get("summary") or {}
        if not summary.get("complete", False):
            self._slice_failed(
                state,
                f"worker returned an incomplete slice "
                f"(stopped: {summary.get('stopped')!r})",
            )
            return True
        try:
            status, data = worker.client.job_result_tsv(state.job_id)
        except WorkerUnreachable as exc:
            if exc.refused:
                self._mark_dead(worker, exc.why)
            return False
        if status != 200 or not isinstance(data, bytes):
            why = data.get("error") if isinstance(data, dict) else None
            self._slice_failed(state, f"result fetch failed ({status}: {why})")
            return True
        count = summary.get("count")
        if not _whole_lines(data, count):
            # a short or torn reply must not merge: retry the slice
            lines = data.count(b"\n")
            self._slice_failed(
                state,
                f"result holds {lines} lines, worker summary says {count}",
            )
            return True
        worker.inflight.discard(state.spec.slice_id)
        self._accept_result(
            state, data, count,
            elapsed=time.monotonic() - state.dispatched_at,
        )
        return True

    def _check_stragglers(self) -> None:
        cfg = self.config
        if self._straggler_factor is None:
            return
        if len(self._durations) < cfg.straggler_min_completed:
            return
        median = statistics.median(self._durations)
        limit = max(0.5, self._straggler_factor * median)
        now = time.monotonic()
        for state in list(self._slices.values()):
            if state.status != "inflight" or state.resplit:
                continue
            if now - state.dispatched_at <= limit:
                continue
            if self._resplit(
                state,
                reason=(
                    f"straggler: {now - state.dispatched_at:.1f}s "
                    f"> {limit:.1f}s"
                ),
            ):
                self.registry.counter(
                    "cluster_stragglers_total",
                    "in-flight slices re-split for running long",
                ).inc()

    # -- the run -----------------------------------------------------------

    def run(self, source: dict[str, Any]) -> ClusterResult:
        """Execute one federated job; never raises on worker failure.

        ``source`` names the graph the way a job spec does (``dataset`` /
        ``graph_path`` / ``edges`` plus optional ``fmt``).  Returns a
        partial result with ``complete=False`` when slices exhaust their
        retries, the budget expires, every worker stays dead, or
        :meth:`cancel` is called (graceful drain: unfinished slices stay
        journaled as unfinished and a restart re-dispatches them).
        """
        cfg = self.config
        start = time.monotonic()
        graph = self._load_graph(source)
        fingerprint, n_roots = self._plan(graph, source)
        deadline = (
            start + cfg.time_limit if cfg.time_limit is not None else None
        )
        for worker in self._workers.values():
            worker.last_ok = start
        stopped: str | None = None
        last_heartbeat = 0.0
        all_dead_since: float | None = None
        while True:
            if self._coverage.complete:
                break
            now = time.monotonic()
            if self._cancel.is_set():
                stopped = "cancelled"
                break
            if deadline is not None and now > deadline:
                stopped = "time_limit"
                break
            if now - last_heartbeat >= cfg.heartbeat_interval:
                self._heartbeat(now)
                last_heartbeat = now
            if any(w.alive for w in self._workers.values()):
                all_dead_since = None
            else:
                all_dead_since = all_dead_since or now
                if now - all_dead_since > cfg.all_dead_timeout:
                    stopped = "workers_lost"
                    break
            self._poll_inflight()
            if self._coverage.complete:
                break
            self._check_stragglers()
            dispatchable = [
                s for s in self._slices.values()
                if s.status == "pending" and now >= s.not_before
            ]
            dispatchable.sort(
                key=lambda s: (s.spec.lo - s.spec.hi, s.spec.slice_id)
            )
            for state in dispatchable:
                worker = self._pick_worker(state)
                if worker is None:
                    break
                self._dispatch(state, worker, deadline)
            live = [
                s for s in self._slices.values()
                if s.status in ("pending", "inflight")
            ]
            if not live:
                stopped = "slices_exhausted"
                break
            self._await_inflight(cfg.poll_interval)

        complete = self._coverage.complete
        if stopped == "cancelled":
            # graceful drain: best-effort cancel of in-flight worker
            # jobs; unfinished slices stay journaled as unfinished so a
            # restarted coordinator re-dispatches exactly them
            for state in self._slices.values():
                if state.status == "inflight" and state.job_id:
                    worker = self._workers.get(state.worker or "")
                    if worker is None:
                        continue
                    try:
                        worker.client.cancel_job(state.job_id)
                    except WorkerUnreachable:
                        pass
        elapsed = time.monotonic() - start
        failures = [
            {
                "slice_id": s.spec.slice_id,
                "range": [s.spec.lo, s.spec.hi],
                "attempts": s.attempts,
                "why": s.why,
            }
            for s in self._slices.values()
            if s.status == "failed"
        ]
        meta: dict[str, Any] = {
            "fingerprint": fingerprint,
            "n_roots": n_roots,
            "slices": len(self._slices),
            "completed_slices": sum(
                1 for s in self._slices.values() if s.status == "completed"
            ),
            "workers": {
                url: ("alive" if w.alive else "dead")
                for url, w in self._workers.items()
            },
            "coordinator_id": self.coordinator_id,
            "straggler_factor": self._straggler_factor,
        }
        if failures:
            meta["failures"] = failures
        if not complete:
            meta["missing_ranges"] = self._coverage.missing()
        if stopped:
            meta["stopped"] = stopped
        if complete:
            self.journal.record_terminal("done", count=self._count)
        elif stopped == "cancelled":
            self.journal.record_terminal("interrupted", count=self._count)
        else:
            self.journal.record_terminal(
                "failed", count=self._count, why=stopped
            )
        bicliques = None
        if cfg.collect:
            bicliques = []
            for chunk in self._chunks:
                bicliques.extend(parse_bicliques(chunk.decode("utf-8")))
            # the dataclass order, without its per-comparison call
            bicliques.sort(key=attrgetter("left", "right"))
        return ClusterResult(
            count=self._count,
            complete=complete,
            elapsed=elapsed,
            bicliques=bicliques,
            meta=meta,
        )

    def close(self) -> None:
        self.journal.close()
