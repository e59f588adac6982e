"""The embedded enumeration service: core + HTTP surface.

:class:`EnumerationService` owns the whole robustness stack
(``docs/serving.md``): the bounded queue with cost-aware admission
(:mod:`repro.serve.queue`), per-engine circuit breakers with a fallback
chain (:mod:`repro.serve.breaker`), the memory watchdog's degradation
ladder (:mod:`repro.serve.watchdog`), and the crash-safe job journal
(:mod:`repro.serve.journal`).  The HTTP layer on top is a thin
``http.server`` translation — everything is stdlib, nothing to deploy.

Crash safety contract: every accepted job is journaled before it is
queued, every state change is journaled as it happens, and a server
restarted against the same ``--state-dir`` re-enqueues any job whose
trail is non-terminal.  The parallel engine additionally resumes from
its per-job checkpoint file (a federated slice has one only when its
predicted engine time passes the checkpoint gate), so a kill -9
mid-enumeration costs only the unfinished subtrees — and because each
attempt truncates its spool, a resumed job reports the exact
maximal-biclique set with no duplicates.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import re
import signal
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro import datasets
from repro.artifacts import ArtifactStore, kinds
from repro.bigraph.graph import BipartiteGraph
from repro.core.base import ALGORITHMS, Biclique, run_mbe
from repro.core.io_results import biclique_line, read_bicliques
from repro.obs.metrics import MetricRegistry
from repro.obs.sinks import prometheus_text
from repro.plan import PLANNER_ENGINES, Plan, build_plan, root_cost_estimates
from repro.plan.planner import SECONDS_PER_WEDGE, SLICE_CHECKPOINT_SECONDS
from repro.runtime.budget import RunBudget
from repro.runtime.faults import FaultPlan
from repro.serve.breaker import (
    FALLBACK_CHAIN,
    STATE_CODES,
    BreakerOpen,
    BreakerRegistry,
)
from repro.serve.jobs import (
    RETIRED_ENGINES,
    TERMINAL_STATES,
    Job,
    JobSpec,
    JobValidationError,
    new_job_id,
)
from repro.serve.journal import JobJournal
from repro.serve.queue import AdmissionError, BoundedJobQueue
from repro.serve.watchdog import DegradableCollector, MemoryWatchdog

__all__ = ["EnumerationService", "ServiceConfig", "make_http_server",
           "run_server"]

#: The parallel engine keeps worker state in a module global, so at most
#: one parallel run may execute per process at a time.
_PARALLEL_LOCK = threading.Lock()

#: Decoded graphs kept in RAM above the artifact store (graphs are
#: immutable and shared freely across threads).
GRAPH_CACHE_SLOTS = 8

#: Longest a ``GET /jobs/<id>`` may be held waiting for the job to end;
#: a longer requested ``wait`` is cut to this.
MAX_STATUS_WAIT_S = 10.0

#: Media type of a result served as result-file lines
#: (:mod:`repro.core.io_results`).
TSV_CONTENT_TYPE = "text/tab-separated-values; charset=utf-8"


def _is_slice(spec: JobSpec) -> bool:
    """A root-range job: a federated slice (:mod:`repro.cluster`)."""
    return spec.engine_options.get("root_range") is not None


def _wants_checkpoint(spec: JobSpec, graph: BipartiteGraph) -> bool:
    """Whether a checkpoint-capable job gets its per-job checkpoint.

    Every job does but a short slice: one whose root wedges predict at
    most :data:`~repro.plan.planner.SLICE_CHECKPOINT_SECONDS` of engine
    time re-runs whole after a kill instead of paying per-root records.
    """
    if not _is_slice(spec):
        return True
    options = spec.engine_options
    try:
        lo, hi = options["root_range"]
        costs = root_cost_estimates(
            graph, options.get("order", "degree"), seed=options.get("seed", 0)
        )
        wedges = sum(costs[lo:hi])
    except (TypeError, ValueError):
        return True  # malformed options: the engine rejects them itself
    return wedges * SECONDS_PER_WEDGE > SLICE_CHECKPOINT_SECONDS


class JobNotFound(KeyError):
    """Unknown job id (HTTP 404)."""


class JobNotFinished(Exception):
    """Result requested before the job reached a terminal state (409)."""


class ResultsUnavailable(Exception):
    """A finished job whose bicliques were not kept (410)."""


@dataclass
class ServiceConfig:
    """Tunables of one service instance (all have serving-safe defaults)."""

    state_dir: str
    workers: int = 2
    max_queue_depth: int = 16
    #: admission cost ceiling (``estimate_cost`` units); None = unbounded
    max_cost: int | None = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: memory watchdog limits (bytes); None disables the RSS trips
    soft_limit_bytes: int | None = None
    hard_limit_bytes: int | None = None
    max_in_ram: int = 200_000
    max_spool_bytes: int = 256 * 1024 * 1024
    #: budget applied to jobs that do not set their own time limit
    default_time_limit: float | None = None
    drain_timeout: float = 10.0
    #: honour ``faults`` in job specs (chaos testing only)
    allow_faults: bool = False
    #: fallback policy: None (default) ranks fallback engines with the
    #: cost-model planner per job, composed with live breaker state; an
    #: explicit tuple pins a fixed chain instead (``()`` disables
    #: fallback entirely)
    fallback: tuple | None = None
    #: Retry-After issued before any job duration has been observed
    default_retry_after: float = 5.0
    #: journal compaction triggers (None = that trigger disabled)
    journal_max_bytes: int | None = 4 * 1024 * 1024
    journal_max_terminal: int | None = 500
    journal_max_age: float | None = None
    #: artifact store location (None = ``<state_dir>/artifacts``) and
    #: size budget; the store holds parsed graphs, cost estimates, root
    #: counts, and completed results shared across server lives
    artifacts_dir: str | None = None
    artifacts_max_bytes: int | None = 256 * 1024 * 1024
    #: answer repeat jobs from cached complete results (journaled as
    #: ``cache_hit``); False re-runs every submit
    result_cache: bool = True


class EnumerationService:
    """Queue, workers, breakers, watchdog, journal — the service core."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.jobs_dir = os.path.join(config.state_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)

        self.registry = MetricRegistry()
        self._jobs_counter = lambda state: self.registry.counter(
            "serve_jobs_total", "job lifecycle events",
            labels={"event": state},
        )
        self.queue = BoundedJobQueue(
            max_depth=config.max_queue_depth,
            default_retry_after=config.default_retry_after,
        )
        self.breakers = BreakerRegistry(
            failure_threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
            chain=config.fallback if config.fallback is not None else (),
            on_transition=self._on_breaker_transition,
        )
        # eager registration so /metrics always exposes the plan_*
        # families (the CI plan-smoke parses them back), even before the
        # first planned job arrives
        for engine in PLANNER_ENGINES:
            self.registry.counter(
                "plan_decisions_total",
                "jobs whose execution chain was headed by this engine",
                labels={"engine": engine},
            )
            self.registry.counter(
                "plan_mispredictions_total",
                "jobs whose wall clock exceeded 2x the planner prediction",
                labels={"engine": engine},
            )
        self.journal = JobJournal(
            os.path.join(config.state_dir, "journal.jsonl"),
            compact_max_bytes=config.journal_max_bytes,
            max_terminal=config.journal_max_terminal,
            compact_max_age=config.journal_max_age,
        )

        #: the on-disk artifact store: parsed graphs, cost estimates,
        #: root counts and completed results, shared across server lives
        #: and with every other entry point (docs/artifacts.md); cost and
        #: root-count caching is thereby centrally size-bounded instead
        #: of growing per-dataset dicts without limit
        self.store = ArtifactStore(
            config.artifacts_dir
            or os.path.join(config.state_dir, "artifacts"),
            max_bytes=config.artifacts_max_bytes,
            registry=self.registry,
        )

        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._results: dict[str, list[Biclique]] = {}
        self._cancel_events: dict[str, threading.Event] = {}
        #: notified after a job leaves the running set (done, failed,
        #: cancelled) and when the service drains: wakes status waits
        self._job_ended = threading.Condition()
        self._idempotency: dict[str, str] = {}
        #: decoded-graph RAM layer above the store: admission (submit /
        #: submit_slice) and execution would otherwise re-decode the CSR
        #: payload on every request — inside the HTTP handler thread,
        #: that can blow past a coordinator's request timeout on large
        #: graphs.  Values are ``(graph, graph_key)``.
        self._graph_cache: dict[tuple, tuple[BipartiteGraph, str]] = {}
        self._graph_cache_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = False
        #: federation bookkeeping: coordinators seen and slices accepted
        self._coordinators: dict[str, float] = {}
        self._slices: dict[str, dict[str, Any]] = {}

        self._recover()

    # -- observability -----------------------------------------------------

    def _on_breaker_transition(self, engine: str, _frm: str, to: str) -> None:
        self.registry.counter(
            "serve_breaker_transitions_total",
            "circuit breaker state transitions",
            labels={"engine": engine, "to": to},
        ).inc()

    def metrics_text(self) -> str:
        """Render the service registry as Prometheus text exposition."""
        self.registry.gauge(
            "serve_queue_depth", "jobs waiting in the admission queue"
        ).set(self.queue.depth)
        for engine, state in self.breakers.states().items():
            self.registry.gauge(
                "serve_breaker_state",
                "breaker state (0=closed, 1=half_open, 2=open)",
                labels={"engine": engine},
            ).set(STATE_CODES[state])
        return prometheus_text(self.registry)

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild state from the journal of a previous server life."""
        self._idempotency = self.journal.idempotency_index()
        # terminal jobs: restore enough state to answer status queries
        for job_id, entry in self.journal.recovered.items():
            event = entry.get("event")
            # a cache_hit job finished the moment it was admitted: it is
            # terminal (state "done"), never resumed
            if (
                event not in TERMINAL_STATES and event != "cache_hit"
            ) or "spec" not in entry:
                continue
            job = Job(
                job_id=job_id,
                spec=JobSpec.from_dict(entry["spec"]),
                state="done" if event == "cache_hit" else event,
                summary=entry.get("summary") or {},
                error=entry.get("error"),
                recovered=True,
            )
            self._jobs[job_id] = job
        # in-flight jobs: re-enqueue, bypassing the depth gate
        for job in self.journal.resumable_jobs():
            self._jobs[job.job_id] = job
            self._cancel_events[job.job_id] = threading.Event()
            self.queue.put_recovered(job)
            self._journal_safe(job, "interrupted")
            self._jobs_counter("recovered").inc()

    def _journal_safe(self, job: Job, event: str, **fields: Any) -> None:
        """Journal a post-admission state change, surviving a failing disk.

        Admission-path writes raise (the client gets a 503 + Retry-After
        and can resubmit); once a job is admitted the worker pool must
        keep draining even with the journal gone — what is lost is only
        restart fidelity for this one transition, which is exactly the
        trade the durability contract allows.
        """
        try:
            self.journal.record_event(job, event, **fields)
        except OSError as exc:
            self.registry.counter(
                "serve_journal_write_failures_total",
                "post-admission journal appends that failed",
                labels={"event": event},
            ).inc()
            print(
                f"serve: journal write failed for job {job.job_id} "
                f"({event}): {exc}; continuing without durability",
                flush=True,
            )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool."""
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def drain(self, timeout: float | None = None) -> None:
        """Stop admitting, finish running jobs, journal the rest.

        Jobs still queued (or still running after ``timeout``) are
        journaled ``interrupted`` so the next server life resumes them.
        """
        timeout = self.config.drain_timeout if timeout is None else timeout
        self._draining = True
        self._notify_job_ended()
        self._stop.set()
        self.queue.close()
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
        # anything still running is out of grace: cancel cooperatively
        with self._lock:
            events = list(self._cancel_events.values())
        for event in events:
            event.set()
        for t in self._threads:
            t.join(timeout=5.0)
        with self._lock:
            pending = [
                j for j in self._jobs.values()
                if j.state not in TERMINAL_STATES
            ]
        for job in pending:
            self._journal_safe(job, "interrupted")
            job.state = "interrupted"
        self.journal.close()

    @property
    def ready(self) -> bool:
        return not self._draining

    # -- submission --------------------------------------------------------

    def submit(self, payload: Any) -> tuple[Job, bool]:
        """Admit one job; returns ``(job, deduplicated)``.

        Raises :class:`JobValidationError` (400) on a bad spec and
        :class:`AdmissionError` (413 / 429 / 503) on a refused one.
        """
        spec = JobSpec.from_dict(payload)
        if spec.faults and not self.config.allow_faults:
            raise JobValidationError(
                "fault injection is disabled (server runs without "
                "--allow-faults)"
            )
        if spec.engine not in ALGORITHMS and spec.engine not in RETIRED_ENGINES:
            raise JobValidationError(
                f"unknown engine {spec.engine!r}; "
                f"available: {sorted(ALGORITHMS)}"
            )
        if spec.idempotency_key:
            with self._lock:
                known = self._idempotency.get(spec.idempotency_key)
                if known is not None and known in self._jobs:
                    return self._jobs[known], True
        graph, graph_key = self._resolve_graph(spec)
        self._admit_cost(spec, graph, graph_key)

        cached = self._probe_result_cache(spec, graph_key)
        if cached is not None:
            return self._admit_cache_hit(spec, graph_key, cached), False

        job = Job(
            job_id=new_job_id(), spec=spec, submitted_at=time.time()
        )
        with self._lock:
            if self._draining:
                raise AdmissionError(
                    status=503, reason="draining",
                    detail="server is draining; not admitting new jobs",
                )
            self._jobs[job.job_id] = job
            self._cancel_events[job.job_id] = threading.Event()
            if spec.idempotency_key:
                self._idempotency[spec.idempotency_key] = job.job_id
        try:
            self.journal.record_event(job, "submitted")
        except OSError as exc:
            # the durability contract ("journaled before queued") cannot
            # be met, so the admission is refused outright: 503 with a
            # Retry-After beats a 500 whose job silently lacks a trail
            self._rollback_admission(job)
            self.registry.counter(
                "serve_rejections_total", "refused submits",
                labels={"reason": "journal_unavailable"},
            ).inc()
            raise AdmissionError(
                status=503, reason="journal_unavailable",
                detail=(
                    f"cannot journal the admission ({exc}); "
                    f"retry shortly"
                ),
                retry_after=self.config.default_retry_after,
            ) from exc
        try:
            self.queue.put(job)
        except AdmissionError:
            self._journal_safe(job, "rejected")
            with self._lock:
                self._jobs.pop(job.job_id, None)
                self._cancel_events.pop(job.job_id, None)
                if spec.idempotency_key:
                    self._idempotency.pop(spec.idempotency_key, None)
            self.registry.counter(
                "serve_rejections_total", "refused submits",
                labels={"reason": "queue_full"},
            ).inc()
            raise
        self._jobs_counter("submitted").inc()
        return job, False

    def _rollback_admission(self, job: Job) -> None:
        """Forget a job whose admission could not be journaled."""
        with self._lock:
            self._jobs.pop(job.job_id, None)
            self._cancel_events.pop(job.job_id, None)
            self._results.pop(job.job_id, None)
            if job.spec.idempotency_key:
                self._idempotency.pop(job.spec.idempotency_key, None)

    def _graph_cache_key(self, spec: JobSpec) -> tuple | None:
        """Cache identity of one resolved graph (None = don't cache).

        Datasets are immutable under their name; files are keyed by
        path + mtime + size so an edited edge list never serves stale
        structure.  Inline edge lists are cheap to rebuild: no cache.
        """
        if spec.dataset is not None:
            return ("dataset", spec.dataset)
        if spec.graph_path is not None:
            try:
                st = os.stat(spec.graph_path)
            except OSError:
                return None
            return (
                "path", os.path.abspath(spec.graph_path), spec.fmt,
                st.st_mtime_ns, st.st_size,
            )
        return None

    def _purge_stale_graph_entries(self, key: tuple) -> None:
        """Drop RAM graph-cache entries for ``key``'s path whose
        mtime/size no longer matches disk (the file was edited: the old
        version will never be requested again, so holding its decoded
        graph until LRU turnover is pure waste).  Caller holds the
        graph-cache lock."""
        if key[0] != "path":
            return
        stale = [
            k for k in self._graph_cache
            if k[0] == "path" and k[1] == key[1] and k != key
        ]
        for k in stale:
            self._graph_cache.pop(k, None)

    def _resolve_graph(self, spec: JobSpec) -> tuple[BipartiteGraph, str]:
        """Resolve ``spec``'s graph; returns ``(graph, graph_key)``.

        Layered: the bounded RAM dict holds decoded graphs for request
        hot paths; beneath it the artifact store persists the parsed CSR
        so even a fresh process never re-parses an unchanged file.
        """
        key = self._graph_cache_key(spec)
        if key is not None:
            with self._graph_cache_lock:
                self._purge_stale_graph_entries(key)
                cached = self._graph_cache.get(key)
            if cached is not None:
                return cached
        if spec.dataset is not None:
            if spec.dataset not in datasets.names():
                raise JobValidationError(
                    f"unknown dataset {spec.dataset!r}"
                )
            graph = datasets.load(spec.dataset)
            gk = kinds.graph_key(graph)
        elif spec.graph_path is not None:
            if not os.path.exists(spec.graph_path):
                raise JobValidationError(
                    f"graph_path does not exist: {spec.graph_path}"
                )
            graph, gk, _cached = kinds.load_graph_cached(
                spec.graph_path, self.store, fmt=spec.fmt
            )
        else:
            graph = BipartiteGraph([tuple(e) for e in spec.edges or ()])
            return graph, kinds.graph_key(graph)
        if key is not None:
            with self._graph_cache_lock:
                while len(self._graph_cache) >= GRAPH_CACHE_SLOTS:
                    self._graph_cache.pop(next(iter(self._graph_cache)))
                self._graph_cache[key] = (graph, gk)
        return graph, gk

    def _admit_cost(self, spec: JobSpec, graph: BipartiteGraph,
                    graph_key: str) -> None:
        if self.config.max_cost is None:
            return
        # persisted + size-bounded through the store (the old in-RAM
        # per-dataset dict grew without limit and started cold each life)
        cost = kinds.cached_cost(self.store, graph_key, graph)
        if cost > self.config.max_cost:
            self.registry.counter(
                "serve_rejections_total", "refused submits",
                labels={"reason": "cost"},
            ).inc()
            raise AdmissionError(
                status=413, reason="over_cost",
                detail=(
                    f"estimated cost {cost:,} exceeds the admission "
                    f"ceiling {self.config.max_cost:,}; reduce the graph "
                    f"or raise --max-cost"
                ),
            )

    # -- result cache ------------------------------------------------------

    @staticmethod
    def _result_fingerprint(spec: JobSpec) -> str:
        return kinds.result_fingerprint(
            spec.engine, spec.min_left, spec.min_right, spec.engine_options
        )

    def _probe_result_cache(
        self, spec: JobSpec, graph_key: str
    ) -> dict[str, Any] | None:
        """A cached complete answer for this spec, or None.

        Only unconstrained-count jobs are answerable: ``max_bicliques``
        / ``max_nodes`` ask for a possibly-truncated enumeration, which
        a complete result is *not* (a ``time_limit`` is just a deadline,
        which an instant answer trivially meets).  Fault-injection jobs
        exist to exercise the failure path and must actually run.  Slices
        are never cached (:meth:`_finish_job`), so never probed.
        """
        if not self.config.result_cache or spec.faults or _is_slice(spec):
            return None
        if spec.max_bicliques is not None or spec.max_nodes is not None:
            return None
        return kinds.get_cached_result(
            self.store, graph_key, self._result_fingerprint(spec),
            need_bicliques=spec.collect,
        )

    def _admit_cache_hit(
        self, spec: JobSpec, graph_key: str, cached: dict[str, Any]
    ) -> Job:
        """Admit a job already answered by the result cache.

        The job is born terminal: journaled ``submitted`` then
        ``cache_hit`` (terminal on replay, so a restarted server serves
        the same answer), results staged for ``GET /jobs/<id>/result``.
        """
        now = time.time()
        job = Job(
            job_id=new_job_id(), spec=spec, submitted_at=now,
            started_at=now, finished_at=now, state="done",
        )
        job.summary = {
            "engine": cached["engine"],
            "count": cached["count"],
            "complete": True,
            "elapsed": 0.0,
            "cache_hit": True,
            "source_elapsed": cached["elapsed"],
            "results": {"mode": "cache", "count": cached["count"]},
        }
        with self._lock:
            if self._draining:
                raise AdmissionError(
                    status=503, reason="draining",
                    detail="server is draining; not admitting new jobs",
                )
            self._jobs[job.job_id] = job
            if spec.idempotency_key:
                self._idempotency[spec.idempotency_key] = job.job_id
            if spec.collect and cached.get("bicliques") is not None:
                self._results[job.job_id] = [
                    Biclique.make(left, right)
                    for left, right in cached["bicliques"]
                ]
        try:
            self.journal.record_event(job, "submitted")
            self.journal.record_event(job, "cache_hit", summary=job.summary)
        except OSError as exc:
            self._rollback_admission(job)
            self.registry.counter(
                "serve_rejections_total", "refused submits",
                labels={"reason": "journal_unavailable"},
            ).inc()
            raise AdmissionError(
                status=503, reason="journal_unavailable",
                detail=(
                    f"cannot journal the admission ({exc}); "
                    f"retry shortly"
                ),
                retry_after=self.config.default_retry_after,
            ) from exc
        self._jobs_counter("submitted").inc()
        self._jobs_counter("cache_hit").inc()
        return job

    # -- queries -----------------------------------------------------------

    def status(self, job_id: str, wait: float = 0.0) -> dict[str, Any]:
        """The job's status; ``wait`` > 0 holds the reply until the job
        reaches a terminal state, the service drains, or ``wait``
        seconds (at most :data:`MAX_STATUS_WAIT_S`) pass."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        wait = min(wait, MAX_STATUS_WAIT_S)
        if wait > 0:
            with self._job_ended:
                self._job_ended.wait_for(
                    lambda: job.state in TERMINAL_STATES or self._draining,
                    wait,
                )
        return job.status_payload()

    def list_jobs(self) -> list[dict[str, Any]]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.submitted_at)
        return [j.status_payload() for j in jobs]

    def _finished(self, job_id: str) -> tuple[Job, list[Biclique] | None]:
        """A finished job and its RAM results (None when not in RAM)."""
        with self._lock:
            job = self._jobs.get(job_id)
            ram = self._results.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        if job.state not in TERMINAL_STATES and job.state != "interrupted":
            raise JobNotFinished(job.state)
        return job, ram

    def _cached_pairs(self, spec: JobSpec) -> list | None:
        """A cache-hit job's ``[left, right]`` pairs from the artifact
        store (they survive restarts), or None when gone."""
        try:
            _graph, gk = self._resolve_graph(spec)
            cached = kinds.get_cached_result(
                self.store, gk, self._result_fingerprint(spec),
                need_bicliques=True,
            )
        except Exception:  # noqa: BLE001 - missing file, etc.
            return None
        return None if cached is None else cached["bicliques"]

    def result(self, job_id: str) -> dict[str, Any]:
        """Terminal job's outcome, including bicliques when stored."""
        job, ram = self._finished(job_id)
        payload = job.status_payload()
        stored = job.summary.get("results", {})
        if ram is not None:
            payload["bicliques"] = [
                [list(b.left), list(b.right)] for b in ram
            ]
        elif stored.get("mode") == "cache" and job.spec.collect:
            # rehydrate instead of declaring the results lost
            pairs = self._cached_pairs(job.spec)
            if pairs is not None:
                payload["bicliques"] = pairs
            else:
                payload["results_available"] = False
        elif stored.get("mode") == "spool":
            spool = stored.get("spool_path")
            if spool and os.path.exists(spool):
                payload["bicliques"] = [
                    [list(b.left), list(b.right)]
                    for b in read_bicliques(spool, tolerate_torn_tail=True)
                ]
            else:
                payload["results_available"] = False
        elif job.spec.collect and job.recovered:
            # RAM results do not survive a restart
            payload["results_available"] = False
        return payload

    def result_tsv(self, job_id: str) -> bytes:
        """A finished job's bicliques as result-file lines.

        The bytes come from RAM, from the result cache, or from the
        job's spool (read as written, less any torn final line).  Raises
        :class:`ResultsUnavailable` when none of them holds the result.
        """
        job, ram = self._finished(job_id)
        stored = job.summary.get("results", {})
        pairs = None
        if ram is not None:
            pairs = [(b.left, b.right) for b in ram]
        elif stored.get("mode") == "cache" and job.spec.collect:
            pairs = self._cached_pairs(job.spec)
        elif stored.get("mode") == "spool":
            spool = stored.get("spool_path")
            if spool and os.path.exists(spool):
                with open(spool, "rb") as handle:
                    data = handle.read()
                return data[: data.rfind(b"\n") + 1]
        if pairs is None:
            raise ResultsUnavailable(job_id)
        return "".join(
            [biclique_line(left, right) for left, right in pairs]
        ).encode()

    def cancel(self, job_id: str) -> dict[str, Any]:
        with self._lock:
            job = self._jobs.get(job_id)
            event = self._cancel_events.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        if job.state in TERMINAL_STATES:
            return job.status_payload()
        removed = self.queue.remove(job_id)
        if removed is not None:
            job.state = "cancelled"
            job.finished_at = time.time()
            self._journal_safe(job, "cancelled")
            self._jobs_counter("cancelled").inc()
            self._notify_job_ended()
        elif event is not None:
            job.cancel_requested = True
            event.set()
        return job.status_payload()

    # -- federation (cluster worker surface) -------------------------------

    def register_coordinator(self, payload: Any) -> dict[str, Any]:
        """Record a coordinator announcing itself (``POST /cluster/register``)."""
        if not isinstance(payload, dict) or not isinstance(
            payload.get("coordinator"), str
        ) or not payload["coordinator"]:
            raise JobValidationError(
                "registration requires a non-empty 'coordinator' id"
            )
        with self._lock:
            self._coordinators[payload["coordinator"]] = time.time()
        self.registry.counter(
            "serve_cluster_registrations_total",
            "coordinator registrations received",
        ).inc()
        return {"registered": payload["coordinator"], "worker_ready": self.ready}

    def cluster_info(self) -> dict[str, Any]:
        """The ``GET /cluster`` body: who we serve and what we hold."""
        with self._lock:
            coordinators = dict(self._coordinators)
            slices = [dict(info) for info in self._slices.values()]
        return {
            "coordinators": coordinators,
            "slices": slices,
            "ready": self.ready,
        }

    def list_slices(self) -> list[dict[str, Any]]:
        with self._lock:
            out = [dict(info) for info in self._slices.values()]
        out.sort(key=lambda d: d.get("accepted_at", 0.0))
        return out

    def submit_slice(self, payload: Any) -> tuple[Job, bool]:
        """Admit one federated slice (``POST /slices``).

        Validates the :class:`~repro.cluster.slices.SliceSpec`, then
        guards the federation's core invariant: the worker's addressable
        root space for ``(order, seed)`` must be *exactly* the
        coordinator's (same list length), else the slice's ``[lo, hi)``
        indices would select different roots here and the merged result
        would silently be wrong.  Mismatches are permanent 400s — the
        coordinator must not retry them elsewhere-blindly.
        """
        from repro.cluster.slices import SliceSpec

        if not isinstance(payload, dict) or "slice" not in payload:
            raise JobValidationError(
                "body must be an object with a 'slice' spec"
            )
        spec = SliceSpec.from_dict(payload["slice"])
        coordinator = payload.get("coordinator")
        overrides = payload.get("job_overrides") or {}
        if not isinstance(overrides, dict):
            raise JobValidationError("job_overrides must be an object")
        unknown = set(overrides) - {"idempotency_key", "time_limit"}
        if unknown:
            raise JobValidationError(
                f"unsupported job_overrides: {sorted(unknown)}"
            )
        job_payload = spec.to_job_payload()
        job_payload.update(overrides)
        # identity + root-space guards: resolve the graph the same way
        # the job executor will, then (1) compare content hashes when the
        # coordinator shipped one — stronger than any count heuristic —
        # and (2) compare addressable-root counts; both persisted through
        # the artifact store so retried / deduplicated submissions don't
        # re-read the graph or re-order its roots inside the HTTP
        # handler thread every time
        job_spec = JobSpec.from_dict(job_payload)
        graph, local_key = self._resolve_graph(job_spec)
        if spec.graph_key is not None and spec.graph_key != local_key:
            self.registry.counter(
                "serve_slices_total", "federated slice submissions",
                labels={"event": "graph_mismatch"},
            ).inc()
            raise JobValidationError(
                f"graph content mismatch: worker resolved graph "
                f"{local_key[:12]}…, slice was planned against "
                f"{spec.graph_key[:12]}… (differing graph versions?)"
            )
        local_roots = kinds.cached_root_count(
            self.store, local_key, graph, order=spec.order, seed=spec.seed
        )
        if local_roots != spec.n_roots:
            self.registry.counter(
                "serve_slices_total", "federated slice submissions",
                labels={"event": "root_mismatch"},
            ).inc()
            raise JobValidationError(
                f"root space mismatch: worker sees {local_roots} "
                f"addressable roots for order={spec.order!r} "
                f"seed={spec.seed}, slice was planned against "
                f"{spec.n_roots} (differing graph versions?)"
            )
        job, deduplicated = self.submit(job_payload)
        with self._lock:
            if isinstance(coordinator, str) and coordinator:
                self._coordinators[coordinator] = time.time()
            self._slices[spec.slice_id] = {
                "slice_id": spec.slice_id,
                "range": [spec.lo, spec.hi],
                "fingerprint": spec.fingerprint(),
                "job_id": job.job_id,
                "coordinator": coordinator,
                "deduplicated": deduplicated,
                "accepted_at": time.time(),
            }
        self.registry.counter(
            "serve_slices_total", "federated slice submissions",
            labels={
                "event": "deduplicated" if deduplicated else "accepted"
            },
        ).inc()
        return job, deduplicated

    # -- execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.get(timeout=0.1)
            if job is None:
                if self.queue.closed:
                    return
                continue
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                job.state = "failed"
                job.error = f"internal error: {exc!r}"
                job.finished_at = time.time()
                self._journal_safe(job, "failed", error=job.error)
                self._jobs_counter("failed").inc()
            self._notify_job_ended()

    def _notify_job_ended(self) -> None:
        with self._job_ended:
            self._job_ended.notify_all()

    def _threshold_capable(self, spec: JobSpec, engine: str) -> bool:
        """A job with size thresholds must not silently run on an engine
        that ignores them — the result set would change."""
        if spec.min_left <= 1 and spec.min_right <= 1:
            return True
        params = inspect.signature(ALGORITHMS[engine]).parameters
        return "min_left" in params

    def _plan_job(
        self, spec: JobSpec, graph: BipartiteGraph, graph_key: str
    ) -> tuple[list[str], Plan | None]:
        """Execution chain (requested engine first) + the plan behind it.

        Three policies:

        * ``no_fallback``, or any root-range job (cluster slices: only
          the requested engine understands ``root_range``, any
          substitute would enumerate the whole graph) — the requested
          engine or nothing, no plan.
        * explicit ``config.fallback`` — the legacy fixed chain through
          :meth:`BreakerRegistry.resolve`, no plan.
        * default — the cost-model planner ranks the fallback engines
          for *this* graph, composed with live breaker state (an open
          breaker demotes its engine behind every healthy one).  The
          requested engine still runs first: the planner replaces the
          guessed fallback order, not the caller's explicit choice.  A
          retired engine name is not in the registry, so its job runs
          the planned chain alone.
        """
        if spec.no_fallback or _is_slice(spec):
            return ([spec.engine] if spec.engine in ALGORITHMS else []), None
        if self.config.fallback is not None:
            return [
                e for e in self.breakers.resolve(spec.engine)
                if e in ALGORITHMS and self._threshold_capable(spec, e)
            ], None
        plan = None
        try:
            plan = build_plan(
                graph, graph_key=graph_key, store=self.store,
                min_left=spec.min_left, min_right=spec.min_right,
                breaker_states=self.breakers.states(),
            )
            ranked = plan.engine_chain()
        except Exception:  # noqa: BLE001 - planning must never kill a job
            ranked = [
                e for e in FALLBACK_CHAIN
                if e in ALGORITHMS and self._threshold_capable(spec, e)
            ]
        engines = (
            [spec.engine]
            if spec.engine in ALGORITHMS
            and self._threshold_capable(spec, spec.engine)
            else []
        )
        engines.extend(e for e in ranked if e not in engines)
        if engines:
            self.registry.counter(
                "plan_decisions_total",
                "jobs whose execution chain was headed by this engine",
                labels={"engine": engines[0]},
            ).inc()
        return engines, plan

    def _engine_kwargs(
        self, engine: str, spec: JobSpec, job_dir: str, graph: BipartiteGraph
    ) -> dict:
        params = inspect.signature(ALGORITHMS[engine]).parameters
        kwargs = {
            k: v for k, v in spec.engine_options.items() if k in params
        }
        if "min_left" in params:
            kwargs.setdefault("min_left", spec.min_left)
            kwargs.setdefault("min_right", spec.min_right)
        if "checkpoint" in params and _wants_checkpoint(spec, graph):
            kwargs.setdefault(
                "checkpoint", os.path.join(job_dir, "checkpoint.jsonl")
            )
        if "faults" in params and spec.faults and self.config.allow_faults:
            kwargs.setdefault("faults", FaultPlan(**spec.faults))
        return kwargs

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        job.state = "running"
        job.started_at = time.time()
        job.attempts += 1
        self._journal_safe(job, "started", attempt=job.attempts)
        with self._lock:
            cancel_event = self._cancel_events.setdefault(
                job.job_id, threading.Event()
            )
        job_dir = os.path.join(self.jobs_dir, job.job_id)
        os.makedirs(job_dir, exist_ok=True)
        graph, graph_key = self._resolve_graph(spec)
        watchdog = MemoryWatchdog(
            soft_limit_bytes=self.config.soft_limit_bytes,
            hard_limit_bytes=self.config.hard_limit_bytes,
            max_in_ram=self.config.max_in_ram,
            max_spool_bytes=self.config.max_spool_bytes,
        )

        engines, plan = self._plan_job(spec, graph, graph_key)
        # an unbudgeted job gets the planner's recommended budget: a
        # generous multiple of the prediction that stops runaways without
        # ever binding on a correctly-predicted run
        time_limit = (
            spec.time_limit
            if spec.time_limit is not None
            else self.config.default_time_limit
        )
        if time_limit is None and plan is not None:
            time_limit = plan.budget_seconds
        fallbacks: list[dict[str, str]] = []
        result = None
        collector = None
        engine_used = None
        t0 = time.monotonic()
        for engine in engines:
            breaker = self.breakers.breaker(engine)
            try:
                breaker.acquire()
            except BreakerOpen as exc:
                fallbacks.append({"engine": engine, "why": str(exc)})
                continue
            budget = RunBudget(
                time_limit=time_limit,
                max_bicliques=spec.max_bicliques,
                max_nodes=spec.max_nodes,
                cancel=cancel_event.is_set,
            )
            collector = (
                DegradableCollector(
                    os.path.join(job_dir, "results.jsonl"),
                    watchdog,
                    on_degrade=lambda mode: self.registry.counter(
                        "serve_degrade_total",
                        "memory-watchdog degradations",
                        labels={"mode": mode},
                    ).inc(),
                )
                if spec.collect
                else None
            )
            kwargs = self._engine_kwargs(engine, spec, job_dir, graph)
            try:
                if engine == "parallel":
                    with _PARALLEL_LOCK:
                        result = run_mbe(
                            graph, algorithm=engine, collect=False,
                            budget=budget, on_biclique=collector, **kwargs,
                        )
                else:
                    result = run_mbe(
                        graph, algorithm=engine, collect=False,
                        budget=budget, on_biclique=collector, **kwargs,
                    )
            except Exception as exc:  # noqa: BLE001 - engine fault
                breaker.record_failure()
                self.registry.counter(
                    "serve_engine_failures_total",
                    "engine executions that raised",
                    labels={"engine": engine},
                ).inc()
                fallbacks.append({"engine": engine, "why": repr(exc)})
                continue
            breaker.record_success()
            engine_used = engine
            break
        elapsed = time.monotonic() - t0
        self.queue.observe_duration(elapsed)
        self.registry.histogram(
            "serve_job_duration_seconds", "job wall-clock time"
        ).observe(elapsed)
        self._finish_job(job, engine_used, result, collector, fallbacks,
                         graph_key, plan)

    def _finish_job(self, job, engine_used, result, collector,
                    fallbacks, graph_key=None, plan=None) -> None:
        job.finished_at = time.time()
        if result is None:
            job.state = "failed"
            job.error = (
                "no engine could run the job: "
                + "; ".join(f"{f['engine']}: {f['why']}" for f in fallbacks)
            ) if fallbacks else (
                "no engine is eligible for this job "
                "(no_fallback with an unavailable engine?)"
            )
            # structured exhaustion report: clients (and the cluster
            # coordinator's retry policy) get machine-readable causes,
            # not just a flattened string
            job.summary = {
                "error_kind": (
                    "fallback_exhausted" if fallbacks else "no_engine"
                ),
                "engines_tried": [f["engine"] for f in fallbacks],
                "fallbacks": fallbacks,
                "no_fallback": job.spec.no_fallback,
            }
            self._journal_safe(
                job, "failed", error=job.error, summary=job.summary
            )
            self._jobs_counter("failed").inc()
            return
        stored = (
            collector.finish() if collector is not None
            else {"mode": "count", "count": result.count}
        )
        job.summary = {
            "engine": engine_used,
            "count": result.count,
            "complete": result.complete,
            "elapsed": round(result.elapsed, 6),
            "results": stored,
        }
        if plan is not None and engine_used is not None:
            predicted = plan.predicted_seconds_for(engine_used)
            if predicted is not None:
                job.summary["predicted_seconds"] = round(predicted, 6)
                if result.elapsed > 2.0 * predicted:
                    self.registry.counter(
                        "plan_mispredictions_total",
                        "jobs whose wall clock exceeded 2x the planner "
                        "prediction",
                        labels={"engine": engine_used},
                    ).inc()
        if result.meta.get("stopped"):
            job.summary["stopped"] = result.meta["stopped"]
        if result.meta.get("resumed_tasks"):
            job.summary["resumed_tasks"] = result.meta["resumed_tasks"]
        if fallbacks:
            job.summary["fallbacks"] = fallbacks
        stopped = result.meta.get("stopped")
        if stopped == "cancelled" and self._draining and not \
                job.cancel_requested:
            # drain-induced stop: resumable on restart, not terminal
            job.state = "interrupted"
            self._journal_safe(job, "interrupted")
            return
        if collector is not None and collector.mode == "collect":
            with self._lock:
                self._results[job.job_id] = collector.results
        if stopped == "cancelled":
            job.state = "cancelled"
            self._journal_safe(job, "cancelled", summary=job.summary)
            self._jobs_counter("cancelled").inc()
        else:
            if (
                self.config.result_cache
                and graph_key is not None
                and result.complete
                and not job.spec.faults
                # fallback-produced answers are deliberately not cached:
                # the next identical submission must exercise the real
                # engine (and its circuit breaker), not mask its failure
                # behind a cache hit
                and engine_used == job.spec.engine
                # a slice's answer is journaled and spooled by its
                # coordinator, and a redelivery reuses the job
                and not _is_slice(job.spec)
            ):
                bicliques = None
                if collector is not None and collector.mode == "collect":
                    bicliques = [(b.left, b.right) for b in collector.results]
                # store before flipping the state: a client that saw
                # "done" and immediately resubmits must find the cache
                # warm, not race the write
                kinds.put_cached_result(
                    self.store, graph_key,
                    self._result_fingerprint(job.spec),
                    engine=engine_used, count=result.count,
                    elapsed=result.elapsed, bicliques=bicliques,
                )
            job.state = "done"
            self._journal_safe(job, "done", summary=job.summary)
            self._jobs_counter("done").inc()


# --------------------------------------------------------------------------
# HTTP surface

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9-]+)(/result|/cancel)?$")

#: Keys a ``GET /jobs/<id>`` / ``GET /jobs/<id>/result`` body may hold.
_STATUS_OPTIONS = frozenset({"wait"})
_RESULT_OPTIONS = frozenset({"format"})


def _wait_seconds(options: dict) -> float:
    """The validated ``wait`` of a status request (0 when absent)."""
    wait = options.get("wait", 0)
    if isinstance(wait, bool) or not isinstance(wait, (int, float)) or \
            not math.isfinite(wait) or wait < 0:
        raise JobValidationError(
            "'wait' must be a finite number of seconds >= 0"
        )
    return float(wait)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs to :class:`EnumerationService` methods."""

    server_version = "repro-serve/1"
    service: EnumerationService  # set by make_http_server

    def log_message(self, *args) -> None:  # pragma: no cover - quiet
        pass

    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json",
                   headers)

    def _read_options(self, allowed: frozenset) -> dict:
        """The optional JSON object a ``GET`` may carry (absent = ``{}``)."""
        if not int(self.headers.get("Content-Length") or 0):
            return {}
        body = self._read_body()
        if not isinstance(body, dict):
            raise JobValidationError("request body must be a JSON object")
        unknown = set(body) - allowed
        if unknown:
            raise JobValidationError(f"unsupported options: {sorted(unknown)}")
        return body

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobValidationError("empty request body")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise JobValidationError(f"invalid JSON body: {exc.msg}") from exc

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        try:
            if self.path == "/healthz":
                self._send_json(200, {"ok": True})
            elif self.path == "/readyz":
                if service.ready:
                    self._send_json(200, {"ready": True})
                else:
                    self._send_json(503, {"ready": False,
                                          "reason": "draining"})
            elif self.path == "/metrics":
                self._send(200, service.metrics_text().encode(),
                           "text/plain; version=0.0.4")
            elif self.path == "/jobs":
                self._send_json(200, {"jobs": service.list_jobs()})
            elif self.path == "/slices":
                self._send_json(200, {"slices": service.list_slices()})
            elif self.path == "/cluster":
                self._send_json(200, service.cluster_info())
            else:
                m = _JOB_PATH.match(self.path)
                if m and m.group(2) is None:
                    wait = _wait_seconds(self._read_options(_STATUS_OPTIONS))
                    self._send_json(200, service.status(m.group(1), wait))
                elif m and m.group(2) == "/result":
                    fmt = self._read_options(_RESULT_OPTIONS).get(
                        "format", "json"
                    )
                    if fmt == "json":
                        self._send_json(200, service.result(m.group(1)))
                    elif fmt == "tsv":
                        self._send(200, service.result_tsv(m.group(1)),
                                   TSV_CONTENT_TYPE)
                    else:
                        raise JobValidationError(
                            "'format' must be 'json' or 'tsv'"
                        )
                else:
                    self._send_json(404, {"error": "no such route"})
        except JobValidationError as exc:
            self._send_json(400, {"error": str(exc)})
        except JobNotFound:
            self._send_json(404, {"error": "no such job"})
        except JobNotFinished as exc:
            self._send_json(409, {"error": "job not finished",
                                  "state": str(exc)})
        except ResultsUnavailable:
            self._send_json(410, {"error": "results not available",
                                  "results_available": False})
        except Exception as exc:  # noqa: BLE001 - never kill the server
            self._send_json(500, {"error": repr(exc)})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        try:
            if self.path == "/jobs":
                job, deduplicated = service.submit(self._read_body())
                self._send_json(
                    200 if deduplicated else 202,
                    {**job.status_payload(), "deduplicated": deduplicated},
                )
                return
            if self.path == "/slices":
                job, deduplicated = service.submit_slice(self._read_body())
                self._send_json(
                    200 if deduplicated else 202,
                    {**job.status_payload(), "deduplicated": deduplicated},
                )
                return
            if self.path == "/cluster/register":
                self._send_json(
                    200, service.register_coordinator(self._read_body())
                )
                return
            m = _JOB_PATH.match(self.path)
            if m and m.group(2) == "/cancel":
                self._send_json(202, service.cancel(m.group(1)))
            else:
                self._send_json(404, {"error": "no such route"})
        except JobValidationError as exc:
            self._send_json(400, {"error": str(exc)})
        except AdmissionError as exc:
            headers = {}
            body = {"error": exc.reason, "detail": exc.detail}
            if exc.retry_after is not None:
                headers["Retry-After"] = str(int(exc.retry_after + 0.5))
                body["retry_after"] = exc.retry_after
            self._send_json(exc.status, body, headers)
        except JobNotFound:
            self._send_json(404, {"error": "no such job"})
        except Exception as exc:  # noqa: BLE001 - never kill the server
            self._send_json(500, {"error": repr(exc)})


def make_http_server(
    service: EnumerationService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the HTTP surface (port 0 = ephemeral; see ``server_address``)."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    httpd = ThreadingHTTPServer((host, port), handler)
    httpd.daemon_threads = True
    return httpd


#: How often the main thread of :func:`run_server` looks for a signal.
_STOP_POLL_SECONDS = 0.2


def run_server(
    config: ServiceConfig, host: str = "127.0.0.1", port: int = 0
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain cleanly.

    Writes the bound port to ``<state_dir>/serve.port`` so callers using
    an ephemeral port (tests, the CI smoke) can find the server.
    """
    service = EnumerationService(config)
    httpd = make_http_server(service, host, port)
    bound_port = httpd.server_address[1]
    port_file = os.path.join(config.state_dir, "serve.port")
    with open(port_file, "w", encoding="utf-8") as handle:
        handle.write(f"{bound_port}\n")

    # the handler only appends to a list: a handler that takes a lock
    # (as Event.set does) deadlocks when the signal lands while the main
    # thread holds that lock, as Event.wait does for a moment each call
    received: list[int] = []

    def _on_signal(signum, _frame):
        received.append(signum)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    service.start()
    http_thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.1},
        daemon=True,
    )
    http_thread.start()
    print(
        f"serve: listening on http://{host}:{bound_port} "
        f"(state: {config.state_dir})",
        flush=True,
    )
    try:
        while not received:
            time.sleep(_STOP_POLL_SECONDS)
        print(f"serve: received signal {received[0]}, draining", flush=True)
    finally:
        httpd.shutdown()
        service.drain()
        try:
            os.remove(port_file)
        except OSError:
            pass
    print("serve: drained, exiting", flush=True)
    return 0
