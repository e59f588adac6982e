"""Shared-memory parallel MBE over first-level subproblems.

The enumeration tree decomposes into independent first-level subtrees
(:mod:`repro.core.decompose`), which is the parallelization unit of every
multicore MBE system in this literature.  Two refinements make the
distribution *load-aware*:

* **Task splitting.**  A subtree whose estimated size
  ``min(|L₀|, |N₂(v)|) * |N₂(v)|`` exceeds ``bound_size`` (and whose height
  bound exceeds ``bound_height``) is split into ``k`` *root-slice* tasks:
  slice ``(v, part, k)`` branches only on the ``part``-th fraction of the
  root's candidate groups, seeding its traversed store with all groups
  before the slice.  Sibling branches interact only through the traversed
  set, so slices are independent and their union is exactly the subtree.
* **LPT scheduling.**  Tasks are dispatched largest-estimate-first to the
  process pool, the classic longest-processing-time heuristic.

With ``workers=1`` (a federated slice on its worker) neither applies.
A plain run (no checkpoint, no fault plan, no instrumentation) is one
MBET pass over the roots through :meth:`MBEAlgorithm.run`: one sink, one
stats object, no executor.  A checkpointed, fault-injected or
instrumented run keeps one task per root, run inline in root order, so
each finished root can be persisted, retried or traced.

On top of the distribution sits the **resilient runtime**
(:mod:`repro.runtime`): execution goes through a
:class:`~repro.runtime.ResilientExecutor` that survives worker crashes and
stalls (bounded retries with exponential backoff, oversized tasks re-split
into root slices on retry), enforces run budgets (wall-clock deadline,
result cap) via per-task sub-deadlines plus a shared cancel event, and can
persist completed tasks to a JSONL **checkpoint** so a killed run resumes
without redoing finished subtrees.  Unrecoverable failures never raise:
the run returns a partial :class:`MBEResult` with ``complete=False`` and
per-task failure records in ``meta``.

Workers are forked with the graph shipped once through the pool
initializer; each task reconstructs its subproblem locally (cheap relative
to enumerating it) and returns counts, stats, and optionally the bicliques.

Caveat recorded with experiment R-F9: this container exposes a single CPU
core, so measured "speedups" here are scheduling overhead; the machinery
itself is exercised and verified regardless.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from itertools import accumulate

from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.ordering import rank_of, vertex_order
from repro.core.base import (
    Biclique,
    EnumerationLimits,
    EnumerationStats,
    MBEAlgorithm,
    MBEResult,
    register,
    resolve_budget,
)
from repro.core.decompose import build_subproblem
from repro.core.mbet import MBET
from repro.obs.metrics import NULL_INSTRUMENTATION
from repro.runtime.budget import NULL_GUARD, BudgetExceeded, RunBudget
from repro.runtime.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    reconcile_tasks,
)
from repro.runtime.executor import ResilientExecutor
from repro.runtime.faults import FaultPlan

#: How many reports a worker accumulates before folding them into the
#: shared result counter (keeps the cross-process lock off the hot path).
_FLUSH_EVERY = 16

# Worker context materialized in each worker by the pool initializer.
_WORKER: dict = {}


def subtree_estimate(
    graph: BipartiteGraph, v: int, bound_size: int = 256
) -> tuple[int, int]:
    """``(estimate, height)`` for the first-level subtree rooted at ``v``.

    The cheap bound ``deg²`` stands in until it exceeds ``bound_size``;
    past that the 2-hop neighbourhood is consulted for the tighter
    ``min(deg, |N₂(v)|) · |N₂(v)|`` shape of the MBET work bound.
    """
    deg = graph.degree_v(v)
    if deg * deg > bound_size:
        n2 = len(graph.two_hop_v(v))
        height = min(deg, n2)
        return height * n2, height
    return deg * deg, deg


def addressable_roots(
    graph: BipartiteGraph, order: str = "degree", seed: int = 0
) -> list[int]:
    """The canonical list of first-level roots every slice address names.

    Deterministic in ``(order, seed)``: two processes that agree on the
    graph and the ordering agree on index ``i`` of every root, which is
    what makes a root range ``[lo, hi)`` a *serialisable* unit of work a
    coordinator can hand to a remote worker (:mod:`repro.cluster`).
    Degree-0 vertices root nothing and are excluded.
    """
    return [
        v
        for v in vertex_order(graph, order, seed=seed)
        if graph.degree_v(v) > 0
    ]


def plan_root_ranges(
    costs: list[int], n_slices: int
) -> list[tuple[int, int]]:
    """Partition a root space into ≤ ``n_slices`` cost-balanced ranges.

    ``costs[i]`` is the cost of root ``i`` of :func:`addressable_roots`
    (:func:`repro.plan.root_cost_estimates`).  The result is contiguous
    ``[lo, hi)`` index ranges covering the whole space with no overlap.
    Cut ``j`` falls on the root boundary whose cost prefix is nearest
    ``j / k`` of the total, so no range costs more than ``total / k``
    plus the largest root.  Fewer ranges are returned when there are
    fewer roots than requested slices.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    n = len(costs)
    if not n:
        return []
    k = min(n_slices, n)
    prefix = list(accumulate(costs, initial=0))
    cuts = [0]
    for j in range(1, k):
        goal = prefix[-1] * j / k
        cut = bisect_left(prefix, goal)
        if cut and goal - prefix[cut - 1] <= prefix[cut] - goal:
            cut -= 1
        # every range keeps at least one root
        cuts.append(max(cuts[-1] + 1, min(cut, n - (k - j))))
    cuts.append(n)
    return list(zip(cuts, cuts[1:]))


class _LocalCounter:
    """In-process stand-in for the shared result counter (workers=1)."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def add(self, n: int) -> int:
        self.value += n
        return self.value


class _ProbeEvent:
    """Event-shaped wrapper over a cancel probe (inline workers=1 runs).

    The worker context expects an object with ``is_set``; in-process
    execution can poll the caller's probe directly instead of a
    ``multiprocessing.Event``.
    """

    __slots__ = ("_probe",)

    def __init__(self, probe):
        self._probe = probe

    def is_set(self) -> bool:
        return bool(self._probe())


class _SharedCounter:
    """Cross-process result counter over a ``multiprocessing.Value``."""

    __slots__ = ("_v",)

    def __init__(self, mp_value):
        self._v = mp_value

    def add(self, n: int) -> int:
        with self._v.get_lock():
            self._v.value += n
            return self._v.value

    @property
    def value(self) -> int:
        return self._v.value


def _init_worker(
    graph: BipartiteGraph,
    rank: list[int],
    algo_options: dict,
    collect: bool,
    faults: FaultPlan | None,
    cancel_event,
    shared_counter,
    max_results: int | None,
    deadline: float | None,
    inline: bool = False,
) -> None:
    _WORKER.update(
        graph=graph,
        rank=rank,
        algo=MBET(**algo_options),
        collect=collect,
        faults=faults,
        cancel_event=cancel_event,
        shared=shared_counter,
        max_results=max_results,
        deadline=deadline,
        inline=inline,
    )


def _run_task(task: tuple[int, int, int], attempt: int):
    """Execute root-slice ``(v, part, n_parts)`` under the task budget.

    Returns ``(count, stats_dict, bicliques|None, complete, reason)``.
    A task cut short by a deadline or the shared result cap reports
    ``complete=False`` instead of raising, so the driver can fold its
    partial output into the run.
    """
    v, part, n_parts = task
    ctx = _WORKER
    graph, rank, algo = ctx["graph"], ctx["rank"], ctx["algo"]
    collect = ctx["collect"]
    faults: FaultPlan | None = ctx["faults"]
    if faults is not None:
        faults.apply(task, attempt, inline=ctx["inline"])

    cancel_event = ctx["cancel_event"]
    shared = ctx["shared"]
    max_results = ctx["max_results"]
    stats = EnumerationStats()
    results: list[Biclique] = []

    # Per-task sub-deadline: remaining share of the run's wall-clock
    # budget.  CLOCK_MONOTONIC is system-wide, so the driver's absolute
    # deadline is comparable across forked workers — and, unlike
    # time.time(), an NTP step cannot stretch or collapse the budget.
    time_limit = None
    if ctx["deadline"] is not None:
        time_limit = ctx["deadline"] - time.monotonic()
        if time_limit <= 0:
            return 0, stats.as_dict(), results if collect else None, False, (
                "time_limit"
            )

    probe = None
    if cancel_event is not None or (shared is not None and max_results is not None):
        def probe() -> bool:
            if cancel_event is not None and cancel_event.is_set():
                return True
            return (
                shared is not None
                and max_results is not None
                and shared.value >= max_results
            )

    if time_limit is not None or probe is not None:
        guard = RunBudget(time_limit=time_limit, cancel=probe).arm()
    else:
        guard = NULL_GUARD

    count = 0
    unflushed = 0

    def report(left, right):
        nonlocal count, unflushed
        count += 1
        if collect:
            results.append(Biclique.make(left, right))
        if shared is not None:
            unflushed += 1
            if unflushed >= _FLUSH_EVERY:
                total = shared.add(unflushed)
                unflushed = 0
                if max_results is not None and total >= max_results:
                    raise BudgetExceeded("max_bicliques")

    complete, reason = True, None
    algo._guard = guard
    try:
        sub = build_subproblem(graph, v, rank)
        if sub is not None and algo._accept_subproblem(sub, stats):
            stats.subtrees += 1
            algo._run_subproblem(sub, report, stats, part, n_parts)
    except BudgetExceeded as exc:
        complete, reason = False, exc.reason
    finally:
        algo._guard = NULL_GUARD
        if shared is not None and unflushed:
            shared.add(unflushed)
    return count, stats.as_dict(), results if collect else None, complete, reason


@register
class ParallelMBE(MBEAlgorithm):
    """Process-pool parallel MBET with load-aware splitting and recovery."""

    name = "parallel"

    def __init__(
        self,
        workers: int = 2,
        order: str = "degree",
        bound_height: int = 8,
        bound_size: int = 256,
        orient_smaller_v: bool = False,
        seed: int = 0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        task_timeout: float | None = None,
        checkpoint: str | os.PathLike[str] | None = None,
        faults: FaultPlan | None = None,
        min_left: int = 1,
        min_right: int = 1,
        root_range: tuple[int, int] | list[int] | None = None,
        engine_options: dict | None = None,
    ):
        super().__init__(orient_smaller_v=orient_smaller_v)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # a mapping or an (hashable) iterable of key/value pairs
        engine_options = dict(engine_options) if engine_options else {}
        reserved = {"order", "seed", "min_left", "min_right"}
        clash = reserved & set(engine_options)
        if clash:
            raise ValueError(
                f"engine_options may not override driver-owned keys {sorted(clash)}"
            )
        if bound_height < 1 or bound_size < 1:
            raise ValueError("split bounds must be positive")
        if min_left < 1 or min_right < 1:
            raise ValueError("size thresholds must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if root_range is not None:
            lo, hi = root_range
            if not (
                isinstance(lo, int) and isinstance(hi, int) and 0 <= lo < hi
            ):
                raise ValueError(
                    "root_range must be an integer pair [lo, hi) with "
                    "0 <= lo < hi"
                )
            root_range = (lo, hi)
        self.workers = workers
        self.order = order
        self.bound_height = bound_height
        self.bound_size = bound_size
        self.seed = seed
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.task_timeout = task_timeout
        self.checkpoint = checkpoint
        self.faults = faults
        self.min_left = min_left
        self.min_right = min_right
        self.root_range = root_range
        self.engine_options = dict(engine_options)

    def _enumerate(self, graph, report, stats):
        """The one-pass run: one MBET over the (ranged) addressable roots.

        Reached through :meth:`MBEAlgorithm.run`, which owns the sink,
        the budget guard and the orientation; thresholds are already in
        work-graph coordinates here.  A failure raises, as in any engine:
        only the per-root path retries.
        """
        algo = MBET(
            order=self.order, seed=self.seed, min_left=self.min_left,
            min_right=self.min_right, **self.engine_options,
        )
        rank = rank_of(vertex_order(graph, self.order, seed=self.seed))
        guard = algo._guard = self._guard
        try:
            for v in self._ranged_roots(graph):
                # per root, as iter_subproblems does: a barren stretch of
                # pruned roots must not outrun a deadline
                guard.check_now()
                sub = build_subproblem(graph, v, rank)
                if sub is not None and algo._accept_subproblem(sub, stats):
                    stats.subtrees += 1
                    algo._run_subproblem(sub, report, stats)
        finally:
            algo._guard = NULL_GUARD

    def _ranged_roots(self, graph: BipartiteGraph) -> list[int]:
        """The roots at indices ``lo..hi-1`` of :func:`addressable_roots`
        (all of them without a ``root_range``)."""
        roots = addressable_roots(graph, self.order, seed=self.seed)
        if self.root_range is None:
            return roots
        lo, hi = self.root_range
        return roots[lo:hi]

    def _estimate(self, graph: BipartiteGraph, v: int) -> tuple[int, int]:
        """(estimate, height) for the subtree rooted at ``v``."""
        return subtree_estimate(graph, v, self.bound_size)

    def _make_tasks(self, graph: BipartiteGraph) -> list[tuple[int, int, int]]:
        """Build root-slice tasks, largest estimated subtree first.

        With ``root_range=(lo, hi)`` only the roots at indices
        ``lo..hi-1`` of :func:`addressable_roots` are scheduled — the
        serialisable shard contract of the federated tier
        (:mod:`repro.cluster`): disjoint ranges over the same canonical
        root list partition the full result set exactly.

        One worker runs every task inline, one after another, so it gets
        one whole task per root in root order: its parts would each
        rebuild the subproblem and reseed the store, and there is no
        second worker to hand them to.
        """
        roots = self._ranged_roots(graph)
        if self.workers == 1:
            return [(v, 0, 1) for v in roots]
        estimated: list[tuple[int, int, int]] = []  # (estimate, height, v)
        for v in roots:
            estimate, height = self._estimate(graph, v)
            estimated.append((estimate, height, v))
        tasks: list[tuple[int, int, int, int]] = []  # (estimate, v, part, n_parts)
        for estimate, height, v in estimated:
            if height > self.bound_height and estimate > self.bound_size:
                n_parts = min(4 * self.workers, 1 + estimate // self.bound_size)
                share = max(1, estimate // n_parts)
                tasks.extend((share, v, part, n_parts) for part in range(n_parts))
            else:
                tasks.append((estimate, v, 0, 1))
        tasks.sort(key=lambda t: (-t[0], t[1], t[2]))
        return [(v, part, n_parts) for _, v, part, n_parts in tasks]

    def _split_for_retry(
        self, graph: BipartiteGraph, task: tuple[int, int, int], attempts: int
    ) -> list[tuple[int, int, int]] | None:
        """Replace a failed whole-subtree task with root slices.

        Slices are never re-split (their identity must stay stable for
        checkpoint reconciliation), and subtrees too small to benefit are
        simply retried whole.
        """
        v, _part, n_parts = task
        if n_parts != 1:
            return None
        estimate, height = self._estimate(graph, v)
        if estimate <= self.bound_size or height <= 1:
            return None
        k = min(4 * self.workers, max(2, 1 + estimate // self.bound_size))
        return [(v, part, k) for part in range(k)]

    def _fingerprint(self, graph: BipartiteGraph, collect: bool) -> dict:
        """Identity of a run for checkpoint compatibility checks."""
        return {
            "n_u": graph.n_u,
            "n_v": graph.n_v,
            "n_edges": graph.n_edges,
            "order": self.order,
            "seed": self.seed,
            "bound_height": self.bound_height,
            "bound_size": self.bound_size,
            "workers": self.workers,
            "orient_smaller_v": self.orient_smaller_v,
            "min_left": self.min_left,
            "min_right": self.min_right,
            "root_range": (
                list(self.root_range) if self.root_range is not None else None
            ),
            # the worker engine, constant since MBET is the only one;
            # kept so checkpoints written while it was a choice resume
            "engine": "mbet",
            "engine_options": dict(sorted(self.engine_options.items())),
            "collect": collect,
        }

    def run(
        self,
        graph: BipartiteGraph,
        collect: bool = True,
        limits: EnumerationLimits | None = None,
        budget: RunBudget | None = None,
        instrumentation=None,
        on_biclique=None,
    ) -> MBEResult:
        """Enumerate in parallel; degrades gracefully under any failure.

        Budgets are supported: a deadline is propagated to workers as
        per-task sub-deadlines, ``max_bicliques`` through a shared counter
        plus a cancel event.  Worker crashes and stalls are retried up to
        ``max_retries`` times; permanent failures land in
        ``meta["failures"]`` and flag the result ``complete=False`` rather
        than raising.  With ``checkpoint=path``, completed tasks are
        persisted as they finish and a restart skips them.

        ``instrumentation`` observes the whole distribution: task planning
        is timed as a ``decompose`` span, pooled execution as an
        ``enumerate`` span, each worker's stats snapshot is aggregated
        into the metric registry, and the executor publishes its
        retry/crash/stall counters and incident events.

        ``budget.cancel`` binds here too: the driver polls the probe
        between (and, pooled, *during*) task completions, relays it to
        workers through the shared cancel event, and returns a partial
        result with ``meta["stopped"] == "cancelled"``.  ``on_biclique``
        streams results (including checkpoint-resumed ones) to a
        caller-owned hook instead of collecting; workers still ship
        bicliques to the driver per task, so the hook sees them at task
        granularity.

        One worker with nothing to persist, inject or trace per task
        takes the one-pass run (:meth:`_enumerate`) instead: the same
        results, budgets and streaming, without the per-root executor,
        stats merges and task bookkeeping (``meta`` keeps ``workers``).
        """
        budget = resolve_budget(limits, budget)
        if (
            self.workers == 1
            and self.checkpoint is None
            and self.faults is None
            and (instrumentation is None or not instrumentation.enabled)
        ):
            result = super().run(
                graph, collect=collect, budget=budget,
                instrumentation=instrumentation, on_biclique=on_biclique,
            )
            result.meta["workers"] = self.workers
            # the guard stops on the report that reaches the cap, so a
            # cap of 0 lets one through; never return more than the cap
            cap = budget.max_bicliques if budget is not None else None
            if cap is not None and result.count > cap:
                result.count = result.stats.maximal = cap
                if result.bicliques is not None:
                    del result.bicliques[cap:]
            return result
        instr = (
            instrumentation if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        stream = on_biclique is not None
        if stream:
            collect = True  # workers ship bicliques; the hook owns storage
        work_graph, swapped = (
            graph.oriented_smaller_v() if self.orient_smaller_v else (graph, False)
        )

        def deliver(items) -> None:
            """Hand bicliques to the hook in original orientation."""
            if swapped:
                for b in items:
                    on_biclique(b.swap())
            else:
                for b in items:
                    on_biclique(b)
        # thresholds are stated in caller coordinates; a swapped work
        # graph swaps which side each one binds
        algo_options = {
            "order": self.order,
            "seed": self.seed,
            "min_left": self.min_right if swapped else self.min_left,
            "min_right": self.min_left if swapped else self.min_right,
            **self.engine_options,
        }
        with instr.phase("decompose"):
            rank = rank_of(vertex_order(work_graph, self.order, seed=self.seed))
            all_tasks = self._make_tasks(work_graph)

        start = time.perf_counter()
        stats = EnumerationStats()
        if instr.enabled:
            instr.begin_run(self.name, stats, total_subtrees=len(all_tasks))
            instr.gauge("parallel_workers", "pool size of the run").set(
                self.workers
            )
            instr.gauge("parallel_tasks", "root-slice tasks planned").set(
                len(all_tasks)
            )
        bicliques: list[Biclique] = []
        count = 0
        saw_partial = False
        partial_reasons: set[str] = set()
        meta: dict = {"workers": self.workers, "tasks": len(all_tasks)}

        # -- checkpoint: skip finished subtrees, keep persisting new ones --
        tasks = all_tasks
        writer: CheckpointWriter | None = None
        if self.checkpoint is not None:
            path = os.fspath(self.checkpoint)
            fingerprint = self._fingerprint(graph, collect)
            ckpt = load_checkpoint(path)
            resumed: list[dict] = []
            if ckpt is not None:
                ckpt.require_match(fingerprint, path)
                tasks, resumed = reconcile_tasks(all_tasks, ckpt, path)
            writer = CheckpointWriter(path, fingerprint, resume_records=resumed)
            for rec in resumed:
                count += rec["count"]
                part_stats = EnumerationStats()
                for key, value in rec["stats"].items():
                    setattr(part_stats, key, value)
                stats.merge(part_stats)
                if collect and rec["bicliques"]:
                    restored = [
                        Biclique.make(ls, rs) for ls, rs in rec["bicliques"]
                    ]
                    if stream:
                        deliver(restored)
                    else:
                        bicliques.extend(restored)
            meta["resumed_tasks"] = len(resumed)

        # -- budget wiring -------------------------------------------------
        # One monotonic deadline serves every consumer (executor loop and
        # per-task sub-deadlines in workers): CLOCK_MONOTONIC is
        # system-wide on the platforms we fork on, and a single clock
        # means an NTP step can never break budget math.
        max_results = budget.max_bicliques if budget is not None else None
        time_limit = budget.time_limit if budget is not None else None
        cancel_probe = budget.cancel if budget is not None else None
        deadline = (
            time.monotonic() + time_limit if time_limit is not None else None
        )

        pooled = self.workers > 1
        mp_ctx = multiprocessing.get_context("fork")
        cancel_event = (
            mp_ctx.Event()
            if pooled and (max_results is not None or cancel_probe is not None)
            else None
        )
        if max_results is not None:
            shared = (
                _SharedCounter(mp_ctx.Value("q", 0))
                if pooled
                else _LocalCounter()
            )
            shared.add(count)  # resumed results count against the cap
        else:
            shared = None

        def on_result(task, outcome) -> None:
            nonlocal count, saw_partial
            task_count, stats_dict, task_bicliques, task_complete, reason = outcome
            count += task_count
            part_stats = EnumerationStats()
            for key, value in stats_dict.items():
                setattr(part_stats, key, value)
            stats.merge(part_stats)
            if collect and task_bicliques:
                if stream:
                    deliver(task_bicliques)
                else:
                    bicliques.extend(task_bicliques)
            if instr.enabled:
                # per-worker snapshot: one trace event per task, plus a
                # progress pulse over the aggregated driver-side stats
                instr.event(
                    "task_done", task=list(task), count=task_count,
                    nodes=stats_dict.get("nodes", 0), complete=task_complete,
                )
                instr.on_report(count, stats)
            if not task_complete:
                saw_partial = True
                if reason:
                    partial_reasons.add(reason)
            elif writer is not None:
                writer.record(
                    task, task_count, stats_dict,
                    task_bicliques if collect else None,
                )
            if (
                max_results is not None
                and count >= max_results
                and cancel_event is not None
            ):
                cancel_event.set()

        externally_cancelled = False

        def _cancelled() -> bool:
            """Executor probe: external cancel first, then the result cap.

            An external cancellation is relayed to pooled workers through
            the shared event so in-flight tasks stop at their next guard
            boundary instead of running to completion.
            """
            nonlocal externally_cancelled
            if cancel_probe is not None and cancel_probe():
                externally_cancelled = True
                if cancel_event is not None:
                    cancel_event.set()
                return True
            return max_results is not None and count >= max_results

        executor = ResilientExecutor(
            task_fn=_run_task,
            pool_factory=(
                (
                    lambda: ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=mp_ctx,
                        initializer=_init_worker,
                        initargs=(
                            work_graph, rank, algo_options, collect,
                            self.faults, cancel_event, shared, max_results,
                            deadline,
                        ),
                    )
                )
                if pooled
                else None
            ),
            on_result=on_result,
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
            task_timeout=self.task_timeout,
            max_inflight=self.workers,
            deadline=deadline,
            instr=instr,
            cancel=(
                _cancelled
                if (max_results is not None or cancel_probe is not None)
                else None
            ),
            split_fn=lambda task, attempts: self._split_for_retry(
                work_graph, task, attempts
            ),
        )
        try:
            with instr.phase("enumerate"):
                if not tasks:
                    report = None
                elif pooled:
                    report = executor.run(tasks)
                else:
                    _init_worker(
                        work_graph, rank, algo_options, collect, self.faults,
                        (
                            _ProbeEvent(cancel_probe)
                            if cancel_probe is not None
                            else None
                        ),
                        shared, max_results, deadline, inline=True,
                    )
                    report = executor.run_serial(tasks)
        finally:
            if writer is not None:
                writer.close()
            _WORKER.clear()

        # -- fold the execution report into the result ---------------------
        stopped: str | None = None
        if report is not None:
            meta["completed_tasks"] = report.completed
            if report.retries:
                meta["retries"] = report.retries
            if report.pool_restarts:
                meta["pool_restarts"] = report.pool_restarts
            if report.failures:
                meta["failures"] = [f.as_dict() for f in report.failures]
            if report.stopped == "time_limit":
                stopped = "time_limit"
            elif report.stopped == "cancelled":
                # the shared cancel path serves two masters: an external
                # probe reports "cancelled", the result cap "max_bicliques"
                stopped = (
                    "cancelled"
                    if externally_cancelled or max_results is None
                    else "max_bicliques"
                )
        if stopped is None and partial_reasons:
            if "max_bicliques" in partial_reasons or (
                "cancelled" in partial_reasons
                and max_results is not None
                and not externally_cancelled
            ):
                stopped = "max_bicliques"
            elif "time_limit" in partial_reasons:
                stopped = "time_limit"
            elif "cancelled" in partial_reasons:
                stopped = "cancelled"
        if stopped:
            meta["stopped"] = stopped

        complete = (
            stopped is None
            and not saw_partial
            and (report is None or not report.failures)
        )

        # Mirror the sequential result-cap semantics: never return more
        # than max_bicliques results (workers stop at amortized
        # boundaries, so the raw union can overshoot slightly).
        if max_results is not None and count > max_results:
            count = max_results
            if collect and not stream:
                # (a streaming hook has already seen the overshoot; it is
                # bounded by the workers' amortized flush window)
                del bicliques[max_results:]
            complete = False

        elapsed = time.perf_counter() - start
        stats.maximal = count
        if instr.enabled:
            instr.end_run(self.name, stats, elapsed, count, complete)
        if collect and swapped:
            bicliques = [b.swap() for b in bicliques]
        return MBEResult(
            algorithm=self.name,
            count=count,
            elapsed=elapsed,
            stats=stats,
            bicliques=None if stream else (bicliques if collect else None),
            complete=complete,
            meta=meta,
        )
