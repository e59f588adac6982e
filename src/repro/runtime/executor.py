"""Fault-tolerant task execution: retries, backoff, stall and crash recovery.

:class:`ResilientExecutor` drives a list of independent tasks through a
process pool and keeps going when things break:

* **Worker crashes.**  A dead worker breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`; every in-flight
  future fails with :class:`BrokenProcessPool`.  The executor records one
  failed attempt per affected task, discards the broken pool, builds a
  fresh one from ``pool_factory`` and resubmits.  Submission is windowed
  (at most ``max_inflight`` futures outstanding) so one crash can poison
  at most a pool's worth of innocent neighbours.
* **Stalls / hangs.**  If *no* in-flight future completes within
  ``task_timeout`` seconds, everything still in flight is declared hung:
  the pool (including the stuck worker process) is terminated and the
  tasks are retried on a fresh pool.  The window restarts at every
  completion, so a hung task is only flagged once its healthy neighbours
  have drained around it.
* **Retries with backoff.**  Each failed attempt requeues the task until
  ``max_retries`` is exhausted, with exponentially growing sleeps
  (``backoff * 2**restarts``, capped) between pool generations.  An
  optional ``split_fn`` may replace a failed task with several smaller
  ones (the parallel driver re-splits oversized subtrees into root
  slices).
* **Budgets.**  An absolute monotonic ``deadline`` and a ``cancel`` probe
  stop the loop cleanly; unfinished tasks are simply not run and the
  report's ``stopped`` field records why.

Permanent failures never raise — they are returned in
:class:`ExecutionReport.failures` so the caller can produce a partial
result with ``complete=False``.

``run_serial`` applies the same retry bookkeeping without a pool (used
for ``workers=1``); there hangs cannot be interrupted, only crashes
(surfacing as exceptions) are recoverable.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.metrics import NULL_INSTRUMENTATION

try:  # BrokenExecutor covers BrokenProcessPool on all supported versions
    from concurrent.futures import BrokenExecutor
except ImportError:  # pragma: no cover
    from concurrent.futures.process import BrokenProcessPool as BrokenExecutor

__all__ = ["ExecutionReport", "ResilientExecutor", "TaskFailure"]


@dataclass
class TaskFailure:
    """One task that exhausted its retries."""

    task: tuple
    attempts: int
    error: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "task": list(self.task),
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class ExecutionReport:
    """Outcome of one :meth:`ResilientExecutor.run` call."""

    completed: int = 0
    retries: int = 0
    pool_restarts: int = 0
    failures: list[TaskFailure] = field(default_factory=list)
    stopped: str | None = None


def _kill_pool(pool: Executor) -> None:
    """Discard a pool, terminating any still-running worker processes."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    procs = getattr(pool, "_processes", None)
    if procs:
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass


class ResilientExecutor:
    """Run independent tasks with crash/hang recovery and bounded retries."""

    def __init__(
        self,
        *,
        task_fn: Callable[..., Any],
        pool_factory: Callable[[], Executor] | None = None,
        on_result: Callable[[tuple, Any], None],
        max_retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        task_timeout: float | None = None,
        max_inflight: int = 2,
        deadline: float | None = None,
        cancel: Callable[[], bool] | None = None,
        cancel_poll: float = 0.25,
        split_fn: Callable[[tuple, int], list[tuple] | None] | None = None,
        instr=NULL_INSTRUMENTATION,
    ):
        self.task_fn = task_fn
        self.pool_factory = pool_factory
        self.on_result = on_result
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.task_timeout = task_timeout
        self.max_inflight = max(1, max_inflight)
        self.deadline = deadline  # absolute time.monotonic() value
        self.cancel = cancel
        #: how often (seconds) the pooled loop re-polls ``cancel`` while
        #: waiting on futures; a cancellation therefore binds within one
        #: poll interval instead of at the next task completion
        self.cancel_poll = cancel_poll
        self.split_fn = split_fn
        #: observability handle (repro.obs): retry/crash/stall counters
        #: and per-incident trace events; no-op by default
        self.instr = instr

    # -- shared bookkeeping ------------------------------------------------

    def _remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def _out_of_time(self) -> bool:
        remaining = self._remaining()
        return remaining is not None and remaining <= 0

    def _register_failure(
        self,
        pending: deque,
        report: ExecutionReport,
        task: tuple,
        attempt: int,
        error: str,
    ) -> None:
        attempts = attempt + 1
        if attempts > self.max_retries:
            report.failures.append(TaskFailure(task, attempts, error))
            self.instr.counter(
                "executor_task_failures_total",
                "tasks that exhausted their retries",
            ).inc()
            self.instr.event(
                "task_failed", task=list(task), attempts=attempts, error=error
            )
            return
        report.retries += 1
        self.instr.counter(
            "executor_retries_total", "failed task attempts requeued"
        ).inc()
        self.instr.event(
            "task_retry", task=list(task), attempt=attempts, error=error
        )
        replacements = self.split_fn(task, attempts) if self.split_fn else None
        if replacements:
            pending.extend((t, 0) for t in replacements)
        else:
            pending.append((task, attempts))

    def _sleep_backoff(self, report: ExecutionReport) -> None:
        if self.backoff <= 0:
            return
        pause = min(
            self.backoff * (2 ** max(0, report.pool_restarts - 1)),
            self.backoff_cap,
        )
        remaining = self._remaining()
        if remaining is not None:
            pause = min(pause, max(0.0, remaining))
        if pause > 0:
            time.sleep(pause)

    # -- pooled execution --------------------------------------------------

    def run(self, tasks: list[tuple]) -> ExecutionReport:
        """Execute ``tasks`` on fresh pools until done, failed, or stopped."""
        assert self.pool_factory is not None
        report = ExecutionReport()
        pending: deque[tuple[tuple, int]] = deque((t, 0) for t in tasks)
        while pending and report.stopped is None:
            if self._out_of_time():
                report.stopped = "time_limit"
                break
            pool = self.pool_factory()
            try:
                recycle = self._run_generation(pool, pending, report)
            finally:
                _kill_pool(pool)
            if recycle and pending and report.stopped is None:
                report.pool_restarts += 1
                self.instr.counter(
                    "executor_pool_restarts_total",
                    "worker pools recycled after a crash or stall",
                ).inc()
                self.instr.event("pool_restart", generation=report.pool_restarts)
                self._sleep_backoff(report)
        return report

    def _run_generation(
        self,
        pool: Executor,
        pending: deque[tuple[tuple, int]],
        report: ExecutionReport,
    ) -> bool:
        """Drive one pool until it drains or breaks; True means recycle."""
        in_flight: dict[Future, tuple[tuple, int]] = {}
        broken = False
        # The stall window restarts at every completion; tracking the last
        # completion explicitly lets the wait below wake early to re-poll
        # ``cancel`` without shrinking the stall window.
        last_progress = time.monotonic()
        while (pending or in_flight) and report.stopped is None and not broken:
            if self.cancel is not None and self.cancel():
                report.stopped = "cancelled"
                break
            while pending and len(in_flight) < self.max_inflight:
                task, attempt = pending.popleft()
                try:
                    fut = pool.submit(self.task_fn, task, attempt)
                except Exception:  # pool already broken: requeue, then drain
                    pending.appendleft((task, attempt))
                    broken = True
                    break
                in_flight[fut] = (task, attempt)
            if broken:
                break
            window = None
            if self.task_timeout is not None:
                window = max(
                    0.0,
                    self.task_timeout - (time.monotonic() - last_progress),
                )
            remaining = self._remaining()
            if remaining is not None:
                window = remaining if window is None else min(window, remaining)
                if window <= 0:
                    report.stopped = "time_limit"
                    break
            if self.cancel is not None:
                window = (
                    self.cancel_poll if window is None
                    else min(window, self.cancel_poll)
                )
            done, _ = wait(
                set(in_flight), timeout=window, return_when=FIRST_COMPLETED
            )
            if not done:
                if self._out_of_time():
                    report.stopped = "time_limit"
                    break
                if self.cancel is not None and self.cancel():
                    report.stopped = "cancelled"
                    break
                if (
                    self.task_timeout is not None
                    and time.monotonic() - last_progress >= self.task_timeout
                ):
                    # Stall: nothing completed inside the window — declare
                    # the in-flight tasks hung and recycle the pool
                    # (terminating the stuck workers).
                    for task, attempt in in_flight.values():
                        self._register_failure(
                            pending, report, task, attempt,
                            f"task stalled past {self.task_timeout}s",
                        )
                    return True
                continue  # woke early to re-poll cancel; not a stall
            last_progress = time.monotonic()
            broken = self._consume(done, in_flight, pending, report)
            if self._out_of_time():
                report.stopped = "time_limit"
        if broken and in_flight and report.stopped is None:
            # The pool is broken: the remaining futures fail fast; collect
            # any real results that beat the crash, requeue the rest.
            done, not_done = wait(set(in_flight), timeout=1.0)
            self._consume(done, in_flight, pending, report)
            for task, attempt in in_flight.values():
                self._register_failure(
                    pending, report, task, attempt, "worker crashed (pool broken)"
                )
            in_flight.clear()
        return broken

    def _consume(
        self,
        done: set[Future],
        in_flight: dict[Future, tuple[tuple, int]],
        pending: deque[tuple[tuple, int]],
        report: ExecutionReport,
    ) -> bool:
        """Fold completed futures into the report; True when the pool broke."""
        broken = False
        for fut in done:
            task, attempt = in_flight.pop(fut)
            try:
                result = fut.result()
            except BaseException as exc:
                if isinstance(exc, BrokenExecutor):
                    broken = True
                self._register_failure(
                    pending, report, task, attempt,
                    f"{type(exc).__name__}: {exc}",
                )
            else:
                report.completed += 1
                self.instr.counter(
                    "executor_tasks_completed_total", "tasks finished"
                ).inc()
                self.on_result(task, result)
                if self.cancel is not None and self.cancel():
                    report.stopped = "cancelled"
                    break
        return broken

    # -- serial execution --------------------------------------------------

    def run_serial(self, tasks: list[tuple]) -> ExecutionReport:
        """Execute tasks inline with the same retry/budget bookkeeping."""
        report = ExecutionReport()
        pending: deque[tuple[tuple, int]] = deque((t, 0) for t in tasks)
        while pending and report.stopped is None:
            if self._out_of_time():
                report.stopped = "time_limit"
                break
            if self.cancel is not None and self.cancel():
                report.stopped = "cancelled"
                break
            task, attempt = pending.popleft()
            try:
                result = self.task_fn(task, attempt)
            except Exception as exc:
                self._register_failure(
                    pending, report, task, attempt,
                    f"{type(exc).__name__}: {exc}",
                )
                report.pool_restarts += 1
                self._sleep_backoff(report)
            else:
                report.completed += 1
                self.instr.counter(
                    "executor_tasks_completed_total", "tasks finished"
                ).inc()
                self.on_result(task, result)
        return report
