"""Resilient execution runtime: budgets, faults, checkpoints, recovery.

This package is the operational envelope around the enumeration
algorithms in :mod:`repro.core`:

* :mod:`repro.runtime.budget` — :class:`RunBudget` /
  :class:`BudgetGuard`: cooperative deadlines, result caps, node caps and
  external cancellation, enforced inside every enumeration loop.
* :mod:`repro.runtime.executor` — :class:`ResilientExecutor`: process-pool
  task execution that survives worker crashes and hangs, with bounded
  retries and exponential backoff.
* :mod:`repro.runtime.checkpoint` — JSONL checkpoint files that let a
  killed parallel run resume without redoing finished subtrees.
* :mod:`repro.runtime.durable` — the append, torn-tail read and atomic
  rewrite mechanics shared by the checkpoint, both journals and the
  result spool.
* :mod:`repro.runtime.faults` — :class:`FaultPlan`: deterministic
  crash/hang/slow injection used by the stress tests to prove all of the
  above.

See ``docs/robustness.md`` for the user-facing guide.
"""

from repro.runtime.budget import (
    NULL_GUARD,
    BudgetExceeded,
    BudgetGuard,
    RunBudget,
)
from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointWriter,
    load_checkpoint,
    reconcile_tasks,
    task_key,
)
from repro.runtime.executor import (
    ExecutionReport,
    ResilientExecutor,
    TaskFailure,
)
from repro.runtime.faults import FaultPlan, InjectedWorkerCrash

__all__ = [
    "BudgetExceeded",
    "BudgetGuard",
    "Checkpoint",
    "CheckpointError",
    "CheckpointWriter",
    "ExecutionReport",
    "FaultPlan",
    "InjectedWorkerCrash",
    "NULL_GUARD",
    "ResilientExecutor",
    "RunBudget",
    "TaskFailure",
    "load_checkpoint",
    "reconcile_tasks",
    "task_key",
]
