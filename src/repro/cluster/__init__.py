"""repro.cluster — federated, crash-tolerant multi-node enumeration.

A :class:`ClusterCoordinator` shards one enumeration job into root-range
*slices* over the canonical first-level root list
(:func:`repro.core.parallel.addressable_roots`), dispatches the slices
to peer ``repro serve`` workers over the existing HTTP job API, and
merges the per-slice results into one exact, duplicate-free maximal
biclique set.  Robustness model (see ``docs/cluster.md``):

* **at-least-once dispatch, exactly-once merge** — a slice may be sent
  to several workers (reassignment after a lost heartbeat, straggler
  re-splitting); the merge accepts each root range once, keyed by range
  coverage, and discards every duplicate delivery;
* **worker loss** — heartbeats with a timeout declare a worker dead and
  its in-flight slices lost; lost slices are reassigned to healthy
  peers with exponential backoff and jitter, capped by the job budget;
* **coordinator loss** — every slice transition is journaled to an
  append-only JSONL file (:mod:`repro.runtime.durable`'s torn-tail
  rule) and completed slice results are spooled to disk, so a
  ``kill -9``'d coordinator restarts from completed-slice state without
  re-running finished shards.
"""

from repro.cluster.coordinator import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterResult,
)
from repro.cluster.journal import ClusterJournal, load_cluster_journal
from repro.cluster.slices import RangeCoverage, SliceSpec, plan_slices
from repro.cluster.client import WorkerClient, WorkerUnreachable

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterJournal",
    "ClusterResult",
    "RangeCoverage",
    "SliceSpec",
    "WorkerClient",
    "WorkerUnreachable",
    "load_cluster_journal",
    "plan_slices",
]
