"""Slice descriptors and the exactly-once merge primitive.

A **slice** is the unit of federated work: a contiguous index range
``[lo, hi)`` over the canonical addressable-root list of a graph under a
fixed ``(order, seed)``.  Disjoint ranges partition the enumeration — the
prefix-tree decomposition assigns every maximal biclique to exactly one
first-level root — so the union of slice results over a covering,
non-overlapping set of ranges *is* the full result set, no cross-slice
deduplication required.

The descriptors are JSON-round-trippable and carry a **fingerprint**
binding the slice to its graph source, ordering, range, and thresholds.
Workers refuse a slice whose root space disagrees with the
coordinator's (``n_roots`` mismatch), and the coordinator's merge
(:class:`RangeCoverage`) accepts each root range at most once — together
these turn at-least-once dispatch into an exactly-once merge.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.serve.jobs import JobValidationError

__all__ = ["RangeCoverage", "SliceSpec", "plan_slices"]


@dataclass
class SliceSpec:
    """One shard of a federated enumeration job, JSON-round-trippable."""

    slice_id: str
    lo: int
    hi: int
    #: size of the addressable-root list both sides must agree on
    n_roots: int
    order: str = "degree"
    seed: int = 0
    dataset: str | None = None
    graph_path: str | None = None
    edges: list | None = None
    fmt: str = "auto"
    min_left: int = 1
    min_right: int = 1
    time_limit: float | None = None
    engine_options: dict = field(default_factory=dict)
    faults: dict | None = None
    #: content hash of the planned-against graph
    #: (:func:`repro.artifacts.graph_key`); workers that resolve a
    #: different hash refuse the slice outright — a stronger identity
    #: check than the ``n_roots`` count, which can collide across
    #: different graphs.  None on journals from before this field.
    graph_key: str | None = None

    def validate(self) -> None:
        if not isinstance(self.slice_id, str) or not self.slice_id:
            raise JobValidationError("slice_id must be a non-empty string")
        if not all(
            isinstance(x, int) for x in (self.lo, self.hi, self.n_roots)
        ):
            raise JobValidationError("lo/hi/n_roots must be integers")
        if not (0 <= self.lo < self.hi <= self.n_roots):
            raise JobValidationError(
                f"slice range [{self.lo}, {self.hi}) must sit inside "
                f"[0, {self.n_roots})"
            )
        sources = [
            s for s in (self.dataset, self.graph_path, self.edges)
            if s is not None
        ]
        if len(sources) != 1:
            raise JobValidationError(
                "exactly one of dataset / graph_path / edges is required"
            )
        if not isinstance(self.engine_options, dict):
            raise JobValidationError("engine_options must be an object")

    def fingerprint(self) -> str:
        """Identity hash of the slice for exactly-once accounting.

        Two dispatches of the same shard of the same job hash equal, so
        the worker-side idempotency store deduplicates redeliveries and
        the coordinator can recognise a result's provenance.
        """
        ident = {
            "dataset": self.dataset,
            "graph_path": self.graph_path,
            "edges": self.edges,
            "graph_key": self.graph_key,
            "order": self.order,
            "seed": self.seed,
            "lo": self.lo,
            "hi": self.hi,
            "n_roots": self.n_roots,
            "min_left": self.min_left,
            "min_right": self.min_right,
        }
        blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_job_payload(self) -> dict[str, Any]:
        """The ``POST /jobs`` spec that executes this slice on a worker.

        Always the ``parallel`` engine (the only one that understands
        ``root_range``) with ``no_fallback`` — falling back to a
        whole-graph engine would silently return the *full* result set
        and corrupt the merge — and an idempotency key derived from the
        fingerprint so redelivery to the same worker reuses the first
        run.
        """
        options = dict(self.engine_options)
        options.setdefault("workers", 1)
        options["root_range"] = [self.lo, self.hi]
        options["order"] = self.order
        options["seed"] = self.seed
        payload: dict[str, Any] = {
            "engine": "parallel",
            "dataset": self.dataset,
            "graph_path": self.graph_path,
            "edges": self.edges,
            "fmt": self.fmt,
            "min_left": self.min_left,
            "min_right": self.min_right,
            "time_limit": self.time_limit,
            "collect": True,
            "no_fallback": True,
            "idempotency_key": f"slice:{self.fingerprint()}",
            "engine_options": options,
        }
        if self.faults is not None:
            payload["faults"] = self.faults
        return payload

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Any) -> "SliceSpec":
        if not isinstance(payload, dict):
            raise JobValidationError("slice spec must be a JSON object")
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise JobValidationError(
                f"unknown slice spec fields: {sorted(unknown)}"
            )
        spec = cls(**payload)
        spec.validate()
        return spec

    def split(self) -> list["SliceSpec"]:
        """Halve the range for straggler mitigation; [] when atomic.

        Children get derived ids (``s3`` → ``s3.0``/``s3.1``) and fresh
        fingerprints; the parent's range is exactly the union of the
        children's, so :class:`RangeCoverage` arbitrates whichever of
        parent/children completes first.
        """
        if self.hi - self.lo < 2:
            return []
        mid = (self.lo + self.hi) // 2
        out = []
        for i, (lo, hi) in enumerate(((self.lo, mid), (mid, self.hi))):
            child = SliceSpec(**{
                **self.as_dict(),
                "slice_id": f"{self.slice_id}.{i}",
                "lo": lo,
                "hi": hi,
            })
            out.append(child)
        return out


def plan_slices(
    graph,
    n_slices: int,
    source: dict[str, Any],
    order: str = "degree",
    seed: int = 0,
    costs: list[int] | None = None,
    **fields: Any,
) -> list[SliceSpec]:
    """Plan load-balanced slices of ``graph`` for a federated job.

    ``source`` carries exactly one of ``dataset`` / ``graph_path`` /
    ``edges`` (how *workers* will load the graph); ``costs`` are the
    per-root costs (:func:`repro.plan.root_cost_estimates`, computed here
    when not given); extra ``fields`` are forwarded to every
    :class:`SliceSpec` (thresholds, time limits, engine options, chaos
    faults).
    """
    from repro.core.parallel import plan_root_ranges
    from repro.plan import root_cost_estimates

    if costs is None:
        costs = root_cost_estimates(graph, order, seed=seed)
    n_roots = len(costs)
    ranges = plan_root_ranges(costs, n_slices)
    return [
        SliceSpec(
            slice_id=f"s{i:04d}",
            lo=lo,
            hi=hi,
            n_roots=n_roots,
            order=order,
            seed=seed,
            **source,
            **fields,
        )
        for i, (lo, hi) in enumerate(ranges)
    ]


class RangeCoverage:
    """Exactly-once arbiter over the root-index space ``[0, n)``.

    Maintains a sorted set of disjoint accepted ranges.  :meth:`add`
    accepts a range only when it overlaps nothing already accepted —
    duplicate deliveries (reassigned slices whose first owner turned out
    alive, parents racing their re-split children) are rejected and the
    caller discards their results.  The merge is complete when the
    accepted ranges cover the whole space.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = n
        self._ranges: list[tuple[int, int]] = []  # sorted, disjoint

    def overlaps(self, lo: int, hi: int) -> bool:
        i = bisect_left(self._ranges, (lo, lo))
        for a, b in self._ranges[max(0, i - 1):i + 1]:
            if a < hi and lo < b:
                return True
        return False

    def add(self, lo: int, hi: int) -> bool:
        """Accept ``[lo, hi)``; False (and no change) on any overlap."""
        if not (0 <= lo < hi <= self.n):
            raise ValueError(f"range [{lo}, {hi}) outside [0, {self.n})")
        if self.overlaps(lo, hi):
            return False
        i = bisect_left(self._ranges, (lo, hi))
        self._ranges.insert(i, (lo, hi))
        return True

    @property
    def covered(self) -> int:
        return sum(hi - lo for lo, hi in self._ranges)

    @property
    def complete(self) -> bool:
        return self.covered == self.n

    def missing(self) -> list[tuple[int, int]]:
        """The uncovered gaps, in order."""
        gaps = []
        cursor = 0
        for lo, hi in self._ranges:
            if lo > cursor:
                gaps.append((cursor, lo))
            cursor = hi
        if cursor < self.n:
            gaps.append((cursor, self.n))
        return gaps
