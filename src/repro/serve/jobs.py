"""Job model of the enumeration service: specs, states, records.

A *job* is one enumeration request: a graph source (zoo dataset key,
server-local edge-list path, or inline edges), an engine, size
thresholds, and a budget.  Specs are JSON-round-trippable — the HTTP
layer parses request bodies into :class:`JobSpec`, the journal persists
them verbatim, and a recovered server rebuilds its queue from them.

Job lifecycle (see ``docs/serving.md``)::

    queued -> running -> done | failed | cancelled
       ^          |
       '-- interrupted (drain or crash; re-queued on restart)

``interrupted`` is the crash-safety state: a job whose journal trail
ends at ``submitted``/``started``/``interrupted`` is re-enqueued when a
server restarts against the same state directory, resuming from its
checkpoint when the engine supports one.
"""

from __future__ import annotations

import uuid
from dataclasses import asdict, dataclass, field
from typing import Any

__all__ = [
    "Job", "JobSpec", "JobValidationError", "RETIRED_ENGINES",
    "TERMINAL_STATES",
]

#: States a job never leaves (short of a journal wipe).
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Engine names that left the registry when MBET became one engine.  A
#: spec naming one (an older client, or a journal written before) is
#: still admitted and runs on the planned chain, which MBET heads.
RETIRED_ENGINES = frozenset({"mbet_iter", "mbet_vec"})


class JobValidationError(ValueError):
    """Raised on a structurally invalid job spec (HTTP 400)."""


@dataclass
class JobSpec:
    """One enumeration request, JSON-round-trippable.

    Exactly one of ``dataset`` / ``graph_path`` / ``edges`` names the
    graph.  ``engine`` is the *requested* engine; the service may fall
    back along the configured chain when its circuit breaker is open or
    it fails (the engine that actually ran is reported in the result).
    ``faults`` carries :class:`repro.runtime.faults.FaultPlan` kwargs for
    chaos testing and is only honoured when the server runs with
    ``--allow-faults``.
    """

    engine: str = "mbet"
    dataset: str | None = None
    graph_path: str | None = None
    edges: list | None = None
    fmt: str = "auto"
    min_left: int = 1
    min_right: int = 1
    time_limit: float | None = None
    max_bicliques: int | None = None
    max_nodes: int | None = None
    collect: bool = True
    idempotency_key: str | None = None
    engine_options: dict = field(default_factory=dict)
    faults: dict | None = None
    #: never try another engine — a job whose result set is only correct
    #: for the requested engine (e.g. a cluster slice whose root range
    #: exists solely in ``parallel``) must fail rather than fall back
    no_fallback: bool = False

    def validate(self) -> None:
        """Raise :class:`JobValidationError` on a malformed spec."""
        sources = [
            s for s in (self.dataset, self.graph_path, self.edges)
            if s is not None
        ]
        if len(sources) != 1:
            raise JobValidationError(
                "exactly one of dataset / graph_path / edges is required"
            )
        if self.edges is not None:
            if not isinstance(self.edges, list) or not self.edges:
                raise JobValidationError("edges must be a non-empty list")
            for e in self.edges:
                if (
                    not isinstance(e, (list, tuple))
                    or len(e) != 2
                    or not all(isinstance(x, int) and x >= 0 for x in e)
                ):
                    raise JobValidationError(
                        f"edges entries must be [u, v] pairs of "
                        f"non-negative ints, got {e!r}"
                    )
        if not isinstance(self.engine, str) or not self.engine:
            raise JobValidationError("engine must be a non-empty string")
        if self.min_left < 1 or self.min_right < 1:
            raise JobValidationError("size thresholds must be >= 1")
        if self.time_limit is not None and self.time_limit <= 0:
            raise JobValidationError("time_limit must be positive")
        if self.max_bicliques is not None and self.max_bicliques < 0:
            raise JobValidationError("max_bicliques must be non-negative")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise JobValidationError("max_nodes must be positive")
        if not isinstance(self.engine_options, dict):
            raise JobValidationError("engine_options must be an object")
        if self.faults is not None and not isinstance(self.faults, dict):
            raise JobValidationError("faults must be an object")
        if not isinstance(self.no_fallback, bool):
            raise JobValidationError("no_fallback must be a boolean")

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready dump (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Any) -> "JobSpec":
        """Parse an HTTP/journal payload; raises on unknown fields."""
        if not isinstance(payload, dict):
            raise JobValidationError("job spec must be a JSON object")
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise JobValidationError(
                f"unknown job spec fields: {sorted(unknown)}"
            )
        spec = cls(**payload)
        spec.validate()
        return spec


def new_job_id() -> str:
    """Collision-resistant job id (stable across restarts by journaling)."""
    return "j-" + uuid.uuid4().hex[:12]


@dataclass
class Job:
    """Live (or journal-recovered) state of one job inside the service."""

    job_id: str
    spec: JobSpec
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: outcome summary (count, complete, engine, fallbacks, degradation…)
    summary: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    #: set when the job was re-enqueued by journal recovery
    recovered: bool = False
    attempts: int = 0
    #: a client asked for cancellation while the job was running
    cancel_requested: bool = False

    def status_payload(self) -> dict[str, Any]:
        """The ``GET /jobs/<id>`` response body."""
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "engine_requested": self.spec.engine,
            "recovered": self.recovered,
        }
        if self.summary:
            out["summary"] = self.summary
        if self.error:
            out["error"] = self.error
        return out
