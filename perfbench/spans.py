"""In-memory span recording around calls into the program's layers.

A :class:`Tracer` keeps spans as plain lists in memory and writes them
out once, when the process ends.  Spans nest per thread: a span opened
while another is open on the same thread becomes its child, and a root
span carries the trace id every descendant shares (a benchmark op id,
or a serve job id).  A layer's *self time* is its span's duration minus
the durations of its child spans.

Wrappers are installed by rebinding a function where the program's
callers look it up (a module global or a class attribute), so the
program itself is not edited; when the tracer is disabled a wrapper
costs one attribute check.  The same ``time.perf_counter`` clock
(CLOCK_MONOTONIC on Linux) is used in every process, so spans from the
benchmark client and from the server subprocesses share one time axis.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

# span record layout: [name, start, end, parent index, trace id, attrs]
NAME, START, END, PARENT, TRACE, ATTRS = range(6)


class Tracer:
    """Span store of one process."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent][TRACE]
        record = [name, time.perf_counter(), None, parent, trace, None]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, trace: str | None = None,
              **attrs: Any) -> None:
        record = self.spans[index]
        record[END] = time.perf_counter()
        if trace is not None:
            record[TRACE] = trace
        if attrs:
            record[ATTRS] = attrs
        self._stack().pop()

    def span(self, name: str, trace: str | None = None) -> "_Span":
        return _Span(self, name, trace)

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             attrs: Callable[..., dict] | None = None) -> Callable:
        """``fn`` recorded as a span; ``attrs(result, *args, **kw)`` may
        add attributes (a ``"trace"`` key sets the root's trace id)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            index = tracer.open(label)
            extra: dict = {}
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(result, *args, **kwargs) or {}
                return result
            finally:
                tracer.close(index, **extra)

        return wrapper

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Record each ``next()`` of the generator ``fn`` returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                if not tracer.enabled:
                    yield from iterator
                    return
                index = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


class _Span:
    def __init__(self, tracer: Tracer, name: str, trace: str | None):
        self.tracer, self.name, self.trace = tracer, name, trace
        self.index: int | None = None
        self.attrs: dict[str, Any] = {}

    def __enter__(self) -> "_Span":
        if self.tracer.enabled:
            self.index = self.tracer.open(self.name, self.trace)
        return self

    def __exit__(self, *exc) -> None:
        if self.index is not None:
            self.tracer.close(self.index, **self.attrs)


# -- installing wrappers where the program binds the functions -------------

def rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module global bound to ``original``
    at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def patch_method(cls: type, attr: str, tracer: Tracer, name,
                 attrs: Callable[..., dict] | None = None) -> None:
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, attrs))


def install_core(tracer: Tracer) -> None:
    """Spans inside ``run_mbe``: ordering and first-level decomposition."""
    from repro.bigraph.ordering import vertex_order
    from repro.core.decompose import iter_subproblems

    import repro.core.mbet  # noqa: F401 - the engines bind the generator
    import repro.core.mbetm  # noqa: F401
    import repro.core.parallel  # noqa: F401

    rebind(vertex_order, tracer.wrap(vertex_order, "bigraph.order"))
    rebind(iter_subproblems,
           tracer.wrap_generator(iter_subproblems, "core.decompose"))


def _run_attrs(result, *args, **kwargs) -> dict:
    return {"stats": result.stats.as_dict()}


def _plan_attrs(plan, *args, **kwargs) -> dict:
    return {"engine": plan.chosen.engine,
            "predicted": plan.chosen.predicted_seconds}


def install_program(tracer: Tracer) -> None:
    """Spans around every layer a ``repro serve`` process runs.

    Used by the server launcher; also covers what a federated slice runs
    (the ``parallel`` engine's checkpoint writes).
    """
    from repro.artifacts.store import ArtifactStore
    from repro.bigraph.io import read_edge_list
    from repro.core.base import run_mbe
    from repro.plan import build_plan
    from repro.runtime.checkpoint import CheckpointWriter
    from repro.serve.journal import JobJournal
    from repro.serve.server import EnumerationService

    install_core(tracer)
    rebind(read_edge_list, tracer.wrap(read_edge_list, "bigraph.parse"))
    rebind(build_plan, tracer.wrap(build_plan, "plan.build", _plan_attrs))
    rebind(run_mbe, tracer.wrap(run_mbe, "core.run", _run_attrs))
    patch_method(
        EnumerationService, "submit", tracer, "serve.admit",
        lambda res, *a, **k: {"trace": res[0].job_id,
                              "cache_hit": res[0].state == "done"},
    )
    patch_method(
        EnumerationService, "_run_job", tracer, "serve.execute",
        lambda res, self, job: {
            "trace": job.job_id,
            "queue_wait": (job.started_at or 0.0) - job.submitted_at,
        },
    )

    def journal_bytes(res, journal, *args, **kwargs) -> dict:
        import os

        return {"size": os.path.getsize(journal.path)}

    patch_method(JobJournal, "record_event", tracer,
                 "serve.journal_append", journal_bytes)
    patch_method(ArtifactStore, "get", tracer, "artifacts.get",
                 lambda res, *a, **k: {"hit": res is not None})
    patch_method(ArtifactStore, "put", tracer, "artifacts.put")
    patch_method(CheckpointWriter, "record", tracer,
                 "runtime.checkpoint_record")


def _rpc_name(client, method: str, path: str, body=None) -> str:
    if method == "POST" and path == "/slices":
        return "cluster.dispatch"
    if method == "GET" and path.startswith("/jobs/"):
        return ("cluster.result_fetch" if path.endswith("/result")
                else "cluster.poll")
    return "cluster.rpc"


def _rpc_attrs(result, client, method: str, path: str, body=None) -> dict:
    status, payload = result
    out = {"status": status}
    if method == "GET" and path.startswith("/jobs/") and \
            not path.endswith("/result"):
        out["job_id"] = path.split("/")[2]
        out["state"] = payload.get("state")
    elif method == "POST" and path == "/slices":
        out["deduplicated"] = bool(payload.get("deduplicated"))
    return out


def install_coordinator(tracer: Tracer) -> None:
    """Spans around the federated coordinator's layers (in-process)."""
    from repro.bigraph.io import read_edge_list
    from repro.cluster.client import WorkerClient
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.journal import ClusterJournal

    install_core(tracer)
    rebind(read_edge_list, tracer.wrap(read_edge_list, "bigraph.parse"))
    patch_method(ClusterCoordinator, "_load_graph", tracer, "cluster.plan")
    patch_method(ClusterCoordinator, "_plan", tracer, "cluster.plan")
    patch_method(ClusterCoordinator, "_resplit", tracer, "cluster.resplit")
    patch_method(WorkerClient, "request", tracer, _rpc_name, _rpc_attrs)
    for attr in ("record_plan", "record_slice", "record_terminal"):
        patch_method(ClusterJournal, attr, tracer, "cluster.journal_append")


# -- analysis ----------------------------------------------------------------

def self_times(spans: list[list[Any]]) -> list[float]:
    """Self time of every span: duration minus its children's durations."""
    out = [
        (s[END] - s[START]) if s[END] is not None else 0.0 for s in spans
    ]
    for s in spans:
        if s[PARENT] is not None and s[END] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def self_time_by_layer(spans: list[list[Any]]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    for index, value in enumerate(self_times(spans)):
        totals[spans[index][NAME]] += value
    return dict(totals)
