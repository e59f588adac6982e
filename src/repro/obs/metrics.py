"""Typed metrics and the :class:`Instrumentation` handle enumerators carry.

The metric model is deliberately Prometheus-shaped so the text-exposition
sink (:mod:`repro.obs.sinks`) is a direct rendering:

* :class:`Counter` — monotonically increasing totals (``*_total`` names),
* :class:`Gauge` — last-write-wins values (peaks, sizes, elapsed),
* :class:`Histogram` — bucketed observations with ``sum``/``count``,

all held in a :class:`MetricRegistry` keyed by ``(name, labels)``.

:class:`Instrumentation` bundles a registry, a
:class:`~repro.obs.trace.Tracer` and an optional
:class:`~repro.obs.progress.ProgressReporter` into the single handle that
is threaded through :meth:`repro.core.base.MBEAlgorithm.run`.  Mirroring
the ``NULL_GUARD`` pattern of :mod:`repro.runtime.budget`, an
un-instrumented run carries :data:`NULL_INSTRUMENTATION` instead — every
hook on it is an empty method, so the hot path pays one attribute lookup
and an empty call at its coarse boundaries and performs **zero clock
reads** (asserted by ``tests/test_obs.py`` with a counting fake clock).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Iterator

from repro.obs.progress import ProgressReporter
from repro.obs.trace import MONOTONIC, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricRegistry",
    "NULL_INSTRUMENTATION",
]

#: Default histogram bounds (seconds-flavoured, like Prometheus' defaults).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0
)

Labels = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: Labels = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-write-wins value (peaks, sizes, elapsed seconds)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: Labels = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def set(self, value: int | float) -> None:
        self.value = value

    def max(self, value: int | float) -> None:
        """Keep the larger of the current and the new value."""
        if value > self.value:
            self.value = value


class Histogram:
    """Cumulative-bucket histogram over fixed bounds."""

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "bounds", "bucket_counts",
                 "count", "sum")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Labels = (),
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.name = name
        self.help = help
        self.labels = labels
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # buckets are stored cumulatively (Prometheus semantics): bucket i
        # counts every observation <= bounds[i]
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1


Metric = Counter | Gauge | Histogram


class MetricRegistry:
    """Get-or-create store of metrics keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], Metric] = {}

    def _get(self, cls, name: str, help: str,
             labels: dict[str, str] | None, **kwargs) -> Any:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "",
                labels: dict[str, str] | None = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: dict[str, str] | None = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: dict[str, str] | None = None,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labels, bounds=bounds)

    def __iter__(self) -> Iterator[Metric]:
        """Metrics in (name, labels) order — the sink rendering order."""
        return iter(
            m for _, m in sorted(self._metrics.items(), key=lambda kv: kv[0])
        )

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict dump of every metric (JSON-ready, mergeable)."""
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self:
            key = _render_name(metric.name, metric.labels)
            if metric.kind == "counter":
                out["counters"][key] = metric.value
            elif metric.kind == "gauge":
                out["gauges"][key] = metric.value
            else:
                out["histograms"][key] = {
                    "bounds": list(metric.bounds),
                    "buckets": list(metric.bucket_counts),
                    "count": metric.count,
                    "sum": metric.sum,
                }
        return out

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dump into this registry.

        Counters and histograms add; gauges take the max (the only gauges
        crossing process boundaries are peaks).  This is how per-worker
        snapshots aggregate into the driver's registry.
        """
        for key, value in snap.get("counters", {}).items():
            name, labels = _parse_name(key)
            self.counter(name, labels=labels).inc(value)
        for key, value in snap.get("gauges", {}).items():
            name, labels = _parse_name(key)
            self.gauge(name, labels=labels).max(value)
        for key, dump in snap.get("histograms", {}).items():
            name, labels = _parse_name(key)
            hist = self.histogram(
                name, labels=labels, bounds=tuple(dump["bounds"])
            )
            if hist.bounds != tuple(dump["bounds"]):
                raise ValueError(f"histogram {key!r} bounds mismatch")
            for i, n in enumerate(dump["buckets"]):
                hist.bucket_counts[i] += n
            hist.count += dump["count"]
            hist.sum += dump["sum"]


def _render_name(name: str, labels: Labels) -> str:
    """``name{k="v",...}`` — the Prometheus sample-name rendering."""
    if not labels:
        return name
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{body}}}"


def _parse_name(key: str) -> tuple[str, dict[str, str] | None]:
    """Inverse of :func:`_render_name` for snapshot merging."""
    if "{" not in key:
        return key, None
    name, _, body = key.partition("{")
    labels: dict[str, str] = {}
    for part in body.rstrip("}").split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        labels[k] = v.strip('"')
    return name, labels


# --------------------------------------------------------------------------
# The instrumentation handle


#: EnumerationStats slots that publish as gauges (peaks), not counters.
_PEAK_STATS = frozenset({"trie_peak_nodes"})

#: Per-counter help strings for the EnumerationStats bridge.
_STAT_HELP = {
    "nodes": "enumeration-tree nodes expanded",
    "maximal": "maximal bicliques reported",
    "non_maximal": "nodes rejected by the maximality check",
    "checks": "containment steps (traversed sets scanned or trie nodes visited)",
    "trie_pruned": "containment steps the prefix tree avoided against a scan",
    "intersections": "neighbourhood intersections performed",
    "merged_candidates": "candidates absorbed by equal-signature merging",
    "subtrees": "first-level subproblems processed",
    "trie_peak_nodes": "peak prefix-tree size",
    "trie_overflow": "containment sets that did not fit the trie budget",
    "threshold_pruned": "branches cut by min_left/min_right bounds",
}


def stat_metric_name(stat: str) -> str:
    """Metric name for one ``EnumerationStats`` counter."""
    if stat in _PEAK_STATS:
        return f"mbe_{stat}"
    return f"mbe_{stat}_total"


class StatsView:
    """``EnumerationStats``-shaped read-only view over a registry.

    Keeps the old attribute API (``view.nodes``, ``view.as_dict()``)
    working for callers that consume stats through an
    :class:`Instrumentation` instead of a result object.
    """

    __slots__ = ("_registry",)

    def __init__(self, registry: MetricRegistry):
        self._registry = registry

    def __getattr__(self, name: str) -> int:
        if name not in _STAT_HELP:
            raise AttributeError(name)
        if name in _PEAK_STATS:
            return int(self._registry.gauge(stat_metric_name(name)).value)
        return int(self._registry.counter(stat_metric_name(name)).value)

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict, like ``EnumerationStats.as_dict``."""
        return {name: getattr(self, name) for name in _STAT_HELP}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"StatsView({body})"


class Instrumentation:
    """Live handle: metrics + tracer + optional progress, one clock.

    The enumeration framework calls four hooks:

    ``phase(name)``
        context manager timing one phase (``load`` / ``decompose`` /
        ``enumerate`` / ``verify``) as a tracer span.
    ``event(name, **fields)``
        appends a bounded, timestamped trace event.
    ``on_report(count, stats)``
        per-result hook (wired through the reporting sink); drives the
        progress heartbeat, throttled inside the reporter.
    ``pulse(stats)``
        coarse liveness hook at subproblem/task boundaries, so progress
        stays alive through stretches that report nothing.
    """

    enabled = True

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
        progress: ProgressReporter | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.clock = clock if clock is not None else MONOTONIC
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else Tracer(clock=self.clock)
        self.progress = progress

    # -- metric shorthands -------------------------------------------------

    def counter(self, name: str, help: str = "",
                labels: dict[str, str] | None = None) -> Counter:
        return self.registry.counter(name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: dict[str, str] | None = None) -> Gauge:
        return self.registry.gauge(name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: dict[str, str] | None = None,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self.registry.histogram(name, help, labels, bounds)

    # -- hooks the enumeration framework calls -----------------------------

    def phase(self, name: str):
        """Span context manager timing one named phase."""
        return self.tracer.span(name)

    def event(self, name: str, **fields: Any) -> None:
        self.tracer.event(name, **fields)

    def on_report(self, count: int, stats: Any) -> None:
        if self.progress is not None:
            self.progress.maybe_emit(count, stats)

    def pulse(self, stats: Any) -> None:
        if self.progress is not None:
            self.progress.maybe_emit(None, stats)

    # -- run lifecycle ------------------------------------------------------

    def begin_run(self, algorithm: str, stats: Any,
                  total_subtrees: int | None = None) -> None:
        """Mark a run's start: trace event plus progress arming."""
        self.event("run_start", algorithm=algorithm)
        if self.progress is not None:
            self.progress.start(total_subtrees=total_subtrees)

    def end_run(self, algorithm: str, stats: Any, elapsed: float,
                count: int, complete: bool) -> None:
        """Publish a finished run: stats bridge, run gauges, final progress."""
        self.publish_stats(stats)
        self.counter("mbe_runs_total", "enumeration runs finished").inc()
        self.gauge(
            "mbe_run_elapsed_seconds", "wall clock of the last run",
            labels={"algorithm": algorithm},
        ).set(elapsed)
        self.histogram(
            "mbe_run_seconds", "distribution of run wall clocks"
        ).observe(elapsed)
        if not complete:
            self.counter("mbe_runs_incomplete_total",
                         "runs stopped by a budget or failure").inc()
        self.event("run_end", algorithm=algorithm, count=count,
                   elapsed=elapsed, complete=complete)
        if self.progress is not None:
            self.progress.finish(count, stats)

    def publish_stats(self, stats: Any) -> None:
        """Fold an ``EnumerationStats`` (or its dict) into the registry."""
        items = stats.items() if isinstance(stats, dict) else \
            stats.as_dict().items()
        for name, value in items:
            if name in _PEAK_STATS:
                self.gauge(stat_metric_name(name), _STAT_HELP[name]).max(value)
            else:
                # zero values still register the counter, so the sink
                # output carries the full, stable metric set every run
                self.counter(
                    stat_metric_name(name), _STAT_HELP.get(name, "")
                ).inc(value)

    def stats_view(self) -> StatsView:
        """The published stats through the old attribute API."""
        return StatsView(self.registry)


class _NullMetric:
    """Write-only stand-in returned by ``NullInstrumentation`` shorthands."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def max(self, value: int | float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullInstrumentation:
    """Shared no-op handle: the zero-overhead path (no clock reads)."""

    __slots__ = ()
    enabled = False
    progress = None

    _NULL_CONTEXT = nullcontext()

    def phase(self, name: str):
        return self._NULL_CONTEXT

    def counter(self, name: str, help: str = "",
                labels: dict[str, str] | None = None) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "",
              labels: dict[str, str] | None = None) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "",
                  labels: dict[str, str] | None = None,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> _NullMetric:
        return _NULL_METRIC

    def event(self, name: str, **fields: Any) -> None:
        pass

    def on_report(self, count: int, stats: Any) -> None:
        pass

    def pulse(self, stats: Any) -> None:
        pass

    def begin_run(self, algorithm: str, stats: Any,
                  total_subtrees: int | None = None) -> None:
        pass

    def end_run(self, algorithm: str, stats: Any, elapsed: float,
                count: int, complete: bool) -> None:
        pass

    def publish_stats(self, stats: Any) -> None:
        pass


#: Singleton carried by algorithms whenever no instrumentation is active.
NULL_INSTRUMENTATION = NullInstrumentation()
