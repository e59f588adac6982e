"""Shared framework for all MBE algorithms: results, stats, limits, registry.

Every algorithm subclasses :class:`MBEAlgorithm` and implements a single
method that walks its enumeration tree and calls ``report(ls, rs)`` for each
maximal biclique.  The framework supplies:

* canonical :class:`Biclique` values (sorted tuples on both sides),
* :class:`EnumerationStats` counters every experiment reads,
* result-count / wall-clock limits that abort enumeration cleanly,
* an algorithm registry so benchmarks and the CLI can select by name.
"""

from __future__ import annotations

import sys
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.bigraph.graph import BipartiteGraph
from repro.obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from repro.runtime.budget import NULL_GUARD, BudgetExceeded, BudgetGuard, RunBudget


@dataclass(frozen=True, order=True, slots=True)
class Biclique:
    """A maximal biclique ``(L, R)`` in canonical form (sorted tuples).

    Slotted: no per-instance attribute dict, which a run holding thousands
    of results pays for in both construction time and memory.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    @classmethod
    def make(cls, left: Iterable[int], right: Iterable[int]) -> "Biclique":
        """Canonicalize arbitrary iterables into a :class:`Biclique`."""
        return cls(tuple(sorted(left)), tuple(sorted(right)))

    def swap(self) -> "Biclique":
        """Return the biclique with sides exchanged (for side-swapped graphs)."""
        return Biclique(self.right, self.left)

    @property
    def n_edges(self) -> int:
        """Number of edges the biclique covers, ``|L| * |R|``."""
        return len(self.left) * len(self.right)


class EnumerationStats:
    """Counters accumulated during one enumeration run.

    ``nodes``            enumeration-tree nodes expanded
    ``maximal``          maximal bicliques reported (α in the papers)
    ``non_maximal``      nodes rejected by the maximality check (δ)
    ``checks``           containment steps taken by the maximality check:
                         traversed sets scanned, or prefix-tree nodes visited
    ``trie_pruned``      containment steps the prefix tree avoided against a
                         scan of every stored set (``checks + trie_pruned``
                         is the summed traversed-set size over all queries)
    ``intersections``    neighbourhood intersections performed
    ``merged_candidates`` candidates absorbed by equal-signature merging
    ``subtrees``         first-level subproblems processed
    ``trie_peak_nodes``  peak prefix-tree size (MBET/MBETM only)
    ``trie_overflow``    containment sets that did not fit the trie budget
    ``threshold_pruned`` branches cut by min_left/min_right bounds
    """

    __slots__ = (
        "nodes",
        "maximal",
        "non_maximal",
        "checks",
        "trie_pruned",
        "intersections",
        "merged_candidates",
        "subtrees",
        "trie_peak_nodes",
        "trie_overflow",
        "threshold_pruned",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """Return all counters as a plain dict (for tables and JSON)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def merge(self, other: "EnumerationStats") -> None:
        """Accumulate another stats object (peaks take the max)."""
        for name in self.__slots__:
            if name == "trie_peak_nodes":
                setattr(self, name, max(getattr(self, name), getattr(other, name)))
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"EnumerationStats({body})"


class LimitReached(BudgetExceeded):
    """Raised internally to abort enumeration when a limit is hit.

    Kept as a subclass of :class:`repro.runtime.budget.BudgetExceeded` for
    backward compatibility; new code should raise/catch the base class.
    """


@dataclass
class EnumerationLimits:
    """Optional bounds on one enumeration run.

    ``max_bicliques`` stops after that many results; ``time_limit`` (seconds)
    stops at the first node boundary past the deadline.  A run cut short is
    flagged ``MBEResult.complete == False`` but keeps everything found.

    This is the thin, stable façade over :class:`repro.runtime.RunBudget`;
    pass a ``budget`` to :meth:`MBEAlgorithm.run` / :func:`run_mbe` for the
    full set of stop conditions (node caps, external cancellation).
    """

    max_bicliques: int | None = None
    time_limit: float | None = None

    def validate(self) -> None:
        """Raise ValueError on out-of-range limits."""
        if self.max_bicliques is not None and self.max_bicliques < 0:
            raise ValueError("max_bicliques must be non-negative")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")

    def as_budget(self) -> RunBudget | None:
        """Promote to a :class:`RunBudget`; None when nothing is bounded."""
        self.validate()
        if self.max_bicliques is None and self.time_limit is None:
            return None
        return RunBudget(
            time_limit=self.time_limit, max_bicliques=self.max_bicliques
        )


def resolve_budget(
    limits: EnumerationLimits | None, budget: RunBudget | None
) -> RunBudget | None:
    """Collapse the two budget-shaped run parameters into one.

    An explicit ``budget`` wins; otherwise ``limits`` is promoted.  Returns
    None when the run is entirely unbounded (the zero-overhead path).
    """
    if budget is not None:
        budget.validate()
        return None if budget.unbounded else budget
    if limits is not None:
        return limits.as_budget()
    return None


@dataclass
class MBEResult:
    """Outcome of one enumeration run."""

    algorithm: str
    count: int
    elapsed: float
    stats: EnumerationStats
    bicliques: list[Biclique] | None = None
    complete: bool = True
    meta: dict = field(default_factory=dict)

    def biclique_set(self) -> frozenset[Biclique]:
        """Return results as a set (requires the run to have collected them)."""
        if self.bicliques is None:
            raise ValueError("run was executed with collect=False")
        return frozenset(self.bicliques)


class _Sink:
    """Internal reporter: collection and counting only.

    This is the unbudgeted hot path — no limit branches, no clock reads.
    Budgeted runs use :class:`_GuardedSink` instead.
    """

    __slots__ = ("collect", "results", "count", "swapped")

    def __init__(self, collect: bool, swapped: bool):
        self.collect = collect
        self.results: list[Biclique] = []
        self.count = 0
        self.swapped = swapped

    def __call__(self, left: Iterable[int], right: Iterable[int]) -> None:
        self.count += 1
        if self.collect:
            b = Biclique.make(left, right)
            self.results.append(b.swap() if self.swapped else b)


class _GuardedSink(_Sink):
    """Reporter that additionally consults a budget guard per result."""

    __slots__ = ("guard",)

    def __init__(self, collect: bool, swapped: bool, guard: BudgetGuard):
        super().__init__(collect, swapped)
        self.guard = guard

    def __call__(self, left: Iterable[int], right: Iterable[int]) -> None:
        self.count += 1
        if self.collect:
            b = Biclique.make(left, right)
            self.results.append(b.swap() if self.swapped else b)
        self.guard.on_report(self.count)


class _InstrumentedSink(_Sink):
    """Reporter that additionally feeds the instrumentation per result.

    Separate subclasses (rather than optional branches in :class:`_Sink`)
    keep the plain un-instrumented, unbudgeted path free of any extra
    work — the same layering as the budget guard sinks.
    """

    __slots__ = ("instr", "stats")

    def __init__(self, collect: bool, swapped: bool,
                 instr: Instrumentation, stats: "EnumerationStats"):
        super().__init__(collect, swapped)
        self.instr = instr
        self.stats = stats

    def __call__(self, left: Iterable[int], right: Iterable[int]) -> None:
        super().__call__(left, right)
        self.instr.on_report(self.count, self.stats)


class _GuardedInstrumentedSink(_GuardedSink):
    """Budget-guarded reporter that also feeds the instrumentation."""

    __slots__ = ("instr", "stats")

    def __init__(self, collect: bool, swapped: bool, guard: BudgetGuard,
                 instr: Instrumentation, stats: "EnumerationStats"):
        super().__init__(collect, swapped, guard)
        self.instr = instr
        self.stats = stats

    def __call__(self, left: Iterable[int], right: Iterable[int]) -> None:
        super().__call__(left, right)
        self.instr.on_report(self.count, self.stats)


class _HookSink(_Sink):
    """Reporter that hands each canonical biclique to a caller-owned hook.

    The hook owns storage (``MBEResult.bicliques`` stays ``None``), which
    is what lets the serving layer degrade from in-RAM collection to
    spooling to count-only *mid-run*.  This path tolerates per-result
    branches on the guard/instrumentation, so one class covers the whole
    budgeted × instrumented matrix.
    """

    __slots__ = ("hook", "guard", "instr", "stats")

    def __init__(self, swapped: bool, hook: Callable[["Biclique"], None],
                 guard, instr, stats: "EnumerationStats"):
        super().__init__(False, swapped)
        self.hook = hook
        self.guard = guard
        self.instr = instr
        self.stats = stats

    def __call__(self, left: Iterable[int], right: Iterable[int]) -> None:
        self.count += 1
        b = Biclique.make(left, right)
        self.hook(b.swap() if self.swapped else b)
        if self.guard is not NULL_GUARD:
            self.guard.on_report(self.count)
        if self.instr.enabled:
            self.instr.on_report(self.count, self.stats)


class MBEAlgorithm(ABC):
    """Base class: subclasses implement :meth:`_enumerate` only.

    ``orient_smaller_v=True`` (the literature's convention) transparently
    swaps the graph so the enumeration side V is the smaller one, and swaps
    reported bicliques back.
    """

    #: registry name, overridden per subclass
    name: str = "abstract"

    #: Active budget guard for the current run.  Enumeration loops call
    #: ``self._guard.tick()`` once per tree node and
    #: ``self._guard.check_now()`` at subproblem boundaries; outside a
    #: budgeted run this is the no-op :data:`NULL_GUARD`, so the unbudgeted
    #: path pays one attribute lookup and an empty call per node.
    _guard = NULL_GUARD

    #: Active instrumentation handle for the current run.  Enumeration
    #: loops call ``self._instr.pulse(stats)`` at coarse boundaries (per
    #: subproblem or root branch) so progress stays alive through barren
    #: stretches; outside an instrumented run this is the no-op
    #: :data:`NULL_INSTRUMENTATION` (zero clock reads).
    _instr = NULL_INSTRUMENTATION

    def __init__(self, orient_smaller_v: bool = False):
        self.orient_smaller_v = orient_smaller_v

    @contextmanager
    def _oriented_thresholds(self, swapped: bool):
        """Swap ``min_left``/``min_right`` while enumerating a swapped graph.

        Size thresholds are stated in the caller's coordinates; once
        orientation swaps the sides, the constraint on the caller's left
        side binds the work graph's right side and vice versa.  Engines
        without thresholds pass through untouched.
        """
        ml = getattr(self, "min_left", None)
        mr = getattr(self, "min_right", None)
        if not swapped or ml is None or mr is None or ml == mr:
            yield
            return
        self.min_left, self.min_right = mr, ml
        try:
            yield
        finally:
            self.min_left, self.min_right = ml, mr

    @abstractmethod
    def _enumerate(
        self,
        graph: BipartiteGraph,
        report: Callable[[Sequence[int], Sequence[int]], None],
        stats: EnumerationStats,
    ) -> None:
        """Walk the enumeration tree, calling ``report`` per maximal biclique."""

    def run(
        self,
        graph: BipartiteGraph,
        collect: bool = True,
        limits: EnumerationLimits | None = None,
        budget: RunBudget | None = None,
        instrumentation: Instrumentation | None = None,
        on_biclique: Callable[[Biclique], None] | None = None,
    ) -> MBEResult:
        """Enumerate all maximal bicliques of ``graph``.

        With ``collect=False`` only counts and stats are kept, which is what
        the large benchmarks use (storing tens of thousands of bicliques
        would measure the allocator, not the algorithm).

        ``budget`` (or the simpler ``limits``) bounds the run; a tripped
        budget yields a partial result with ``complete=False`` and the
        stop reason in ``meta["stopped"]``.

        ``instrumentation`` attaches the observability subsystem
        (``docs/observability.md``): the ``enumerate`` phase is timed as a
        tracer span, the run's stats publish into the metric registry, and
        progress heartbeats fire from the reporting path.  Without it the
        run carries :data:`NULL_INSTRUMENTATION` and performs zero
        instrumentation clock reads.

        ``on_biclique``, when given, receives every maximal biclique as a
        canonical :class:`Biclique` the moment it is reported, and the
        caller owns storage: ``MBEResult.bicliques`` is ``None`` and
        ``collect`` is ignored.  This is the streaming seam the serving
        layer's memory watchdog uses to swap collection strategies
        mid-run (``docs/serving.md``).
        """
        budget = resolve_budget(limits, budget)
        instr = (
            instrumentation if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        work_graph, swapped = (
            graph.oriented_smaller_v() if self.orient_smaller_v else (graph, False)
        )
        stats = EnumerationStats()
        guard = NULL_GUARD if budget is None else budget.arm()
        if on_biclique is not None:
            collect = False
            sink = _HookSink(swapped, on_biclique, guard, instr, stats)
        elif budget is None:
            sink = (
                _InstrumentedSink(collect, swapped, instr, stats)
                if instr.enabled
                else _Sink(collect, swapped)
            )
        else:
            sink = (
                _GuardedInstrumentedSink(collect, swapped, guard, instr, stats)
                if instr.enabled
                else _GuardedSink(collect, swapped, guard)
            )

        # Enumeration recursion is bounded by the V side, but signature
        # chains inside a subtree can be as deep as the largest left
        # universe, so size the limit on both sides.  Pure-Python recursion
        # in CPython >= 3.11 does not grow the C stack per frame.
        depth_need = 4 * (work_graph.n_v + work_graph.n_u + 64)
        old_limit = sys.getrecursionlimit()
        if depth_need > old_limit:
            sys.setrecursionlimit(depth_need)
        if instr.enabled:
            instr.begin_run(
                self.name, stats,
                total_subtrees=sum(
                    1 for v in range(work_graph.n_v)
                    if work_graph.degree_v(v) > 0
                ),
            )
        start = time.perf_counter()
        complete = True
        stopped: str | None = None
        self._guard = guard
        self._instr = instr
        try:
            with instr.phase("enumerate"), self._oriented_thresholds(swapped):
                self._enumerate(work_graph, sink, stats)
        except BudgetExceeded as exc:
            complete = False
            stopped = exc.reason or guard.reason or "limit"
        finally:
            self._guard = NULL_GUARD
            self._instr = NULL_INSTRUMENTATION
            if depth_need > old_limit:
                sys.setrecursionlimit(old_limit)
        elapsed = time.perf_counter() - start
        stats.maximal = sink.count
        if instr.enabled:
            instr.end_run(self.name, stats, elapsed, sink.count, complete)
        return MBEResult(
            algorithm=self.name,
            count=sink.count,
            elapsed=elapsed,
            stats=stats,
            bicliques=sink.results if collect else None,
            complete=complete,
            meta={"stopped": stopped} if stopped else {},
        )


#: name -> algorithm factory; populated by the algorithm modules at import.
ALGORITHMS: dict[str, Callable[..., MBEAlgorithm]] = {}


def register(factory: Callable[..., MBEAlgorithm]) -> Callable[..., MBEAlgorithm]:
    """Class decorator adding an algorithm to the registry by its ``name``."""
    name = getattr(factory, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"algorithm {factory!r} must define a unique name")
    if name in ALGORITHMS:
        raise ValueError(f"duplicate algorithm name {name!r}")
    ALGORITHMS[name] = factory
    return factory


def available_algorithms() -> list[str]:
    """Return the registered algorithm names, sorted."""
    return sorted(ALGORITHMS)


def run_mbe(
    graph: BipartiteGraph,
    algorithm: str = "mbet",
    collect: bool = True,
    max_bicliques: int | None = None,
    time_limit: float | None = None,
    node_limit: int | None = None,
    budget: RunBudget | None = None,
    instrumentation: Instrumentation | None = None,
    on_biclique: Callable[[Biclique], None] | None = None,
    **options,
) -> MBEResult:
    """Run a registered algorithm by name — the library's main entry point.

    ``max_bicliques`` / ``time_limit`` / ``node_limit`` are shorthand for
    a :class:`~repro.runtime.RunBudget`; pass ``budget`` directly for the
    full set of stop conditions (external cancellation, custom check
    interval).  The enumeration-node cap is named ``node_limit`` here
    because ``max_nodes`` is already MBETM's trie-budget constructor
    option, which ``**options`` forwards.

    ``instrumentation`` attaches an :class:`repro.obs.Instrumentation`
    handle: metrics, phase spans, and progress heartbeats for the run.
    ``on_biclique`` streams every result to a caller-owned hook instead
    of collecting (see :meth:`MBEAlgorithm.run`).

    >>> from repro import BipartiteGraph, run_mbe
    >>> g = BipartiteGraph([(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)])
    >>> sorted(b.right for b in run_mbe(g, "mbet").bicliques)
    [(0, 1), (1,)]
    """
    try:
        factory = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; available: {available_algorithms()}"
        ) from None
    algo = factory(**options)
    if budget is None and (
        max_bicliques is not None or time_limit is not None or node_limit is not None
    ):
        budget = RunBudget(
            time_limit=time_limit,
            max_bicliques=max_bicliques,
            max_nodes=node_limit,
        )
    return algo.run(
        graph, collect=collect, budget=budget,
        instrumentation=instrumentation, on_biclique=on_biclique,
    )
