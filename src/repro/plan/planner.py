"""The engine planner: score candidates, pick one, explain the choice.

:func:`build_plan` turns a graph (or a precomputed
:class:`~repro.plan.features.PlanFeatures` signature) into an
explainable :class:`Plan`: every candidate ``(engine, ordering,
parallelism)`` the registry offers is scored by the cost model
(:mod:`repro.plan.model`), ineligible candidates are kept with the
reason they were rejected, and live circuit-breaker state composes in
as *demotion* — an engine whose breaker is open keeps its score but
ranks after every healthy candidate, so the service tries it last
rather than never.

The ranked chain (:meth:`Plan.engine_chain`) is what ``repro serve``
executes in place of its old hardcoded fallback chain; ``repro run``
uses the top candidate when no ``--algorithm`` is given; the cluster
coordinator sizes slices and straggler thresholds from the same per-root
estimates via :func:`recommend_slices` /
:func:`recommend_straggler_factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.plan.features import PlanFeatures, cached_features, extract_features
from repro.plan.model import MODEL_VERSION, CostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.artifacts.store import ArtifactStore
    from repro.bigraph.graph import BipartiteGraph

__all__ = [
    "Plan",
    "PlanCandidate",
    "PlanError",
    "build_plan",
    "fine_slicing_min_wedges",
    "recommend_slices",
    "recommend_straggler_factor",
    "root_cost_estimates",
]

#: Engines the planner considers, in tie-break preference order: MBET,
#: MBEA as the one fallback that shares no code with it, and the process
#: pool.  The other registered engines are references for experiments and
#: the fuzz battery: they exist to check answers, not to serve traffic.
PLANNER_ENGINES: tuple[str, ...] = ("mbet", "mbea", "parallel")

#: Graphs below this many edges pick ``natural`` ordering and never plan
#: onto ``parallel``: enumeration is microseconds either way, so the
#: degree sort or the pool's dispatch would dominate.
TINY_EDGE_COUNT = 64

#: Predicted seconds of serial work above which the process-pool engine
#: is worth its dispatch overhead (given more than one core).
PARALLEL_WORTTHWHILE_SECONDS = 5.0

#: Budget headroom: recommended time limit = ``HEADROOM ×`` prediction,
#: clamped to ``[BUDGET_FLOOR, BUDGET_CEIL]`` seconds (graphs under
#: ``TINY_EDGE_COUNT`` edges get the floor).  Generous on purpose — a
#: budget exists to stop runaways, not to shave P99s.
BUDGET_HEADROOM = 20.0
BUDGET_FLOOR_SECONDS = 5.0
BUDGET_CEIL_SECONDS = 600.0


class PlanError(RuntimeError):
    """No eligible engine exists for the requested constraints."""


@dataclass
class PlanCandidate:
    """One scored ``(engine, ordering, parallelism)`` configuration."""

    engine: str
    ordering: str
    workers: int
    predicted_seconds: float | None
    eligible: bool
    demoted: bool = False
    reasons: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "ordering": self.ordering,
            "workers": self.workers,
            "predicted_seconds": self.predicted_seconds,
            "eligible": self.eligible,
            "demoted": self.demoted,
            "reasons": list(self.reasons),
        }


@dataclass
class Plan:
    """The planner's explainable output for one job."""

    features: PlanFeatures
    #: ranked: eligible candidates by (demoted, score), then ineligible
    candidates: list[PlanCandidate]
    budget_seconds: float
    graph_key: str | None = None
    model_version: str = MODEL_VERSION
    n_cores: int = 1

    @property
    def chosen(self) -> PlanCandidate:
        """The winning candidate (first eligible in rank order)."""
        for cand in self.candidates:
            if cand.eligible:
                return cand
        raise PlanError("no eligible engine for this job")

    def engine_chain(self) -> list[str]:
        """Eligible engines in execution order (the fallback chain)."""
        return [c.engine for c in self.candidates if c.eligible]

    def predicted_seconds_for(self, engine: str) -> float | None:
        """The scored prediction for ``engine``, or None if unknown."""
        for cand in self.candidates:
            if cand.engine == engine:
                return cand.predicted_seconds
        return None

    def as_dict(self) -> dict[str, Any]:
        return {
            "graph_key": self.graph_key,
            "model_version": self.model_version,
            "n_cores": self.n_cores,
            "features": self.features.as_dict(),
            "chosen": self.chosen.as_dict(),
            "budget_seconds": self.budget_seconds,
            "candidates": [c.as_dict() for c in self.candidates],
        }

    def explain(self) -> str:
        """Human-readable plan: the choice, the scores, and the whys."""
        f = self.features
        chosen = self.chosen
        lines = [
            (
                f"graph{' ' + self.graph_key[:12] if self.graph_key else ''}:"
                f" {f.n_u:,} x {f.n_v:,} vertices, {f.n_edges:,} edges, "
                f"density {f.density:.4g}, degree skew {f.degree_skew:.1f}, "
                f"D2 {f.max_two_hop:,}, cost {f.cost:,}, "
                f"{f.n_components:,} component(s)"
            ),
            (
                f"chosen: engine={chosen.engine} ordering={chosen.ordering} "
                f"workers={chosen.workers} "
                f"budget={self.budget_seconds:.1f}s "
                f"predicted={chosen.predicted_seconds:.4f}s"
            ),
            "candidates:",
        ]
        rank = 0
        for cand in self.candidates:
            if cand.eligible:
                rank += 1
                status = "chosen" if cand is chosen else (
                    "demoted" if cand.demoted else "ok"
                )
                label = f"{rank:>4}"
                predicted = f"{cand.predicted_seconds:.4f}s"
            else:
                status = "ineligible"
                label = "   -"
                predicted = "-"
            why = f" ({'; '.join(cand.reasons)})" if cand.reasons else ""
            lines.append(
                f"{label}  {cand.engine:<10} {predicted:>10}  {status}{why}"
            )
        return "\n".join(lines)


def _candidate_engines(
    engines: Iterable[str] | None,
) -> list[str]:
    from repro.core.base import ALGORITHMS

    pool = tuple(engines) if engines is not None else PLANNER_ENGINES
    return [e for e in pool if e in ALGORITHMS]


def _pick_ordering(features: PlanFeatures) -> tuple[str, str]:
    """The ordering strategy and the reason it was picked."""
    if features.n_edges < TINY_EDGE_COUNT:
        return "natural", (
            f"graph has {features.n_edges} edges (< {TINY_EDGE_COUNT}); "
            f"ordering overhead would dominate"
        )
    return "degree", (
        "ascending-degree roots keep early subtrees small (the "
        "calibration data is measured under this ordering)"
    )


def build_plan(
    graph: "BipartiteGraph | None" = None,
    *,
    features: PlanFeatures | None = None,
    graph_key: str | None = None,
    store: "ArtifactStore | None" = None,
    engines: Iterable[str] | None = None,
    min_left: int = 1,
    min_right: int = 1,
    breaker_states: Mapping[str, str] | None = None,
    model: CostModel | None = None,
    n_cores: int | None = None,
) -> Plan:
    """Plan one job: extract features, score candidates, rank, explain.

    ``features`` short-circuits extraction; otherwise a ``store`` (plus
    ``graph_key``) answers repeat planning from the persisted feature
    cache, and a bare ``graph`` is scanned directly.  ``breaker_states``
    (engine → ``closed|half_open|open``) demotes open-breaker engines to
    the back of the eligible ranking.  ``engines`` restricts the
    candidate pool (default: every registry engine the planner serves).
    """
    import inspect

    from repro.core.base import ALGORITHMS

    if features is None:
        if graph is None:
            raise ValueError("build_plan needs a graph or its features")
        if store is not None:
            if graph_key is None:
                from repro.artifacts.kinds import graph_key as _graph_key

                graph_key = _graph_key(graph)
            features = cached_features(store, graph_key, graph)
        else:
            features = extract_features(graph)
    model = model if model is not None else CostModel(n_cores=n_cores)
    ordering, ordering_reason = _pick_ordering(features)
    needs_thresholds = min_left > 1 or min_right > 1
    breaker_states = breaker_states or {}

    eligible: list[PlanCandidate] = []
    rejected: list[PlanCandidate] = []
    for engine in _candidate_engines(engines):
        reasons: list[str] = []
        workers = 1
        if engine == "parallel":
            workers = model.n_cores
        if needs_thresholds:
            params = inspect.signature(ALGORITHMS[engine]).parameters
            if "min_left" not in params:
                rejected.append(PlanCandidate(
                    engine=engine, ordering=ordering, workers=workers,
                    predicted_seconds=None, eligible=False,
                    reasons=[
                        f"job sets size thresholds ({min_left}x{min_right}) "
                        f"this engine cannot enforce"
                    ],
                ))
                continue
        predicted = model.predict_seconds(engine, features)
        if engine == "parallel":
            if model.n_cores <= 1:
                rejected.append(PlanCandidate(
                    engine=engine, ordering=ordering, workers=workers,
                    predicted_seconds=predicted, eligible=False,
                    reasons=["single-core host: the process pool is pure "
                             "overhead"],
                ))
                continue
            if features.n_edges < TINY_EDGE_COUNT:
                # the serial predictions here are extrapolation (see the
                # ranking below); the real work is microseconds, which
                # the pool's dispatch overhead can never pay back
                rejected.append(PlanCandidate(
                    engine=engine, ordering=ordering, workers=workers,
                    predicted_seconds=predicted, eligible=False,
                    reasons=[
                        f"tiny graph ({features.n_edges} edges, < "
                        f"{TINY_EDGE_COUNT}): serial work is far under the "
                        f"{PARALLEL_WORTTHWHILE_SECONDS:.0f}s bar where "
                        f"pool dispatch pays off"
                    ],
                ))
                continue
            serial_best = min(
                (
                    c.predicted_seconds for c in eligible
                    if c.predicted_seconds is not None
                ),
                default=None,
            )
            if (
                serial_best is not None
                and serial_best < PARALLEL_WORTTHWHILE_SECONDS
            ):
                rejected.append(PlanCandidate(
                    engine=engine, ordering=ordering, workers=workers,
                    predicted_seconds=predicted, eligible=False,
                    reasons=[
                        f"serial estimate {serial_best:.2f}s is under the "
                        f"{PARALLEL_WORTTHWHILE_SECONDS:.0f}s bar where "
                        f"pool dispatch pays off"
                    ],
                ))
                continue
            reasons.append(
                f"{model.n_cores} cores available and serial estimate "
                f"crosses the parallel bar"
            )
        demoted = breaker_states.get(engine) == "open"
        if demoted:
            reasons.append("circuit breaker open: demoted behind healthy "
                           "engines")
        if engine not in model.coefficients and engine != "parallel":
            reasons.append("no calibrated coefficients: scored by the "
                           "analytic seed")
        eligible.append(PlanCandidate(
            engine=engine, ordering=ordering, workers=workers,
            predicted_seconds=predicted, eligible=True, demoted=demoted,
            reasons=reasons,
        ))

    if not eligible:
        raise PlanError(
            "no eligible engine: the candidate pool is empty for these "
            "constraints"
        )
    pool_order = {e: i for i, e in enumerate(_candidate_engines(engines))}
    if features.n_edges < TINY_EDGE_COUNT:
        # below the calibration domain the fitted coefficients are pure
        # extrapolation (zoo graphs are orders of magnitude larger and
        # sparser); every engine finishes in microseconds there, so rank
        # by static pool preference instead of by noise
        eligible.sort(key=lambda c: (c.demoted, pool_order[c.engine]))
        eligible[0].reasons.append(
            f"tiny graph ({features.n_edges} edges): predictions are "
            f"extrapolation; ranked by pool preference"
        )
    else:
        eligible.sort(key=lambda c: (
            c.demoted, c.predicted_seconds, pool_order[c.engine]
        ))
    chosen = eligible[0]
    chosen.reasons.insert(0, ordering_reason)
    if features.n_edges < TINY_EDGE_COUNT:
        # the prediction is extrapolation here too; the floor alone
        # stops a runaway on a graph whose real work is microseconds
        budget = BUDGET_FLOOR_SECONDS
    else:
        budget = min(
            BUDGET_CEIL_SECONDS,
            max(BUDGET_FLOOR_SECONDS,
                BUDGET_HEADROOM * chosen.predicted_seconds),
        )
    return Plan(
        features=features,
        candidates=eligible + rejected,
        budget_seconds=budget,
        graph_key=graph_key,
        model_version=MODEL_VERSION,
        n_cores=model.n_cores,
    )


# -- cluster-facing estimates ----------------------------------------------

#: One federated slice round trip, less the coordinator's poll sleep
#: (``ClusterConfig.poll_interval``): the dispatch POST, a status GET and
#: the result GET on a loopback cluster.  Measured per extra round as
#: 62.2 ms at a 0.05 s poll and 30.8 ms at 0.02 s (two-worker cluster,
#: 2-core x86-64 host, CPython 3.11.7; docs/planning.md).
SLICE_REQUEST_SECONDS = 0.012

#: Build-plus-search time per wedge of root cost (:func:`root_cost_estimates`),
#: measured over the first-level subproblems of five federated-benchmark-
#: shaped graphs on the same host: 1.03–1.06 µs per wedge on each.
SECONDS_PER_WEDGE = 1.05e-6

#: Predicted engine time (root wedges × :data:`SECONDS_PER_WEDGE`) above
#: which a federated slice keeps a per-root checkpoint on its worker.
#: Below it, redoing the whole slice after a worker kill costs less than
#: the coordinator's loss detection (a 2 s heartbeat timeout), while the
#: per-root records cost about 30 ms on a 25 ms slice (docs/planning.md).
SLICE_CHECKPOINT_SECONDS = 1.0

#: Job size, in slice round trips of engine work, below which a federated
#: job gets one slice per worker.  Measured on the same host with two
#: workers (docs/planning.md): one slice per worker beat ``2 × workers`` +
#: skew slices by 11–16% on jobs of 71k–582k wedges, and the finer plan
#: won by more than the spread at no size up to 4.62M.  Its extra cost
#: fell within the spread from about 40 round trips up (2.36M wedges at a
#: 0.05 s poll).  Above that the finer plan is kept for straggler
#: re-splits and finer re-dispatch after a worker loss; no clean run
#: measures that gain, so the threshold is unverified there.
FINE_SLICING_ROUND_TRIPS = 40


def fine_slicing_min_wedges(poll_interval: float = 0.05) -> int:
    """Total root cost from which a federated job is cut finer than one
    slice per worker, for a coordinator polling every ``poll_interval``
    seconds (the default is :class:`~repro.cluster.ClusterConfig`'s).

    The constants were measured while the coordinator slept
    ``poll_interval`` between polls.  It now waits on an in-flight slice
    and merges it when the job ends, so charging the full poll per round
    trip over-estimates it; the formula stands until a workload above
    the switch re-measures it (docs/planning.md)."""
    round_trip = poll_interval + SLICE_REQUEST_SECONDS
    return round(FINE_SLICING_ROUND_TRIPS * round_trip / SECONDS_PER_WEDGE)


def root_cost_estimates(
    graph: "BipartiteGraph", order: str = "degree", seed: int = 0
) -> list[int]:
    """Per-root cost over the addressable root list: its wedge count.

    Index ``i`` holds ``w(v) = Σ_{u∈N(v)} deg(u)`` for root ``v`` at index
    ``i`` of :func:`repro.core.parallel.addressable_roots`: the exact
    size of the scan :func:`~repro.core.decompose.build_subproblem` makes
    for ``v``, O(deg v) to compute.  It is the one cost unit the
    federated planner sizes and cuts slices by and sets the straggler
    threshold from.
    """
    from repro.core.parallel import addressable_roots

    degree_u = graph.degree_u
    return [
        sum(map(degree_u, graph.neighbors_v(v)))
        for v in addressable_roots(graph, order, seed=seed)
    ]


def recommend_slices(
    n_workers: int, estimates: list[int], poll_interval: float = 0.05
) -> int:
    """Slice count for a federated job, from its per-root costs.

    A job whose total cost is under :func:`fine_slicing_min_wedges` (at
    the coordinator's ``poll_interval``) gets one slice per worker: every
    slice round trip is paid once and all workers start at once.  A larger job gets ``2 × workers``
    (reassignment granularity without per-root chatter), plus extra
    slices when the root-cost distribution is heavy-tailed: a fat root
    trapped in a fat slice is exactly what straggler re-splits have to
    fix after the fact, so skewed graphs start finer.  Capped by the
    root count (a slice needs a root).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    total = sum(estimates)
    if total < fine_slicing_min_wedges(poll_interval):
        return max(1, min(len(estimates), n_workers))
    mean = total / len(estimates)
    skew = max(estimates) / mean
    extra = min(4 * n_workers, math.ceil(max(0.0, skew - 1.0) / 4))
    return min(len(estimates), 2 * n_workers + extra)


def recommend_straggler_factor(estimates: list[int]) -> float:
    """Straggler threshold (× median slice duration) from root skew.

    A slice that drew the heaviest root legitimately runs about
    ``skew ×`` the typical slice; flagging it as a straggler would
    re-split productive work.  The returned factor therefore grows with
    the observed root-cost skew, clamped to ``[2, 10]``.
    """
    if not estimates:
        return 4.0
    mean = sum(estimates) / len(estimates)
    if mean <= 0:
        return 4.0
    skew = max(estimates) / mean
    return max(2.0, min(10.0, 1.5 + skew / 2.0))
