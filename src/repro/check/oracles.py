"""The oracle battery: properties every engine must satisfy on any graph.

Each oracle factory binds its configuration and returns a deterministic
``graph -> OracleFailure | None`` callable, which is exactly the predicate
shape :func:`repro.check.shrink.shrink_graph` minimizes against.

Oracles
-------
``agreement``      definitional verification of every engine's result set
                   (:func:`repro.core.verify.verify_result`) plus
                   cross-engine set equality against a reference
                   (brute force when tractable, else the first engine).
``relabel``        vertex-relabeling equivariance: permuting ids permutes
                   the result set and nothing else.
``swap``           U/V-swap symmetry: enumerating the side-swapped graph
                   yields the side-swapped result set.
``threshold``      threshold monotonicity: the ``min_left``/``min_right``
                   result set equals the filtered unconstrained set.
``budget_prefix``  budget-prefix soundness: a ``max_bicliques``-capped run
                   returns a duplicate-free subset of the full set, and is
                   only incomplete when the cap actually bound.
``kill_resume``    kill/resume parity: a checkpointed parallel run killed
                   partway and resumed matches an uninterrupted run.
``plan``           planner soundness: the configuration ``repro.plan``
                   picks for the graph enumerates the exact maximal
                   biclique set the reference produces.
``setops``         set-operation substrate agreement: the sorted-sequence
                   operations and :class:`~repro.setops.bitmap.Bitmap`
                   must compute the intersections/unions/predicates of
                   ``set`` on the graph's adjacency rows plus seeded
                   random and adversarial rows.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.bigraph.graph import BipartiteGraph
from repro.core.base import Biclique, run_mbe
from repro.core.verify import VerificationError, verify_result
from repro.check.engines import EngineSpec
from repro.runtime.budget import RunBudget
from repro.runtime.faults import FaultPlan

Oracle = Callable[[BipartiteGraph], "OracleFailure | None"]

#: Graphs whose V side is at most this wide get a brute-force reference.
BRUTEFORCE_MAX_SIDE = 16

#: Result sets larger than this skip the per-biclique definitional audit
#: (cross-engine equality still applies); keeps zoo-scale cases bounded.
VERIFY_MAX_RESULTS = 5000


@dataclass(frozen=True)
class OracleFailure:
    """One violated invariant: which oracle, which engine, what happened."""

    oracle: str
    engine: str
    detail: str

    def __str__(self) -> str:
        return f"{self.oracle}[{self.engine}]: {self.detail}"


def _diff(got: frozenset, want: frozenset) -> str:
    missing = sorted(want - got)[:3]
    extra = sorted(got - want)[:3]
    return (
        f"{len(want - got)} missing (e.g. {missing}), "
        f"{len(got - want)} unexpected (e.g. {extra})"
    )


class OracleCut(Exception):
    """An oracle stopped early because its caller ran out of time."""


def agreement_oracle(
    engines: Sequence[EngineSpec],
    reference: EngineSpec | None = None,
    verify: bool = True,
    out_of_time: Callable[[], bool] | None = None,
) -> Oracle:
    """Cross-engine set equality plus definitional verification.

    On a zoo graph one engine run can take seconds, so ``out_of_time``
    is read before the reference and between engines; when it reads
    true the check raises :class:`OracleCut` instead of judging.
    """

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        if out_of_time is not None and out_of_time():
            raise OracleCut("agreement")
        if reference is not None:
            ref_spec = reference
        elif min(graph.n_u, graph.n_v) <= BRUTEFORCE_MAX_SIDE:
            ref_spec = EngineSpec.make("bruteforce")
        else:
            ref_spec = engines[0]
        truth = ref_spec.result_set(graph)
        if verify and len(truth) <= VERIFY_MAX_RESULTS:
            try:
                verify_result(graph, truth)
            except VerificationError as exc:
                return OracleFailure("agreement", ref_spec.label(), str(exc))
        for spec in engines:
            if out_of_time is not None and out_of_time():
                raise OracleCut("agreement")
            result = spec.run(graph, collect=True)
            got = result.biclique_set()
            if verify and len(got) <= VERIFY_MAX_RESULTS:
                try:
                    verify_result(graph, got)
                except VerificationError as exc:
                    return OracleFailure("agreement", spec.label(), str(exc))
            if got != truth:
                return OracleFailure(
                    "agreement", spec.label(),
                    f"disagrees with {ref_spec.label()}: {_diff(got, truth)}",
                )
            if result.count != len(truth):
                return OracleFailure(
                    "agreement", spec.label(),
                    f"count {result.count} != {len(truth)} collected",
                )
        return None

    return check


def relabel_oracle(engine: EngineSpec, seed: int = 0) -> Oracle:
    """Vertex-relabeling equivariance under a seeded permutation."""

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        rng = random.Random(seed)
        pu = list(range(graph.n_u))
        pv = list(range(graph.n_v))
        rng.shuffle(pu)
        rng.shuffle(pv)
        permuted = BipartiteGraph(
            [(pu[u], pv[v]) for u, v in graph.edges()],
            n_u=graph.n_u, n_v=graph.n_v,
        )
        inv_u = {new: old for old, new in enumerate(pu)}
        inv_v = {new: old for old, new in enumerate(pv)}
        base = engine.result_set(graph)
        mapped = frozenset(
            Biclique.make(
                (inv_u[u] for u in b.left), (inv_v[v] for v in b.right)
            )
            for b in engine.result_set(permuted)
        )
        if mapped != base:
            return OracleFailure(
                "relabel", engine.label(),
                f"relabeled run diverges: {_diff(mapped, base)}",
            )
        return None

    return check


def swap_oracle(engine: EngineSpec) -> Oracle:
    """U/V-swap symmetry (and the ``orient_smaller_v`` code path with it)."""

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        base = engine.result_set(graph)
        # thresholds live in graph coordinates, so they swap with the sides
        opts = engine.opts()
        swapped_spec = engine
        if "min_left" in opts or "min_right" in opts:
            swapped_spec = engine.with_options(
                min_left=opts.get("min_right", 1),
                min_right=opts.get("min_left", 1),
            )
        swapped = frozenset(
            b.swap() for b in swapped_spec.result_set(graph.swap_sides())
        )
        if swapped != base:
            return OracleFailure(
                "swap", engine.label(),
                f"side-swapped run diverges: {_diff(swapped, base)}",
            )
        oriented = engine.with_options(orient_smaller_v=True)
        got = oriented.result_set(graph)
        if got != base:
            return OracleFailure(
                "swap", oriented.label(),
                f"orient_smaller_v run diverges: {_diff(got, base)}",
            )
        return None

    return check


def threshold_oracle(
    engine: EngineSpec, min_left: int = 2, min_right: int = 2
) -> Oracle:
    """Constrained result set == filtered unconstrained result set."""

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        full = engine.result_set(graph)
        want = frozenset(
            b for b in full
            if len(b.left) >= min_left and len(b.right) >= min_right
        )
        constrained = engine.with_options(
            min_left=min_left, min_right=min_right
        )
        got = constrained.result_set(graph)
        if got != want:
            return OracleFailure(
                "threshold", constrained.label(),
                f"(>= {min_left}, >= {min_right}) set != filtered "
                f"unconstrained set: {_diff(got, want)}",
            )
        return None

    return check


def budget_prefix_oracle(engine: EngineSpec, cap: int = 3) -> Oracle:
    """A ``max_bicliques``-capped run is a sound prefix of the full run."""

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        full = engine.result_set(graph)
        partial = engine.run(
            graph, collect=True, budget=RunBudget(max_bicliques=cap)
        )
        got_list = partial.bicliques or []
        got = frozenset(got_list)
        if len(got) != len(got_list):
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"capped run returned duplicates ({len(got_list)} results, "
                f"{len(got)} distinct)",
            )
        if not got <= full:
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"capped run returned bicliques outside the full set "
                f"(e.g. {sorted(got - full)[:2]})",
            )
        if partial.count != len(got_list):
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"count {partial.count} != {len(got_list)} collected",
            )
        if partial.count > cap:
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"cap {cap} overshot: {partial.count} results",
            )
        if partial.complete and got != full:
            return OracleFailure(
                "budget_prefix", engine.label(),
                "run flagged complete but missed results: "
                + _diff(got, full),
            )
        if not partial.complete and partial.count < min(cap, len(full)):
            return OracleFailure(
                "budget_prefix", engine.label(),
                f"incomplete run undershot the cap: {partial.count} < "
                f"min({cap}, {len(full)})",
            )
        return None

    return check


def plan_oracle(min_left: int = 1, min_right: int = 1) -> Oracle:
    """The planner-chosen configuration enumerates the exact result set.

    Builds a plan for the graph (thresholds included, single core so the
    choice is deterministic), runs the chosen engine with the chosen
    thresholds, and compares against a reference enumeration filtered to
    the same thresholds.  This is the end-to-end guarantee the planner
    owes its callers: whatever the cost model ranks first must still be
    *correct* — speed predictions may be wrong, answers may not.
    """

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        from repro.plan import PlanError, build_plan

        try:
            plan = build_plan(
                graph, min_left=min_left, min_right=min_right, n_cores=1
            )
            chosen = plan.chosen
        except PlanError as exc:
            return OracleFailure("plan", "planner", str(exc))
        if min(graph.n_u, graph.n_v) <= BRUTEFORCE_MAX_SIDE:
            ref = EngineSpec.make("bruteforce")
        else:
            ref = EngineSpec.make("mbet")
        truth = frozenset(
            b for b in ref.result_set(graph)
            if len(b.left) >= min_left and len(b.right) >= min_right
        )
        opts: dict[str, int] = {}
        if min_left > 1 or min_right > 1:
            opts = {"min_left": min_left, "min_right": min_right}
        spec = EngineSpec.make(chosen.engine, **opts)
        got = spec.result_set(graph)
        if got != truth:
            return OracleFailure(
                "plan", spec.label(),
                f"planner-chosen engine diverges from {ref.label()}: "
                + _diff(got, truth),
            )
        return None

    return check


def setops_oracle(seed: int = 0, max_rows: int = 24) -> Oracle:
    """Differential agreement of the set-operation substrates with ``set``.

    Every enumeration engine reduces to set operations; this oracle takes
    the graph's own V-side adjacency rows (sets of U ids) plus seeded
    random and adversarial rows, and checks that the sorted-sequence
    operations (:mod:`repro.setops.sorted_ops`) and
    :class:`~repro.setops.bitmap.Bitmap` agree with plain ``set``
    semantics — intersections, cardinalities, subset/disjoint predicates
    and unions.
    """

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        from repro.setops import sorted_ops
        from repro.setops.bitmap import Bitmap

        rng = random.Random(seed)
        n_bits = max(graph.n_u, 1)
        rows: list[list[int]] = [
            list(graph.neighbors_v(v)) for v in range(graph.n_v)
        ]
        if len(rows) > max_rows:
            rows = rng.sample(rows, max_rows)
        # adversarial rows: empty, full universe, edge singletons,
        # alternating stripes — then seeded random fill
        universe = list(range(n_bits))
        rows += [[], universe, [0], [n_bits - 1], universe[::2], universe[1::2]]
        for _ in range(6):
            rows.append(
                sorted(rng.sample(universe, rng.randint(0, n_bits)))
            )

        sets = [frozenset(r) for r in rows]
        bitmaps = [Bitmap(r) for r in rows]

        def fail(detail: str) -> OracleFailure:
            return OracleFailure("setops", "sorted_ops+Bitmap", detail)

        for i, s in enumerate(sets):
            if bitmaps[i].to_list() != sorted(s) or len(bitmaps[i]) != len(s):
                return fail(f"Bitmap row {i} != {sorted(s)}")

        # every row against a few pivot rows
        pivots = [i for i, s in enumerate(sets) if s][:4] or [0]
        for p in pivots:
            ps, pivot, bp = sets[p], rows[p], bitmaps[p]
            for i, s in enumerate(sets):
                want = s & ps
                row, bi = rows[i], bitmaps[i]
                if (bi & bp).to_list() != sorted(want):
                    return fail(f"Bitmap & diverges on row {i} vs pivot {p}")
                if sorted_ops.intersect(row, pivot) != sorted(want):
                    return fail(
                        f"sorted_ops.intersect diverges on row {i} "
                        f"vs pivot {p}"
                    )
                if sorted_ops.intersect_size(row, pivot) != len(want):
                    return fail(
                        f"sorted_ops.intersect_size diverges on row {i} "
                        f"vs pivot {p}"
                    )
                if bi.issubset(bp) != (s <= ps):
                    return fail(f"Bitmap.issubset[{i}] vs pivot {p} wrong")
                if sorted_ops.is_subset(row, pivot) != (s <= ps):
                    return fail(
                        f"sorted_ops.is_subset[{i}] vs pivot {p} wrong"
                    )
                if bi.isdisjoint(bp) != (not want):
                    return fail(f"Bitmap.isdisjoint[{i}] vs pivot {p} wrong")

        want_union = sorted(frozenset().union(*sets))
        if sorted_ops.union_many(rows) != want_union:
            return fail("sorted_ops.union_many != set union")
        return None

    return check


def kill_resume_oracle(
    workers: int = 2,
    bound_height: int = 1,
    bound_size: int = 4,
) -> Oracle:
    """Kill a checkpointed parallel run partway, resume, expect parity.

    A :class:`FaultPlan` permanently crashes the first root's tasks, so
    the first run ends incomplete with its surviving tasks checkpointed;
    the resumed run must reconcile the recorded root slices and match an
    uninterrupted ``mbet`` run exactly (set and count).
    """

    def check(graph: BipartiteGraph) -> OracleFailure | None:
        truth = run_mbe(graph, "mbet").biclique_set()
        victim = next(
            (v for v in range(graph.n_v) if graph.degree_v(v) > 0), None
        )
        common = dict(
            workers=workers, bound_height=bound_height, bound_size=bound_size
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.ckpt")
            if victim is not None:
                # first run: the victim root's tasks crash permanently, so
                # the run ends incomplete with surviving tasks checkpointed
                # (if the victim subtree was containment-pruned the run
                # completes; resume is then a pure checkpoint-skip replay)
                run_mbe(
                    graph, "parallel", checkpoint=path,
                    faults=FaultPlan(
                        crash_tasks=(victim,), crash_attempts=99
                    ),
                    max_retries=1, retry_backoff=0.0, **common,
                )
            second = run_mbe(
                graph, "parallel", checkpoint=path, **common
            )
        if not second.complete:
            return OracleFailure(
                "kill_resume", "parallel",
                f"resumed run still incomplete: {second.meta}",
            )
        got = second.biclique_set()
        if got != truth:
            return OracleFailure(
                "kill_resume", "parallel",
                f"resumed run diverges from mbet: {_diff(got, truth)}",
            )
        if second.count != len(truth):
            return OracleFailure(
                "kill_resume", "parallel",
                f"resumed count {second.count} != {len(truth)}",
            )
        return None

    return check
