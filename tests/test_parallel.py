"""Tests for the parallel driver (task construction, slices, agreement)."""

from __future__ import annotations

import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run_mbe
from repro.bigraph.generators import planted_bicliques
from repro.bigraph.ordering import rank_of, vertex_order
from repro.core.base import Biclique, EnumerationLimits, EnumerationStats
from repro.core.decompose import build_subproblem, iter_subproblems
from repro.core.mbet import MBET
from repro.core.parallel import ParallelMBE, addressable_roots
from repro.datasets import load
from repro.obs.metrics import Instrumentation
from repro.runtime import FaultPlan, RunBudget
from tests.conftest import (
    G0_MAXIMAL,
    CountingMBET,
    nested_chain,
    random_bigraph,
)
from tests.strategies import bipartite_graphs


class TestConstruction:
    def test_worker_validation(self):
        with pytest.raises(ValueError):
            ParallelMBE(workers=0)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            ParallelMBE(bound_height=0)
        with pytest.raises(ValueError):
            ParallelMBE(bound_size=-1)

    def test_runtime_option_validation(self):
        with pytest.raises(ValueError):
            ParallelMBE(max_retries=-1)
        with pytest.raises(ValueError):
            ParallelMBE(retry_backoff=-0.1)
        with pytest.raises(ValueError):
            ParallelMBE(task_timeout=0)

    def test_limits_supported(self, g0):
        from repro.core.base import EnumerationLimits

        algo = ParallelMBE(workers=1)
        result = algo.run(g0, limits=EnumerationLimits(max_bicliques=3))
        assert result.complete is False
        assert result.count == 3
        assert len(result.bicliques) == 3
        assert result.meta["stopped"] == "max_bicliques"
        assert result.biclique_set() <= G0_MAXIMAL


class TestTaskBuilding:
    def test_tasks_cover_every_active_vertex(self, g0):
        algo = ParallelMBE(workers=2, bound_height=10_000, bound_size=10_000)
        tasks = algo._make_tasks(g0)
        assert {t[0] for t in tasks} == {0, 1, 2, 3}
        assert all(t[1:] == (0, 1) for t in tasks)  # no splits

    def test_isolated_vertices_excluded(self):
        from repro import BipartiteGraph

        g = BipartiteGraph([(0, 0)], n_u=3, n_v=3)
        tasks = ParallelMBE(workers=1)._make_tasks(g)
        assert {t[0] for t in tasks} == {0}

    def test_splitting_produces_partitioned_slices(self, g0):
        algo = ParallelMBE(workers=2, bound_height=1, bound_size=1)
        tasks = algo._make_tasks(g0)
        by_v: dict[int, list[tuple[int, int]]] = {}
        for v, part, n_parts in tasks:
            by_v.setdefault(v, []).append((part, n_parts))
        for v, slices in by_v.items():
            n_parts = slices[0][1]
            assert all(n == n_parts for _, n in slices)
            assert sorted(p for p, _ in slices) == list(range(n_parts))

    def test_one_worker_runs_each_root_whole(self):
        # a deep narrow chain once planned 1,552 root-slice tasks for 400
        # roots at workers=1; each part rebuilt its subproblem inline
        g = nested_chain(400)
        algo = ParallelMBE(workers=1, order="natural")
        tasks = algo._make_tasks(g)
        assert len(tasks) == 400
        assert all(t[1:] == (0, 1) for t in tasks)
        forced = ParallelMBE(workers=1, bound_height=1, bound_size=1)
        assert all(t[1:] == (0, 1) for t in forced._make_tasks(g))
        # the split path stays at two workers and on retry
        pooled = ParallelMBE(workers=2, order="natural")._make_tasks(g)
        assert len(pooled) > 400
        assert algo._split_for_retry(g, tasks[0], 1)

    def test_large_tasks_first(self):
        g = load("mti")
        tasks = ParallelMBE(workers=2)._make_tasks(g)
        assert len(tasks) > 0  # LPT order is checked implicitly by sort


class TestAgreement:
    def test_g0_all_configurations(self, g0):
        for workers in (1, 2):
            for bounds in ({}, {"bound_height": 1, "bound_size": 1}):
                result = run_mbe(g0, "parallel", workers=workers, **bounds)
                assert result.biclique_set() == G0_MAXIMAL
                assert result.meta["workers"] == workers

    def test_random_graphs_with_aggressive_splitting(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_bigraph(rng)
            truth = run_mbe(g, "bruteforce").biclique_set()
            got = run_mbe(
                g, "parallel", workers=2, bound_height=1, bound_size=1
            ).biclique_set()
            assert got == truth

    def test_counts_match_mbet_on_dataset(self):
        g = load("mti")
        serial = run_mbe(g, "mbet", collect=False).count
        parallel = run_mbe(g, "parallel", workers=2, collect=False).count
        assert parallel == serial

    def test_stats_aggregated(self, g0):
        result = run_mbe(g0, "parallel", workers=1, collect=False)
        assert result.stats.subtrees > 0
        assert result.stats.maximal == result.count == 6

    def test_sliced_roots_use_the_engine_store(self):
        # bound_size=1 slices every splittable root (with two workers;
        # one runs roots whole); sliced roots build their store through
        # the engine, so the linear-scan default holds and the workers
        # fold their checks exactly: the summed |Q| over each store as
        # loaded, which an in-process rerun of every task counts
        g = load("mti")
        options = {"workers": 2, "bound_height": 1, "bound_size": 1,
                   "collect": False}
        tasks = ParallelMBE(bound_height=1, bound_size=1)._make_tasks(g)
        assert len(tasks) > len(ParallelMBE()._make_tasks(g))
        scan = run_mbe(g, "parallel", **options)
        serial = run_mbe(g, "mbet", collect=False)
        assert scan.count == serial.count
        assert scan.stats.trie_peak_nodes == 0
        algo = CountingMBET()
        rank = rank_of(vertex_order(g, algo.order))
        for v, part, n_parts in tasks:
            sub = build_subproblem(g, v, rank)
            if sub is not None:
                algo._run_subproblem(sub, lambda *_: None, EnumerationStats(),
                                     part, n_parts)
        assert scan.stats.checks == sum(s.summed_q for s in algo.stores) > 0
        trie = run_mbe(g, "parallel", engine_options={"use_trie": True},
                       **options)
        assert trie.count == serial.count
        assert trie.stats.trie_peak_nodes > 0

    def test_orientation(self, g0):
        result = run_mbe(
            g0.swap_sides(), "parallel", workers=1, orient_smaller_v=True
        )
        assert result.biclique_set() == {b.swap() for b in G0_MAXIMAL}


    @pytest.mark.parametrize("workers", [1, 2])
    def test_deep_chain_restores_recursion_limit(self, workers):
        import sys

        limit = sys.getrecursionlimit()
        result = run_mbe(nested_chain(400), "parallel", workers=workers,
                         collect=False, order="natural")
        assert sys.getrecursionlimit() == limit
        assert result.count == 400


class TestBudgets:
    """Limits are now supported in parallel mode (formerly NotImplementedError)."""

    def test_max_bicliques_pooled(self, g0):
        result = run_mbe(
            g0, "parallel", workers=2, max_bicliques=3, retry_backoff=0.01
        )
        assert result.complete is False
        assert result.count == 3
        assert result.meta["stopped"] == "max_bicliques"
        assert result.biclique_set() <= G0_MAXIMAL

    def test_generous_cap_stays_complete(self, g0):
        result = run_mbe(g0, "parallel", workers=1, max_bicliques=1_000)
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL

    def test_time_limit_partial_not_raising(self):
        # A deadline that has effectively already passed: the run must come
        # back partial (possibly empty) instead of raising.
        g = load("mti")
        result = run_mbe(g, "parallel", workers=1, time_limit=1e-9)
        assert result.complete is False
        assert result.meta["stopped"] == "time_limit"
        serial = run_mbe(g, "mbet", collect=False).count
        assert result.count <= serial


def _crash_plan(g, **overrides):
    """Fault plan targeting the root with the largest subtree of ``g``."""
    from repro.runtime import FaultPlan

    tasks = ParallelMBE(workers=2)._make_tasks(g)
    victim = tasks[0][0]
    options = {"crash_tasks": (victim,)}
    options.update(overrides)
    return FaultPlan(**options), victim


class TestFaultRecovery:
    def test_inline_crash_retries_to_completion(self, g0):
        faults, _victim = _crash_plan(g0, crash_attempts=1)
        result = run_mbe(
            g0, "parallel", workers=1, faults=faults,
            max_retries=2, retry_backoff=0.0,
        )
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL
        assert result.meta["retries"] >= 1

    def test_inline_permanent_crash_partial(self, g0):
        faults, victim = _crash_plan(g0, crash_attempts=99)
        result = run_mbe(
            g0, "parallel", workers=1, faults=faults,
            max_retries=1, retry_backoff=0.0,
        )
        assert result.complete is False
        assert result.biclique_set() < G0_MAXIMAL
        failed_roots = {f["task"][0] for f in result.meta["failures"]}
        assert victim in failed_roots

    def test_pooled_crash_retries_to_completion(self, g0):
        faults, _victim = _crash_plan(g0, crash_attempts=1)
        result = run_mbe(
            g0, "parallel", workers=2, faults=faults,
            max_retries=3, retry_backoff=0.01,
        )
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL
        assert result.meta["pool_restarts"] >= 1

    def test_pooled_worker_death_partial_no_exception(self, g0):
        # Kill 1 of 2 workers on every attempt of one task: the run must
        # return partial results with failure records, never raise.
        faults, victim = _crash_plan(g0, crash_attempts=99)
        result = run_mbe(
            g0, "parallel", workers=2, faults=faults,
            max_retries=1, retry_backoff=0.01,
        )
        assert result.complete is False
        assert result.count >= 1  # healthy subtrees still delivered
        assert result.biclique_set() < G0_MAXIMAL
        failed_roots = {f["task"][0] for f in result.meta["failures"]}
        assert victim in failed_roots
        for failure in result.meta["failures"]:
            assert failure["attempts"] >= 2  # retried before giving up


class TestCheckpointResume:
    def test_resume_after_crash_matches_uninterrupted(self, g0, tmp_path):
        path = tmp_path / "g0.ckpt"
        faults, _victim = _crash_plan(g0, crash_attempts=99)
        first = run_mbe(
            g0, "parallel", workers=2, faults=faults,
            max_retries=1, retry_backoff=0.01, checkpoint=path,
        )
        assert first.complete is False
        second = run_mbe(g0, "parallel", workers=2, checkpoint=path)
        assert second.complete is True
        assert second.biclique_set() == G0_MAXIMAL
        assert second.meta["resumed_tasks"] >= 1

    def test_resume_skips_completed_work(self, g0, tmp_path):
        path = tmp_path / "g0.ckpt"
        first = run_mbe(g0, "parallel", workers=1, checkpoint=path)
        assert first.complete is True
        second = run_mbe(g0, "parallel", workers=1, checkpoint=path)
        assert second.complete is True
        assert second.biclique_set() == G0_MAXIMAL
        assert second.meta["resumed_tasks"] == second.meta["tasks"]
        assert second.meta.get("completed_tasks", 0) == 0

    def test_resume_on_dataset_with_splitting(self, tmp_path):
        g = load("mti")
        path = tmp_path / "mti.ckpt"
        faults, _victim = _crash_plan(g, crash_attempts=99)
        first = run_mbe(
            g, "parallel", workers=2, bound_height=1, bound_size=64,
            faults=faults, max_retries=1, retry_backoff=0.01, checkpoint=path,
        )
        assert first.complete is False
        second = run_mbe(
            g, "parallel", workers=2, bound_height=1, bound_size=64,
            checkpoint=path,
        )
        truth = run_mbe(g, "mbet").biclique_set()
        assert second.complete is True
        assert second.biclique_set() == truth

    def test_mismatched_checkpoint_rejected(self, g0, tmp_path):
        from repro.runtime import CheckpointError

        path = tmp_path / "g0.ckpt"
        run_mbe(g0, "parallel", workers=1, checkpoint=path)
        with pytest.raises(CheckpointError, match="different run"):
            run_mbe(g0, "parallel", workers=1, seed=7, checkpoint=path)

    def test_threshold_change_invalidates_checkpoint(self, g0, tmp_path):
        # min_left/min_right are part of the run's identity: resuming an
        # unconstrained checkpoint under thresholds would silently keep
        # the unconstrained results
        from repro.runtime import CheckpointError

        path = tmp_path / "g0.ckpt"
        run_mbe(g0, "parallel", workers=1, checkpoint=path)
        with pytest.raises(CheckpointError, match="min_left"):
            run_mbe(g0, "parallel", workers=1, min_left=2, checkpoint=path)

    def test_constrained_resume_matches_serial(self, g0, tmp_path):
        path = tmp_path / "g0.ckpt"
        faults, _victim = _crash_plan(g0, crash_attempts=99)
        first = run_mbe(
            g0, "parallel", workers=1, min_left=2, min_right=2,
            faults=faults, max_retries=1, retry_backoff=0.01,
            checkpoint=path,
        )
        assert first.complete is False
        second = run_mbe(
            g0, "parallel", workers=1, min_left=2, min_right=2,
            checkpoint=path,
        )
        truth = run_mbe(g0, "mbet", min_left=2, min_right=2).biclique_set()
        assert second.complete is True
        assert second.biclique_set() == truth
        assert second.count == len(truth)

    def test_checkpoint_from_the_engine_choice_era_resumes(
        self, g0, tmp_path
    ):
        # header and two task records exactly as written while the worker
        # engine was still a parameter ("engine": "mbet" in the header)
        path = tmp_path / "old.ckpt"
        path.write_text(
            '{"n_u":5,"n_v":4,"n_edges":12,"order":"degree","seed":0,'
            '"bound_height":8,"bound_size":256,"workers":1,'
            '"orient_smaller_v":false,"min_left":1,"min_right":1,'
            '"root_range":null,"engine":"mbet","engine_options":{},'
            '"collect":true,"type":"header","version":1}\n'
            '{"type":"task","key":"1:0:1","task":[1,0,1],"count":1,'
            '"stats":{"subtrees":1},"bicliques":[[[0,1,2,3],[1]]]}\n'
            '{"type":"task","key":"2:0:1","task":[2,0,1],"count":2,'
            '"stats":{"nodes":1,"checks":1,"subtrees":1},'
            '"bicliques":[[[0,1,3],[1,2]],[[1,3],[1,2,3]]]}\n'
        )
        result = run_mbe(g0, "parallel", workers=1, checkpoint=path)
        assert result.meta["resumed_tasks"] == 2
        assert result.biclique_set() == G0_MAXIMAL

    def test_checkpoint_survives_torn_tail(self, g0, tmp_path):
        path = tmp_path / "g0.ckpt"
        run_mbe(g0, "parallel", workers=1, checkpoint=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"task","key":"9:')  # killed mid-write
        result = run_mbe(g0, "parallel", workers=1, checkpoint=path)
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL


def _mbet_over_roots(graph, roots, min_left=1, min_right=1):
    """MBET's own subproblem loop restricted to ``roots``: the reference
    a ranged run must equal."""
    algo = MBET(min_left=min_left, min_right=min_right)
    stats = EnumerationStats()
    found: set[Biclique] = set()
    for sub in iter_subproblems(graph):
        if sub.root_v in roots and algo._accept_subproblem(sub, stats):
            algo._run_subproblem(
                sub, lambda ls, rs: found.add(Biclique.make(ls, rs)), stats
            )
    return found


def _run(algo, graph, mode):
    """Run in one of the three result modes; returns (result, bicliques)."""
    if mode == "hook":
        streamed: list[Biclique] = []
        result = algo.run(graph, on_biclique=streamed.append)
        assert result.bicliques is None
        return result, streamed
    result = algo.run(graph, collect=mode == "collect")
    return result, result.bicliques


class TestOnePass:
    """``workers=1`` without checkpoint, faults or instrumentation is one
    MBET pass; it must agree with the per-root path and with MBET."""

    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=bipartite_graphs(max_u=9, max_v=9), data=st.data())
    def test_matches_per_root_and_mbet(self, graph, data):
        n = len(addressable_roots(graph))
        root_range = None
        if n and data.draw(st.booleans(), label="ranged"):
            lo = data.draw(st.integers(0, n - 1), label="lo")
            hi = data.draw(st.integers(lo + 1, n + 2), label="hi")
            root_range = (lo, hi)
        options = {
            "workers": 1,
            "root_range": root_range,
            "min_left": data.draw(st.integers(1, 3), label="min_left"),
            "min_right": data.draw(st.integers(1, 3), label="min_right"),
            "orient_smaller_v": data.draw(st.booleans(), label="orient"),
        }
        mode = data.draw(
            st.sampled_from(["collect", "count", "hook"]), label="mode"
        )
        one, one_found = _run(ParallelMBE(**options), graph, mode)
        with tempfile.TemporaryDirectory() as tmp:
            per, per_found = _run(
                ParallelMBE(
                    checkpoint=os.path.join(tmp, "run.ckpt"), **options
                ),
                graph, mode,
            )
        assert "tasks" not in one.meta and "tasks" in per.meta
        assert one.complete and per.complete
        assert one.count == per.count
        assert one.stats.as_dict() == per.stats.as_dict()
        if mode == "count":
            assert one_found is None and per_found is None
            return
        assert len(one_found) == one.count
        assert set(one_found) == set(per_found)
        if options["orient_smaller_v"]:
            return  # MBET's reference below walks the graph unswapped
        roots = addressable_roots(graph)
        if root_range is not None:
            roots = roots[root_range[0]:root_range[1]]
        assert set(one_found) == _mbet_over_roots(
            graph, set(roots), options["min_left"], options["min_right"]
        )
        if root_range is None:
            assert set(one_found) == run_mbe(
                graph, "mbet", min_left=options["min_left"],
                min_right=options["min_right"],
            ).biclique_set()

    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=bipartite_graphs(max_u=9, max_v=9), data=st.data())
    def test_two_ranges_partition_the_result(self, graph, data):
        orient = data.draw(st.booleans(), label="orient")
        work = graph.oriented_smaller_v()[0] if orient else graph
        n = len(addressable_roots(work))
        if n < 2:
            return
        cut = data.draw(st.integers(1, n - 1), label="cut")
        options = {
            "workers": 1,
            "min_left": data.draw(st.integers(1, 3), label="min_left"),
            "min_right": data.draw(st.integers(1, 3), label="min_right"),
            "orient_smaller_v": orient,
        }
        parts = [
            ParallelMBE(root_range=r, **options).run(graph)
            for r in ((0, cut), (cut, n))
        ]
        truth = run_mbe(
            graph, "mbet", min_left=options["min_left"],
            min_right=options["min_right"],
        ).biclique_set()
        assert sum(p.count for p in parts) == len(truth)
        assert set().union(*(p.bicliques for p in parts)) == truth

    def test_per_root_path_kept_for_faults_and_instrumentation(self, g0):
        faulted = ParallelMBE(workers=1, faults=FaultPlan()).run(g0)
        traced = ParallelMBE(workers=1).run(
            g0, instrumentation=Instrumentation()
        )
        plain = ParallelMBE(workers=1).run(g0)
        assert "tasks" in faulted.meta and "tasks" in traced.meta
        assert "tasks" not in plain.meta and plain.meta["workers"] == 1
        for result in (faulted, traced, plain):
            assert result.biclique_set() == G0_MAXIMAL

    @pytest.fixture(scope="class")
    def dense(self):
        return planted_bicliques(120, 80, 40, (2, 6), (2, 6), 300, seed=3)

    @pytest.mark.parametrize("cap", [0, 1, 7, 50])
    def test_max_bicliques_caps_the_count(self, dense, cap):
        full = ParallelMBE(workers=1).run(dense).biclique_set()
        assert len(full) > 50
        result = ParallelMBE(workers=1).run(
            dense, limits=EnumerationLimits(max_bicliques=cap)
        )
        assert result.count <= cap
        assert len(result.bicliques) == result.count
        assert result.complete is False
        assert result.meta["stopped"] == "max_bicliques"
        assert set(result.bicliques) <= full

    def test_time_limit_stops_the_pass(self):
        g = planted_bicliques(600, 400, 300, (2, 6), (2, 6), 2000, seed=3)
        result = ParallelMBE(workers=1).run(
            g, collect=False, limits=EnumerationLimits(time_limit=0.02)
        )
        assert result.complete is False
        assert result.meta["stopped"] == "time_limit"
        assert result.elapsed < 1.0

    def test_cancel_stops_the_pass(self, dense):
        seen: list[Biclique] = []
        result = ParallelMBE(workers=1).run(
            dense, budget=RunBudget(cancel=lambda: len(seen) >= 5),
            on_biclique=seen.append,
        )
        assert result.complete is False
        assert result.meta["stopped"] == "cancelled"
        assert 5 <= result.count < len(
            ParallelMBE(workers=1).run(dense).bicliques
        )


@pytest.mark.stress
class TestStallRecovery:
    def test_hung_worker_terminated_and_retried(self, g0):
        from repro.runtime import FaultPlan

        tasks = ParallelMBE(workers=2)._make_tasks(g0)
        victim = tasks[0][0]
        faults = FaultPlan(
            hang_tasks=(victim,), hang_seconds=60.0, hang_attempts=1
        )
        result = run_mbe(
            g0, "parallel", workers=2, faults=faults,
            task_timeout=1.0, max_retries=2, retry_backoff=0.01,
        )
        assert result.complete is True
        assert result.biclique_set() == G0_MAXIMAL
        assert result.meta["pool_restarts"] >= 1
