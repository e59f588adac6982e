"""Tests for the differential fuzzing subsystem (repro.check)."""

from __future__ import annotations

import json
import random

import pytest

from repro import BipartiteGraph, run_mbe
from repro.check import (
    Counterexample,
    EngineSpec,
    FuzzConfig,
    GraphCase,
    agreement_oracle,
    budget_prefix_oracle,
    default_engines,
    kill_resume_oracle,
    relabel_oracle,
    run_fuzz,
    sample_case,
    shrink_graph,
    swap_oracle,
    threshold_oracle,
    write_counterexample,
)
from repro.check.engines import (
    CONSTRAINED_ENGINES,
    DEFAULT_ENGINE_NAMES,
    UnreducedMBET,
)
from repro.check.selftest import BrokenMBET
from tests.conftest import make_g0, random_bigraph


class TestGraphCase:
    def test_random_case_roundtrips_through_json(self):
        case = GraphCase.make("random", n_u=4, n_v=3, p=0.5, seed=7)
        assert GraphCase.from_json(case.as_json()) == case
        assert case.build() == case.build()  # deterministic

    def test_explicit_case_rebuilds_the_graph(self):
        g = make_g0()
        case = GraphCase.explicit(g)
        assert case.build() == g
        assert GraphCase.from_json(case.as_json()).build() == g

    def test_sampled_cases_build(self):
        rng = random.Random(11)
        for _ in range(30):
            case = sample_case(rng, max_side=6)
            g = case.build()
            assert g.n_u >= 1 and g.n_v >= 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GraphCase.make("mystery").build()


class TestEngineSpec:
    def test_registry_spec_runs(self, g0):
        spec = EngineSpec.make("mbet", use_trie=False)
        assert spec.result_set(g0) == run_mbe(g0, "mbet").biclique_set()
        assert spec.label() == "mbet[use_trie=False]"

    def test_factory_spec_bypasses_registry(self, g0):
        spec = EngineSpec.make("broken_mbet", factory=BrokenMBET)
        result = spec.run(g0, collect=True)
        assert result.count > 6  # duplicates / non-maximal outputs

    def test_default_battery_covers_all_engines(self):
        assert {s.name for s in default_engines()} == set(DEFAULT_ENGINE_NAMES)


class TestOraclesPassOnCorrectEngines:
    """No false positives: every oracle is silent on the real engines."""

    def test_agreement_on_g0(self, g0):
        assert agreement_oracle(default_engines())(g0) is None

    def test_metamorphic_battery_on_random_graphs(self):
        rng = random.Random(5)
        specs = [
            EngineSpec.make("mbet"),
            EngineSpec.make("mbetm", use_trie=True),
            EngineSpec.make(
                "parallel", workers=1, bound_height=1, bound_size=1
            ),
        ]
        for i in range(8):
            g = random_bigraph(rng, max_side=6)
            for spec in specs:
                assert relabel_oracle(spec, seed=i)(g) is None
                assert swap_oracle(spec)(g) is None
                assert budget_prefix_oracle(spec, cap=2)(g) is None

    def test_threshold_oracle_on_constrained_engines(self, g0):
        for name in sorted(CONSTRAINED_ENGINES):
            opts = {"workers": 1} if name == "parallel" else {}
            spec = EngineSpec.make(name, **opts)
            assert threshold_oracle(spec, 2, 2)(g0) is None

    def test_kill_resume_oracle_on_g0(self, g0):
        assert kill_resume_oracle()(g0) is None


class TestOraclesCatchBugs:
    def test_agreement_catches_broken_engine(self, g0):
        oracle = agreement_oracle(
            [EngineSpec.make("broken_mbet", factory=BrokenMBET)]
        )
        failure = oracle(g0)
        assert failure is not None
        assert failure.oracle == "agreement"
        assert "broken_mbet" in failure.engine

    def test_budget_prefix_catches_missing_results(self, g0):
        # an engine whose capped run drops results yet claims completeness
        class Truncating(BrokenMBET):
            def __init__(self, **options):
                super().__init__(break_maximality=False, **options)

            def run(self, graph, **kwargs):
                budget = kwargs.pop("budget", None)
                result = super().run(graph, **kwargs)
                if budget is not None:
                    del result.bicliques[1:]
                    result.count = len(result.bicliques)
                return result

        failure = budget_prefix_oracle(
            EngineSpec.make("truncating", factory=Truncating), cap=5
        )(g0)
        assert failure is not None
        assert failure.oracle == "budget_prefix"


class TestShrink:
    def test_shrinks_to_single_edge(self):
        g = make_g0()

        def has_edge_00(graph: BipartiteGraph) -> bool:
            return graph.has_edge(0, 0) if graph.n_u and graph.n_v else False

        small = shrink_graph(g, has_edge_00)
        assert small.n_u == 1 and small.n_v == 1 and small.n_edges == 1

    def test_predicate_must_hold_initially(self):
        with pytest.raises(ValueError):
            shrink_graph(make_g0(), lambda g: False)

    def test_planted_bug_shows_on_most_sampled_cases(self):
        # a fixed-seed self-test stays green under any reshuffle of the
        # RNG stream only if the bug is common, not a rare draw
        rng = random.Random(0)
        hits = 0
        for _ in range(1000):
            g = sample_case(rng, 6).build()
            got = BrokenMBET().run(g)
            want = run_mbe(g, "mbet")
            hits += (got.count, got.biclique_set()) != (
                want.count, want.biclique_set()
            )
        assert hits > 500

    def test_broken_engine_shrinks_small(self):
        # acceptance criterion: the feature-flagged broken engine is
        # minimized to a counterexample with at most 8 vertices
        oracle = agreement_oracle(
            [EngineSpec.make("broken_mbet", factory=BrokenMBET)]
        )
        rng = random.Random(23)
        g = None
        while g is None or oracle(g) is None:
            g = random_bigraph(rng, max_side=8)
        small = shrink_graph(g, lambda graph: oracle(graph) is not None)
        assert small.n_u + small.n_v <= 8
        assert oracle(small) is not None


class TestHarness:
    def test_unreduced_scan_runs_beside_mbet(self):
        from repro.check import harness

        names = [
            spec.name for spec in harness._engine_pool(
                FuzzConfig(max_cases=1), random.Random(0)
            )
        ]
        assert "mbet_unreduced" in names
        spec = EngineSpec.make("mbet_unreduced", factory=UnreducedMBET)
        store = spec.build()._make_store([0b01, 0b11, 0b01])
        assert store.masks == [0b01, 0b11, 0b01]  # duplicates, covered mask
        assert spec.result_set(make_g0()) == run_mbe(
            make_g0(), "mbet"
        ).biclique_set()

    def test_clean_run_finds_nothing(self):
        report = run_fuzz(FuzzConfig(seed=3, max_cases=6, max_side=6))
        assert report.ok
        assert report.cases == 6
        assert report.oracle_runs["agreement"] == 6
        assert report.stopped == "exhausted"

    def test_broken_engine_yields_shrunk_counterexample(self, tmp_path):
        records: list[dict] = []
        # most max_side=6 cases expose the planted bug (rate pinned in
        # TestShrink), so the cap is slack; the campaign stops at the
        # first failure
        report = run_fuzz(
            FuzzConfig(
                seed=3, max_cases=150, max_side=6,
                broken_engine=True, max_failures=1,
            ),
            on_case=records.append,
        )
        assert not report.ok
        cx = report.failures[0]
        assert "broken_mbet" in cx.engine
        assert cx.n_vertices <= 8
        # the JSON artifact replays: the shrunken graph still fails
        replayed = Counterexample.from_json(cx.as_json())
        oracle = agreement_oracle(
            [EngineSpec.make("broken_mbet", factory=BrokenMBET)]
        )
        assert oracle(replayed.graph()) is not None
        # the stream carries per-case records plus a summary
        assert records[-1]["type"] == "summary"
        assert any(r["type"] == "case" and not r["ok"] for r in records)
        # artifacts render, and the pytest case is valid python that passes
        json_path, py_path = write_counterexample(cx, tmp_path)
        saved = json.loads(open(json_path, encoding="utf-8").read())
        assert Counterexample.from_json(saved).shrunk == cx.shrunk
        namespace: dict = {}
        exec(open(py_path, encoding="utf-8").read(), namespace)  # noqa: S102
        test_fn = next(v for k, v in namespace.items() if k.startswith("test_"))
        test_fn()  # the real engine passes on the shrunken graph

    def test_dataset_cases_run_first(self):
        report = run_fuzz(
            FuzzConfig(
                seed=0, max_cases=0, datasets=("mti",),
                engines=("mbet", "mbea"),
            )
        )
        assert report.ok
        assert report.cases == 1
        assert report.oracle_runs["agreement"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_fuzz(FuzzConfig(max_cases=None, time_budget=None))
        with pytest.raises(ValueError):
            run_fuzz(FuzzConfig(max_cases=1, oracles=("nope",)))
        with pytest.raises(ValueError):
            run_fuzz(FuzzConfig(max_cases=1, engines=()))

    def test_time_budget_stops_the_loop(self):
        report = run_fuzz(FuzzConfig(seed=1, time_budget=1e-9))
        assert report.cases == 0
        assert report.stopped == "time_budget"

    def test_time_budget_binds_between_oracles(self, monkeypatch):
        """Each fake oracle advances a fake clock by 0.04 s; with a 0.1 s
        budget the run stops within one oracle of it, mid-battery, and
        the cut case is neither counted nor recorded."""
        from repro.check import harness

        clock = [0.0]

        class FakeTime:
            @staticmethod
            def perf_counter():
                return clock[0]

        def slow_oracle(_graph):
            clock[0] += 0.04
            return None

        monkeypatch.setattr(harness, "time", FakeTime)
        monkeypatch.setattr(
            harness, "_case_oracles",
            lambda *_args: [(f"slow{i}", slow_oracle) for i in range(10)],
        )
        records: list[dict] = []
        report = run_fuzz(
            FuzzConfig(seed=1, time_budget=0.1, max_cases=5),
            on_case=records.append,
        )
        assert report.stopped == "time_budget"
        assert sum(report.oracle_runs.values()) == 3
        assert report.elapsed <= 0.1 + 0.04 + 1e-9
        assert report.cases == 0
        assert [r["type"] for r in records] == ["summary"]


    def test_time_budget_binds_between_agreement_engines(self, monkeypatch):
        """Each fake engine run advances a fake clock by 0.04 s; with a
        0.1 s budget the agreement oracle stops after the third engine,
        mid-oracle, and the cut case is neither counted nor recorded."""
        from repro.check import harness
        from repro.core.mbet import MBET

        clock = [0.0]
        runs: list[int] = []

        class FakeTime:
            @staticmethod
            def perf_counter():
                return clock[0]

        class SlowMBET(MBET):
            def run(self, graph, **kwargs):
                runs.append(1)
                clock[0] += 0.04
                return super().run(graph, **kwargs)

        monkeypatch.setattr(harness, "time", FakeTime)
        monkeypatch.setattr(
            harness, "_engine_pool",
            lambda *_args: [
                EngineSpec.make(f"slow{i}", factory=SlowMBET)
                for i in range(10)
            ],
        )
        records: list[dict] = []
        report = run_fuzz(
            FuzzConfig(seed=1, time_budget=0.1, max_cases=5,
                       oracles=("agreement",), max_side=5),
            on_case=records.append,
        )
        assert report.stopped == "time_budget"
        assert report.oracle_runs["agreement"] == 1
        assert len(runs) == 3
        assert report.elapsed <= 0.1 + 0.04 + 1e-9
        assert report.cases == 0
        assert [r["type"] for r in records] == ["summary"]


class TestKillResumeParity:
    """Satellite: interrupt a checkpointed parallel run, resume, expect
    exact parity — the harness oracle drives reconcile_tasks end to end."""

    def test_parity_on_random_graphs(self):
        oracle = kill_resume_oracle(bound_height=1, bound_size=4)
        rng = random.Random(77)
        for _ in range(6):
            g = random_bigraph(rng, max_side=7)
            assert oracle(g) is None

    def test_parity_with_splitting_on_planted_graph(self):
        from repro import planted_bicliques

        g = planted_bicliques(24, 18, 8, noise_edges=20, seed=4)
        assert kill_resume_oracle(bound_height=1, bound_size=4)(g) is None
