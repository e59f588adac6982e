"""Tests for the cost-model planner (src/repro/plan).

Pinned here, mirroring docs/planning.md:

* feature extraction matches the stats/components the bigraph layer
  computes, and the persisted feature cache hits on repeat planning;
* the cost model's calibrated coefficients rank mbet ahead of its
  mbea fallback on zoo-scale features, scoring clamps density to the
  calibrated range, and the analytic seed covers engines the
  calibration never measured;
* golden plans: on zoo graphs the chosen engine is one the crossover
  matrix actually measured as competitive, and dense graphs outside
  the calibration plan serial;
* plan mechanics: threshold-incapable engines are ineligible when the
  job sets thresholds, open breakers demote without disqualifying,
  tiny graphs rank by pool preference, parallel needs cores, a graph
  of at least 64 edges and enough predicted serial work;
* the ``repro plan`` CLI prints the chosen configuration, ``--explain``
  lists every candidate with a status and reasons, ``--json`` emits the
  machine-readable plan;
* ``repro run`` without ``--algorithm`` executes the planner's choice,
  and an explicit ``--algorithm`` opts out.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.artifacts import ArtifactStore, kinds
from repro.bigraph.generators import random_bipartite
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.stats import compute_stats
from repro.cli import main
from repro.core.base import run_mbe
from repro.datasets import load
from repro.plan import (
    DEFAULT_COEFFICIENTS,
    PLANNER_ENGINES,
    CostModel,
    PlanError,
    build_plan,
    cached_features,
    estimate_cost,
    extract_features,
    fit_coefficients,
    recommend_slices,
    recommend_straggler_factor,
    root_cost_estimates,
)
from repro.plan.features import FEATURES_VERSION, PlanFeatures
from repro.plan.model import CALIBRATION_MAX_DENSITY
from repro.plan.planner import BUDGET_FLOOR_SECONDS, fine_slicing_min_wedges
from tests.conftest import make_g0


def _zoo_features(**overrides) -> PlanFeatures:
    """A zoo-scale feature row (the wc dataset's actual signature)."""
    base = dict(
        n_u=2239, n_v=2239, n_edges=17858, density=0.003562,
        max_degree_u=294, max_degree_v=294, avg_degree=7.976,
        degree_skew=36.86, max_two_hop=1519, cost=27126302,
        n_components=1, largest_component_frac=1.0,
    )
    base.update(overrides)
    return PlanFeatures(**base)


# --------------------------------------------------------------------------
# features


class TestFeatures:
    def test_extract_matches_stats_layer(self, g0):
        feats = extract_features(g0)
        stats = compute_stats(g0)
        assert feats.n_u == g0.n_u and feats.n_v == g0.n_v
        assert feats.n_edges == g0.n_edges
        assert feats.max_two_hop == max(
            stats.max_two_hop_u, stats.max_two_hop_v
        )
        assert feats.cost == estimate_cost(g0)
        assert feats.n_components == 1
        assert feats.largest_component_frac == 1.0

    def test_round_trip_ignores_unknown_fields(self, g0):
        feats = extract_features(g0)
        payload = feats.as_dict()
        payload["future_field"] = 42
        assert PlanFeatures.from_dict(payload) == feats

    def test_cached_features_hit_and_miss(self, tmp_path, g0):
        store = ArtifactStore(tmp_path / "store")
        gk = kinds.graph_key(g0)
        cold = cached_features(store, gk, g0)
        warm = cached_features(store, gk, g0)
        assert cold == warm == extract_features(g0)
        entries = [e for e in store.entries() if e.kind == "plan_features"]
        assert len(entries) == 1
        assert entries[0].fingerprint == FEATURES_VERSION

    def test_feature_cache_version_is_part_of_the_key(self, tmp_path, g0):
        store = ArtifactStore(tmp_path / "store")
        gk = kinds.graph_key(g0)
        cached_features(store, gk, g0)
        # a row stored under another version must not answer this one
        assert store.get(gk, "plan_features", "v0-obsolete") is None
        assert store.get(gk, "plan_features", FEATURES_VERSION) is not None


# --------------------------------------------------------------------------
# cost model


class TestCostModel:
    def test_calibrated_engines_cover_the_serial_pool(self):
        serial = [e for e in PLANNER_ENGINES if e != "parallel"]
        assert set(DEFAULT_COEFFICIENTS) == set(serial)

    def test_zoo_scale_ranking_prefers_mbet_family(self):
        model = CostModel(n_cores=1)
        feats = _zoo_features()
        preds = {
            e: model.predict_seconds(e, feats)
            for e in DEFAULT_COEFFICIENTS
        }
        assert min(preds, key=preds.get) == "mbet"
        assert preds["mbea"] > preds["mbet"]

    def test_density_is_clamped_to_the_calibrated_range(self):
        model = CostModel(n_cores=1)
        edge = _zoo_features(density=CALIBRATION_MAX_DENSITY)
        for density in (0.5, 1.0):
            dense = _zoo_features(density=density)
            for engine in DEFAULT_COEFFICIENTS:
                assert model.predict_seconds(engine, dense) == \
                    model.predict_seconds(engine, edge)

    def test_uncalibrated_engine_scored_by_analytic_seed(self):
        model = CostModel({}, n_cores=1)
        feats = _zoo_features()
        got = model.predict_seconds("never_measured", feats)
        assert got == pytest.approx(
            5e-8 * math.expm1(math.log1p(feats.cost)), rel=1e-6
        )

    def test_parallel_prediction_needs_cores_to_win(self):
        feats = _zoo_features()
        solo = CostModel(n_cores=1)
        pooled = CostModel(n_cores=8)
        assert pooled.predict_seconds("parallel", feats) < \
            solo.predict_seconds("parallel", feats)
        # overhead floor: parallel never predicts below the dispatch cost
        assert pooled.predict_seconds("parallel", feats) > 0.35

    def test_fit_recovers_a_planted_model(self):
        # synthesize elapsed times from a known coefficient vector and
        # check the ridge fit lands on it
        planted = (-10.0, 0.5, 0.7, 0.4, 30.0, -1.0)
        records = []
        for scale in range(1, 30):
            # decorrelate the basis columns so the planted vector is
            # identifiable (not shrunk toward the ridge seed)
            feats = _zoo_features(
                n_edges=1000 * scale,
                cost=100_000 * ((scale * 7) % 29 + 1),
                degree_skew=1.0 + ((scale * 11) % 17),
                density=0.01 + 0.04 * ((scale * 5) % 13),
                max_two_hop=100 + 50 * ((scale * 3) % 23),
            )
            from repro.plan.model import feature_basis

            log_t = sum(
                c * x for c, x in zip(planted, feature_basis(feats))
            )
            records.append({
                "engine": "synthetic", "elapsed": math.exp(log_t),
                "complete": True, "features": feats.as_dict(),
            })
        got = fit_coefficients(records)["synthetic"]
        # the ridge term tugs the bias slightly toward the analytic seed
        assert got == pytest.approx(planted, abs=0.2)

    def test_fit_skips_incomplete_rows(self):
        feats = _zoo_features()
        records = [
            {"engine": "e", "elapsed": 15.0, "complete": False,
             "features": feats.as_dict()},
        ]
        assert fit_coefficients(records) == {}


# --------------------------------------------------------------------------
# plans


class TestBuildPlan:
    def test_golden_zoo_plan_picks_a_measured_winner(self):
        # the wc signature: the crossover matrix measured the mbet
        # family 3-10x ahead of the pivot baselines there
        plan = build_plan(features=_zoo_features(), n_cores=1)
        assert plan.chosen.engine == "mbet"
        assert plan.chosen.ordering == "degree"
        assert plan.budget_seconds >= 5.0
        chain = plan.engine_chain()
        assert chain[0] == plan.chosen.engine
        assert len(chain) == len(set(chain))

    def test_tiny_graph_ranks_by_pool_preference(self, g0):
        plan = build_plan(g0, n_cores=1)
        assert plan.chosen.engine == PLANNER_ENGINES[0]
        assert plan.chosen.ordering == "natural"
        assert any("pool preference" in r for r in plan.chosen.reasons)

    def test_thresholds_reject_incapable_engines(self, g0):
        plan = build_plan(g0, min_left=2, min_right=2, n_cores=1)
        by_engine = {c.engine: c for c in plan.candidates}
        assert not by_engine["mbea"].eligible
        assert "thresholds" in by_engine["mbea"].reasons[0]
        assert by_engine["mbet"].eligible

    def test_open_breaker_demotes_but_keeps_engine(self):
        feats = _zoo_features()
        clean = build_plan(features=feats, n_cores=1)
        top = clean.chosen.engine
        plan = build_plan(
            features=feats, n_cores=1, breaker_states={top: "open"}
        )
        assert plan.chosen.engine != top
        chain = plan.engine_chain()
        assert top in chain  # demoted, not disqualified
        assert chain.index(top) == len(chain) - 1
        demoted = next(c for c in plan.candidates if c.engine == top)
        assert demoted.demoted
        assert any("breaker" in r for r in demoted.reasons)

    def test_parallel_needs_multiple_cores_and_enough_work(self):
        feats = _zoo_features()
        single = build_plan(features=feats, n_cores=1)
        para = next(
            c for c in single.candidates if c.engine == "parallel"
        )
        assert not para.eligible and "single-core" in para.reasons[0]
        # plenty of cores but the serial estimate is far below the bar
        fast = build_plan(features=feats, n_cores=16)
        para = next(c for c in fast.candidates if c.engine == "parallel")
        assert not para.eligible
        assert "bar" in para.reasons[0]

    @pytest.mark.parametrize("n_cores", [2, 16])
    def test_parallel_ineligible_on_tiny_graph_with_cores(self, g0, n_cores):
        # G0's extrapolated serial predictions are far above the 5s bar,
        # yet its real work is microseconds: the core count must not
        # let the pool into the plan
        plan = build_plan(g0, n_cores=n_cores)
        para = next(c for c in plan.candidates if c.engine == "parallel")
        assert not para.eligible
        assert "tiny graph" in para.reasons[0]
        assert "parallel" not in plan.engine_chain()

    @pytest.mark.parametrize("n_cores", [2, 16])
    def test_dense_graphs_outside_the_calibration_plan_serial(self, n_cores):
        # densities above every calibration graph once extrapolated to
        # 5e9 s (K10,10) and 8e3 s (20x20 at p=0.5), planning the pool
        # for work that takes 0.2 ms and 11 ms
        dense = (
            BipartiteGraph([(u, v) for u in range(10) for v in range(10)]),
            random_bipartite(20, 20, 0.5, seed=7),
        )
        for graph in dense:
            plan = build_plan(graph, n_cores=n_cores)
            assert plan.chosen.engine == "mbet"
            assert plan.chosen.predicted_seconds < 0.1
            assert plan.budget_seconds == BUDGET_FLOOR_SECONDS
            assert "parallel" not in plan.engine_chain()

    def test_tiny_graph_gets_the_budget_floor(self, g0):
        # 20x G0's extrapolated prediction would clamp to the 600s
        # ceiling; serve jobs without a time limit inherit this budget
        plan = build_plan(g0, n_cores=1)
        assert plan.budget_seconds == BUDGET_FLOOR_SECONDS == 5.0

    def test_parallel_wins_on_heavy_graph_with_cores(self):
        heavy = _zoo_features(
            n_edges=300_000, cost=3_000_000_000, max_two_hop=30_000
        )
        plan = build_plan(features=heavy, n_cores=16)
        para = next(c for c in plan.candidates if c.engine == "parallel")
        assert para.eligible
        assert para.workers == 16

    def test_budget_scales_with_prediction_and_clamps(self):
        small = build_plan(features=_zoo_features(), n_cores=1)
        assert small.budget_seconds == pytest.approx(max(
            5.0, 20.0 * small.chosen.predicted_seconds
        ))
        huge = _zoo_features(
            n_edges=3_000_000, cost=50_000_000_000, max_two_hop=100_000
        )
        assert build_plan(features=huge, n_cores=1).budget_seconds == 600.0

    def test_empty_pool_raises_plan_error(self, g0):
        with pytest.raises(PlanError):
            build_plan(g0, engines=("no_such_engine",))

    def test_explain_lists_every_candidate(self):
        plan = build_plan(features=_zoo_features(), n_cores=1)
        text = plan.explain()
        lines = text.splitlines()
        assert lines[0].startswith("graph")
        assert lines[1].startswith("chosen: engine=")
        assert "budget=" in lines[1] and "predicted=" in lines[1]
        for engine in PLANNER_ENGINES:
            assert any(engine in line for line in lines[3:])
        assert sum("chosen" in line for line in lines[3:]) == 1
        assert any("ineligible" in line for line in lines[3:])

    def test_as_dict_round_trips_through_json(self):
        plan = build_plan(features=_zoo_features(), n_cores=1)
        payload = json.loads(json.dumps(plan.as_dict()))
        assert payload["chosen"]["engine"] == plan.chosen.engine
        assert payload["model_version"] == plan.model_version
        assert len(payload["candidates"]) == len(plan.candidates)

    def test_store_backed_plan_uses_cached_features(self, tmp_path, g0):
        store = ArtifactStore(tmp_path / "store")
        gk = kinds.graph_key(g0)
        first = build_plan(g0, graph_key=gk, store=store)
        assert first.graph_key == gk
        # repeat planning answers from the persisted feature row
        hits_before = [
            e for e in store.entries() if e.kind == "plan_features"
        ]
        assert len(hits_before) == 1
        second = build_plan(g0, graph_key=gk, store=store)
        assert second.features == first.features

    def test_planner_choice_enumerates_exactly(self, g0):
        from tests.conftest import G0_MAXIMAL

        plan = build_plan(g0, n_cores=1)
        got = run_mbe(g0, plan.chosen.engine).biclique_set()
        assert got == G0_MAXIMAL


# --------------------------------------------------------------------------
# calibration acceptance


class TestCrossoverAcceptance:
    def test_choice_within_1_5x_of_best_on_every_zoo_graph(self):
        """The PR's acceptance bound, pinned against the committed
        snapshot: on every zoo graph the crossover matrix measured, the
        planner's chosen engine must have run within 1.5x of the best
        measured engine."""
        import glob
        import os

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        assert paths, "no committed BENCH_*.json snapshot"
        with open(paths[-1]) as handle:
            doc = json.load(handle)
        cells = doc.get("crossover", {}).get("cells", [])
        assert cells, "snapshot carries no crossover matrix"
        by_dataset: dict[str, list[dict]] = {}
        for cell in cells:
            by_dataset.setdefault(cell["dataset"], []).append(cell)
        for dataset, row in by_dataset.items():
            complete = [c for c in row if c["complete"]]
            if not complete:
                continue
            best = min(c["elapsed"] for c in complete)
            measured = {c["engine"]: c for c in row}
            feats = PlanFeatures.from_dict(row[0]["features"])
            plan = build_plan(features=feats, n_cores=1)
            cell = measured[plan.chosen.engine]
            assert cell["complete"], (
                f"{dataset}: planner chose {plan.chosen.engine}, which "
                f"timed out in the crossover matrix"
            )
            assert cell["elapsed"] <= 1.5 * best, (
                f"{dataset}: {plan.chosen.engine} ran {cell['elapsed']:.2f}s"
                f" vs best {best:.2f}s (> 1.5x)"
            )


# --------------------------------------------------------------------------
# cluster-facing estimates


class TestClusterEstimates:
    def test_root_cost_estimates_cover_addressable_roots(self):
        g = make_g0()
        from repro.core.parallel import addressable_roots

        estimates = root_cost_estimates(g)
        assert len(estimates) == len(addressable_roots(g, "degree", seed=0))
        assert all(e >= 0 for e in estimates)

    def test_recommend_slices_baseline_and_skew(self):
        threshold = fine_slicing_min_wedges()
        # a job under the fine-slicing threshold: one slice per worker
        small = [10] * 40
        assert sum(small) < threshold
        assert recommend_slices(3, small) == 3
        assert recommend_slices(3, [1] * 39 + [1000]) == 3
        # above it: 2 x workers, finer when the root costs are skewed
        unit = threshold // 40 + 1
        flat = [unit] * 40
        assert recommend_slices(3, flat) == 6
        skewed = [unit] * 39 + [unit * 1000]
        assert recommend_slices(3, skewed) > 6
        # capped by the root count
        assert recommend_slices(8, [5, 5, 5]) == 3
        assert recommend_slices(8, [threshold] * 3) == 3
        assert recommend_slices(2, []) == 1
        with pytest.raises(ValueError):
            recommend_slices(0, flat)

    def test_fine_slicing_threshold_follows_the_poll_interval(self):
        from repro.plan.planner import (
            FINE_SLICING_ROUND_TRIPS,
            SECONDS_PER_WEDGE,
            SLICE_REQUEST_SECONDS,
        )

        for poll in (0.02, 0.05, 0.2):
            work = fine_slicing_min_wedges(poll) * SECONDS_PER_WEDGE
            round_trip = poll + SLICE_REQUEST_SECONDS
            assert work == pytest.approx(
                FINE_SLICING_ROUND_TRIPS * round_trip, rel=1e-3
            )
        # a job between the two thresholds: a faster poll makes the extra
        # round trips cheap enough to cut it finer
        costs = [fine_slicing_min_wedges(0.02) // 40 + 1] * 40
        assert sum(costs) < fine_slicing_min_wedges(0.05)
        assert recommend_slices(2, costs, poll_interval=0.05) == 2
        assert recommend_slices(2, costs, poll_interval=0.02) == 4

    def test_root_costs_are_wedge_counts(self):
        from repro.core.parallel import addressable_roots

        g = load("mti")
        roots = addressable_roots(g, "degree", seed=0)
        costs = root_cost_estimates(g)
        for v, cost in zip(roots, costs):
            assert cost == sum(
                len(g.neighbors_u(u)) for u in g.neighbors_v(v)
            )

    def test_recommend_straggler_factor_grows_with_skew(self):
        assert recommend_straggler_factor([]) == 4.0
        flat = recommend_straggler_factor([10] * 20)
        skewed = recommend_straggler_factor([1] * 19 + [500])
        assert flat < skewed <= 10.0
        assert flat >= 2.0


# --------------------------------------------------------------------------
# CLI


class TestPlanCli:
    def _graph_file(self, tmp_path):
        from repro.bigraph.io import write_edge_list

        path = tmp_path / "g0.txt"
        write_edge_list(make_g0(), path)
        return str(path)

    def test_plan_prints_chosen_line(self, tmp_path, capsys):
        assert main(["plan", "--input", self._graph_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "engine=" in out and "budget=" in out
        assert "--explain" in out

    def test_plan_explain_prints_candidate_table(self, tmp_path, capsys):
        assert main([
            "plan", "--input", self._graph_file(tmp_path), "--explain"
        ]) == 0
        out = capsys.readouterr().out
        assert "candidates:" in out
        assert "chosen" in out and "ineligible" in out

    def test_plan_json_is_machine_readable(self, tmp_path, capsys):
        assert main([
            "plan", "--input", self._graph_file(tmp_path), "--json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chosen"]["engine"] in PLANNER_ENGINES
        assert isinstance(payload["candidates"], list)

    def test_plan_respects_engine_pool_and_cores(self, tmp_path, capsys):
        assert main([
            "plan", "--input", self._graph_file(tmp_path),
            "--engines", "mbea,pmbe", "--cores", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        engines = {c["engine"] for c in payload["candidates"]}
        assert engines == {"mbea", "pmbe"}
        assert payload["n_cores"] == 1

    def test_plan_unknown_pool_exits_2(self, tmp_path, capsys):
        assert main([
            "plan", "--input", self._graph_file(tmp_path),
            "--engines", "bogus",
        ]) == 2
        assert "no eligible engine" in capsys.readouterr().err

    def test_run_without_algorithm_uses_planner(self, tmp_path, capsys):
        assert main(["run", "--input", self._graph_file(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "planned: engine=" in captured.err
        assert "6 maximal bicliques" in captured.out

    def test_run_explicit_algorithm_skips_planner(self, tmp_path, capsys):
        assert main([
            "run", "--input", self._graph_file(tmp_path),
            "--algorithm", "mbea",
        ]) == 0
        captured = capsys.readouterr()
        assert "planned:" not in captured.err
        assert "mbea" in captured.out
